package vm

import (
	"fmt"
	"sync/atomic"

	"gcsim/internal/scheme"
)

// The expander rewrites the surface language into the compiler's core:
// quote, if, set!, lambda, begin, let, define, and application. Derived
// forms — let*, letrec, named let, cond, case, and, or, when, unless, do,
// quasiquote, and define with procedure syntax — are expanded here, and
// bodies that begin with internal defines are rewritten letrec*-style.

func sym(s string) scheme.Datum              { return scheme.Sym(s) }
func lst(items ...scheme.Datum) scheme.Datum { return scheme.List(items...) }

// gensymCounter is shared by every machine's compiler, and machines
// compile concurrently when experiments run in parallel.
var gensymCounter atomic.Int64

// expandGensym makes a compile-time symbol that cannot collide with
// program identifiers (% is reserved by convention).
func expandGensym(prefix string) scheme.Sym {
	return scheme.Sym(fmt.Sprintf("%%%s.%d", prefix, gensymCounter.Add(1)))
}

func (c *compiler) expand(d scheme.Datum) scheme.Datum {
	p, ok := d.(*scheme.Pair)
	if !ok {
		return d
	}
	head, _ := p.Car.(scheme.Sym)
	switch head {
	case "quote":
		return d
	case "if", "set!", "begin":
		return c.expandParts(d)
	case "lambda":
		items, ok := scheme.ListToSlice(d)
		if !ok || len(items) < 3 {
			compileErrf(d, "malformed lambda")
		}
		body := c.expandBody(items[2:], d)
		return scheme.Cons(sym("lambda"), scheme.Cons(items[1], body))
	case "define":
		return c.expandDefine(d)
	case "let":
		if _, isSym := cadr(d).(scheme.Sym); isSym {
			return c.expandNamedLet(d)
		}
		return c.expandLet(d)
	case "let*":
		return c.expandLetStar(d)
	case "letrec", "letrec*":
		return c.expandLetrec(d)
	case "cond":
		return c.expandCond(d)
	case "case":
		return c.expandCase(d)
	case "and":
		return c.expandAnd(d)
	case "or":
		return c.expandOr(d)
	case "when":
		items := c.formItems(d, 3, "when")
		return c.expand(lst(sym("if"), items[1], scheme.Cons(sym("begin"), scheme.List(items[2:]...))))
	case "unless":
		items := c.formItems(d, 3, "unless")
		return c.expand(lst(sym("if"), items[1], lst(sym("quote"), scheme.Unspecified), scheme.Cons(sym("begin"), scheme.List(items[2:]...))))
	case "do":
		return c.expandDo(d)
	case "quasiquote":
		return c.expand(c.expandQuasi(cadr(d), 1))
	case "delay", "unquote", "unquote-splicing":
		compileErrf(d, "%s is not supported", head)
	}
	return c.expandParts(d)
}

// formItems flattens a form and checks a minimum length.
func (c *compiler) formItems(d scheme.Datum, min int, what string) []scheme.Datum {
	items, ok := scheme.ListToSlice(d)
	if !ok || len(items) < min {
		compileErrf(d, "malformed %s", what)
	}
	return items
}

// expandParts expands every element of a form (application, if, begin...).
func (c *compiler) expandParts(d scheme.Datum) scheme.Datum {
	items, ok := scheme.ListToSlice(d)
	if !ok {
		compileErrf(d, "improper list in expression")
	}
	out := make([]scheme.Datum, len(items))
	head, isHeadSym := items[0].(scheme.Sym)
	for i, it := range items {
		if i == 0 && isHeadSym && (head == "if" || head == "set!" || head == "begin") {
			out[i] = it
			continue
		}
		if i == 1 && isHeadSym && head == "set!" {
			out[i] = it // assignment target is not an expression
			continue
		}
		out[i] = c.expand(it)
	}
	return scheme.List(out...)
}

// expandDefine normalizes both define forms to (define name expr).
func (c *compiler) expandDefine(d scheme.Datum) scheme.Datum {
	items := c.formItems(d, 2, "define")
	switch t := items[1].(type) {
	case scheme.Sym:
		if len(items) == 2 {
			return lst(sym("define"), t, lst(sym("quote"), scheme.Unspecified))
		}
		if len(items) != 3 {
			compileErrf(d, "malformed define")
		}
		return lst(sym("define"), t, c.expand(items[2]))
	case *scheme.Pair:
		// (define (f . formals) body...) => (define f (lambda formals body...))
		name := t.Car
		formals := t.Cdr
		lam := scheme.Cons(sym("lambda"), scheme.Cons(formals, scheme.List(items[2:]...)))
		return lst(sym("define"), name, c.expand(lam))
	default:
		compileErrf(d, "malformed define")
		return nil
	}
}

// expandBody handles internal defines: a body whose leading forms are
// defines becomes a letrec*-style let over boxed bindings.
func (c *compiler) expandBody(forms []scheme.Datum, whole scheme.Datum) scheme.Datum {
	var defs []scheme.Datum
	i := 0
	for ; i < len(forms); i++ {
		if _, ok := headIs(forms[i], "define"); ok {
			defs = append(defs, c.expandDefine(forms[i]))
		} else {
			break
		}
	}
	rest := forms[i:]
	if len(rest) == 0 {
		compileErrf(whole, "body has no expressions")
	}
	if len(defs) == 0 {
		out := make([]scheme.Datum, len(rest))
		for j, f := range rest {
			out[j] = c.expand(f)
		}
		return scheme.List(out...)
	}
	// (let ((n1 '0) ...) (set! n1 e1) ... body...)
	var binds, sets []scheme.Datum
	for _, def := range defs {
		name := cadr(def)
		val := caddr(def)
		binds = append(binds, lst(name, lst(sym("quote"), int64(0))))
		sets = append(sets, lst(sym("set!"), name, val))
	}
	body := append(sets, rest...)
	let := scheme.Cons(sym("let"), scheme.Cons(scheme.List(binds...), scheme.List(body...)))
	return scheme.List(c.expand(let))
}

func (c *compiler) expandLet(d scheme.Datum) scheme.Datum {
	items := c.formItems(d, 3, "let")
	binds, ok := scheme.ListToSlice(items[1])
	if !ok {
		compileErrf(d, "malformed let bindings")
	}
	outBinds := make([]scheme.Datum, len(binds))
	for i, b := range binds {
		bi, ok := scheme.ListToSlice(b)
		if !ok || len(bi) != 2 {
			compileErrf(d, "malformed let binding")
		}
		outBinds[i] = lst(bi[0], c.expand(bi[1]))
	}
	body := c.expandBody(items[2:], d)
	return scheme.Cons(sym("let"), scheme.Cons(scheme.List(outBinds...), body))
}

func (c *compiler) expandLetStar(d scheme.Datum) scheme.Datum {
	items := c.formItems(d, 3, "let*")
	binds, ok := scheme.ListToSlice(items[1])
	if !ok {
		compileErrf(d, "malformed let* bindings")
	}
	body := scheme.List(items[2:]...)
	if len(binds) <= 1 {
		return c.expand(scheme.Cons(sym("let"), scheme.Cons(items[1], body)))
	}
	inner := scheme.Cons(sym("let*"), scheme.Cons(scheme.List(binds[1:]...), body))
	return c.expand(lst(sym("let"), scheme.List(binds[0]), inner))
}

func (c *compiler) expandLetrec(d scheme.Datum) scheme.Datum {
	items := c.formItems(d, 3, "letrec")
	binds, ok := scheme.ListToSlice(items[1])
	if !ok {
		compileErrf(d, "malformed letrec bindings")
	}
	var outBinds, sets []scheme.Datum
	for _, b := range binds {
		bi, ok := scheme.ListToSlice(b)
		if !ok || len(bi) != 2 {
			compileErrf(d, "malformed letrec binding")
		}
		outBinds = append(outBinds, lst(bi[0], lst(sym("quote"), int64(0))))
		sets = append(sets, lst(sym("set!"), bi[0], bi[1]))
	}
	body := append(sets, items[2:]...)
	let := scheme.Cons(sym("let"), scheme.Cons(scheme.List(outBinds...), scheme.List(body...)))
	return c.expand(let)
}

func (c *compiler) expandNamedLet(d scheme.Datum) scheme.Datum {
	items := c.formItems(d, 4, "named let")
	name := items[1]
	binds, ok := scheme.ListToSlice(items[2])
	if !ok {
		compileErrf(d, "malformed named-let bindings")
	}
	var vars, inits []scheme.Datum
	for _, b := range binds {
		bi, ok := scheme.ListToSlice(b)
		if !ok || len(bi) != 2 {
			compileErrf(d, "malformed named-let binding")
		}
		vars = append(vars, bi[0])
		inits = append(inits, bi[1])
	}
	lam := scheme.Cons(sym("lambda"), scheme.Cons(scheme.List(vars...), scheme.List(items[3:]...)))
	// (let ((name '0)) (set! name lam) (name inits...))
	call := scheme.Cons(name, scheme.List(inits...))
	let := lst(sym("let"), scheme.List(lst(name, lst(sym("quote"), int64(0)))),
		lst(sym("set!"), name, lam), call)
	return c.expand(let)
}

func (c *compiler) expandCond(d scheme.Datum) scheme.Datum {
	items := c.formItems(d, 2, "cond")
	return c.expand(c.expandCondClauses(items[1:], d))
}

func (c *compiler) expandCondClauses(clauses []scheme.Datum, whole scheme.Datum) scheme.Datum {
	if len(clauses) == 0 {
		return lst(sym("quote"), scheme.Unspecified)
	}
	cl, ok := scheme.ListToSlice(clauses[0])
	if !ok || len(cl) == 0 {
		compileErrf(whole, "malformed cond clause")
	}
	if s, ok := cl[0].(scheme.Sym); ok && s == "else" {
		return scheme.Cons(sym("begin"), scheme.List(cl[1:]...))
	}
	rest := c.expandCondClauses(clauses[1:], whole)
	if len(cl) == 1 {
		// (cond (test) ...) yields the test value if true.
		t := expandGensym("t")
		return lst(sym("let"), scheme.List(lst(t, cl[0])),
			lst(sym("if"), t, t, rest))
	}
	if s, ok := cl[1].(scheme.Sym); ok && s == "=>" {
		if len(cl) != 3 {
			compileErrf(whole, "malformed => clause")
		}
		t := expandGensym("t")
		return lst(sym("let"), scheme.List(lst(t, cl[0])),
			lst(sym("if"), t, lst(cl[2], t), rest))
	}
	return lst(sym("if"), cl[0],
		scheme.Cons(sym("begin"), scheme.List(cl[1:]...)), rest)
}

func (c *compiler) expandCase(d scheme.Datum) scheme.Datum {
	items := c.formItems(d, 3, "case")
	key := expandGensym("key")
	var out scheme.Datum = lst(sym("quote"), scheme.Unspecified)
	clauses := items[2:]
	for i := len(clauses) - 1; i >= 0; i-- {
		cl, ok := scheme.ListToSlice(clauses[i])
		if !ok || len(cl) < 2 {
			compileErrf(d, "malformed case clause")
		}
		body := scheme.Cons(sym("begin"), scheme.List(cl[1:]...))
		if s, ok := cl[0].(scheme.Sym); ok && s == "else" {
			out = body
			continue
		}
		test := lst(sym("memv"), key, lst(sym("quote"), cl[0]))
		out = lst(sym("if"), test, body, out)
	}
	return c.expand(lst(sym("let"), scheme.List(lst(key, items[1])), out))
}

func (c *compiler) expandAnd(d scheme.Datum) scheme.Datum {
	items := c.formItems(d, 1, "and")
	switch len(items) {
	case 1:
		return lst(sym("quote"), true)
	case 2:
		return c.expand(items[1])
	default:
		rest := scheme.Cons(sym("and"), scheme.List(items[2:]...))
		return c.expand(lst(sym("if"), items[1], rest, false))
	}
}

func (c *compiler) expandOr(d scheme.Datum) scheme.Datum {
	items := c.formItems(d, 1, "or")
	switch len(items) {
	case 1:
		return lst(sym("quote"), false)
	case 2:
		return c.expand(items[1])
	default:
		t := expandGensym("t")
		rest := scheme.Cons(sym("or"), scheme.List(items[2:]...))
		return c.expand(lst(sym("let"), scheme.List(lst(t, items[1])),
			lst(sym("if"), t, t, rest)))
	}
}

// expandDo rewrites (do ((v init step)...) (test result...) body...) into a
// named let.
func (c *compiler) expandDo(d scheme.Datum) scheme.Datum {
	items := c.formItems(d, 3, "do")
	specs, ok := scheme.ListToSlice(items[1])
	if !ok {
		compileErrf(d, "malformed do specs")
	}
	exit, ok := scheme.ListToSlice(items[2])
	if !ok || len(exit) == 0 {
		compileErrf(d, "malformed do exit clause")
	}
	loop := expandGensym("do")
	var binds, steps []scheme.Datum
	for _, s := range specs {
		si, ok := scheme.ListToSlice(s)
		if !ok || len(si) < 2 || len(si) > 3 {
			compileErrf(d, "malformed do spec")
		}
		binds = append(binds, lst(si[0], si[1]))
		if len(si) == 3 {
			steps = append(steps, si[2])
		} else {
			steps = append(steps, si[0])
		}
	}
	again := scheme.Cons(loop, scheme.List(steps...))
	var resultExpr scheme.Datum = lst(sym("quote"), scheme.Unspecified)
	if len(exit) > 1 {
		resultExpr = scheme.Cons(sym("begin"), scheme.List(exit[1:]...))
	}
	body := append(append([]scheme.Datum{}, items[3:]...), again)
	loopBody := lst(sym("if"), exit[0], resultExpr,
		scheme.Cons(sym("begin"), scheme.List(body...)))
	named := lst(sym("let"), loop, scheme.List(binds...), loopBody)
	return c.expand(named)
}

// expandQuasi implements quasiquotation with nesting.
func (c *compiler) expandQuasi(t scheme.Datum, depth int) scheme.Datum {
	switch x := t.(type) {
	case *scheme.Pair:
		if h, ok := x.Car.(scheme.Sym); ok {
			switch h {
			case "unquote":
				if depth == 1 {
					return cadr(t)
				}
				return lst(sym("list"), lst(sym("quote"), sym("unquote")),
					c.expandQuasi(cadr(t), depth-1))
			case "quasiquote":
				return lst(sym("list"), lst(sym("quote"), sym("quasiquote")),
					c.expandQuasi(cadr(t), depth+1))
			}
		}
		if hp, ok := x.Car.(*scheme.Pair); ok {
			if h, ok := hp.Car.(scheme.Sym); ok && h == "unquote-splicing" && depth == 1 {
				return lst(sym("append"), cadr(x.Car), c.expandQuasi(x.Cdr, depth))
			}
		}
		return lst(sym("cons"), c.expandQuasi(x.Car, depth), c.expandQuasi(x.Cdr, depth))
	case scheme.Vec:
		var asList scheme.Datum = scheme.Empty
		for i := len(x) - 1; i >= 0; i-- {
			asList = scheme.Cons(x[i], asList)
		}
		return lst(sym("list->vector"), c.expandQuasi(asList, depth))
	default:
		return lst(sym("quote"), t)
	}
}
