package vm

import (
	"strings"
	"testing"

	"gcsim/internal/gc"
	"gcsim/internal/scheme"
)

// Edge-case and regression tests beyond the core semantics suite.

func TestUninternedGensyms(t *testing.T) {
	m := loaded(t)
	// gensym with a prefix produces distinct, printable, collectable
	// symbols that are eq? only to themselves.
	evalStr(t, m, `(symbol? (gensym "v"))`, "#t")
	evalStr(t, m, `(eq? (gensym "v") (gensym "v"))`, "#f")
	w := m.MustEval(`(gensym "tmp")`)
	if name := m.WriteValue(w, true); !strings.HasPrefix(name, "tmp") {
		t.Errorf("gensym prints as %q, want tmp prefix", name)
	}
	// symbol->string works on uninterned symbols.
	evalStr(t, m, `(substring (symbol->string (gensym "pre")) 0 3)`, `"pre"`)
	// Interned symbols are unaffected.
	evalStr(t, m, `(eq? 'abc 'abc)`, "#t")
	// A gensym keyed into an assq list is found by identity.
	evalFix(t, m, `
		(define g (gensym "k"))
		(define alist (list (cons g 42) (cons (gensym "k") 1)))
		(cdr (assq g alist))`, 42)
}

func TestGensymsAreCollected(t *testing.T) {
	col := gc.NewCheney(64 << 10)
	m := NewLoaded(nil, col)
	m.MaxInsns = 500_000_000
	staticBefore := m.Mem.C.StaticWords
	m.MustEval(`
		(let loop ((i 0))
		  (if (< i 20000) (begin (gensym "g") (loop (+ i 1))) 'done))`)
	if col.Stats().Collections == 0 {
		t.Fatal("expected collections from gensym churn")
	}
	// Gensyms must not grow the static area.
	if grown := m.Mem.C.StaticWords - staticBefore; grown > 1000 {
		t.Errorf("gensyms leaked %d words into the static area", grown)
	}
	if col.Stats().LiveAfterLast > 5000 {
		t.Errorf("gensyms not collected: %d words live", col.Stats().LiveAfterLast)
	}
}

func TestInliningDisabledWhenShadowed(t *testing.T) {
	m := bare(t)
	// With a let-bound +, the inline OpAdd must not be used.
	evalFix(t, m, "(let ((+ (lambda (a b) 99))) (+ 1 2))", 99)
	// Wrong arity falls back to the variadic builtin.
	evalFix(t, m, "(+ 1 2 3)", 6)
	evalFix(t, m, "(+)", 0)
	// car used as a value is the builtin closure, not an opcode.
	evalFix(t, m, "((car (list car cdr)) '(7 8))", 7)
}

func TestNestedQuasiquoteInVector(t *testing.T) {
	m := loaded(t)
	evalStr(t, m, "(define v 9) `#(1 ,v ,@(list 2 3))", "#(1 9 2 3)")
}

func TestLetrecMutualShadowing(t *testing.T) {
	m := bare(t)
	evalFix(t, m, `
		(define (f) 1)
		(letrec ((f (lambda (n) (if (= n 0) 10 (g (- n 1)))))
		         (g (lambda (n) (f n))))
		  (f 3))`, 10)
	// The global f is untouched.
	evalFix(t, m, "(f)", 1)
}

func TestApplyTailPosition(t *testing.T) {
	m := loaded(t)
	// apply in tail position must not grow the stack.
	evalFix(t, m, `
		(define (loop n acc)
		  (if (= n 0) acc (apply loop (list (- n 1) (+ acc 1)))))
		(loop 50000 0)`, 50000)
}

func TestVariadicClosureCapture(t *testing.T) {
	m := loaded(t)
	evalStr(t, m, `
		(define (tag . items)
		  (lambda () items))
		((tag 1 2 3))`, "(1 2 3)")
}

func TestLongStrings(t *testing.T) {
	m := loaded(t)
	evalFix(t, m, `
		(define s (string-join (map number->string (iota 100)) "-"))
		(string-length s)`, 289)
	evalStr(t, m, "(substring s 0 7)", `"0-1-2-3"`)
	evalStr(t, m, "(string=? (string-copy s) s)", "#t")
}

func TestTableListDeterministic(t *testing.T) {
	m := loaded(t)
	m.MustEval(`
		(define t1 (make-table))
		(for-each (lambda (i) (table-set! t1 i i)) (iota 40))`)
	a := m.DescribeValue(m.MustEval("(table->list t1)"))
	b := m.DescribeValue(m.MustEval("(table->list t1)"))
	if a != b {
		t.Error("table->list order unstable")
	}
}

func TestFixnumOverflowChecked(t *testing.T) {
	m := bare(t)
	for _, src := range []string{
		"(* 1152921504606846975 1152921504606846975)",
		"(+ 1152921504606846975 1152921504606846975)",
		"(expt 10 40)",
	} {
		if _, err := m.Eval(src); err == nil {
			t.Errorf("Eval(%q) should overflow", src)
		}
	}
	// Near-limit values still work.
	evalFix(t, m, "(+ 1152921504606846974 1)", scheme.FixnumMax)
}

func TestDeepNonTailRecursion(t *testing.T) {
	m := bare(t)
	evalFix(t, m, `
		(define (sum n) (if (= n 0) 0 (+ n (sum (- n 1)))))
		(sum 20000)`, 20000*20001/2)
}

func TestStackOverflowIsError(t *testing.T) {
	m := bare(t)
	_, err := m.Eval(`
		(define (deep n) (+ 1 (deep (+ n 1))))
		(deep 0)`)
	if err == nil || !strings.Contains(err.Error(), "stack overflow") {
		t.Errorf("err = %v, want stack overflow", err)
	}
}

func TestMutationAcrossCollections(t *testing.T) {
	// set-car! on an old object pointing at young data, repeatedly, under
	// the generational collector: the write barrier must keep everything
	// reachable through many minor collections.
	col := gc.NewGenerational(8<<10, 256<<10)
	m := NewLoaded(nil, col)
	m.MaxInsns = 500_000_000
	v, err := m.Eval(`
		(define holder (cons 0 0))
		(let loop ((i 0))
		  (if (= i 20000)
		      (car holder)
		      (begin
		        (set-car! holder (cons i i))
		        (loop (+ i 1)))))
		(car (car holder))`)
	if err != nil {
		t.Fatal(err)
	}
	if col.Stats().BarrierHits == 0 {
		t.Error("no barrier hits recorded")
	}
	if got := scheme.FixnumValue(v); got != 19999 {
		t.Errorf("mutation lost: %d", got)
	}
}

func TestVectorsOfVectorsSurviveGC(t *testing.T) {
	for _, mk := range []func() gc.Collector{
		func() gc.Collector { return gc.NewCheney(32 << 10) },
		func() gc.Collector { return gc.NewMarkSweep(32 << 10) },
	} {
		col := mk()
		m := NewLoaded(nil, col)
		m.MaxInsns = 500_000_000
		v, err := m.Eval(`
			(define grid (vector-map (lambda (i) (make-vector 4 i)) (list->vector (iota 16))))
			(let churn ((i 0))
			  (if (< i 30000) (begin (cons i i) (churn (+ i 1))) 'ok))
			(fold-left + 0 (map (lambda (row) (vector-ref row 2))
			                    (vector->list grid)))`)
		if err != nil {
			t.Fatalf("%s: %v", col.Name(), err)
		}
		if col.Stats().Collections == 0 {
			t.Fatalf("%s: no collections", col.Name())
		}
		if got := scheme.FixnumValue(v); got != 120 {
			t.Errorf("%s: grid corrupted: %d, want 120", col.Name(), got)
		}
	}
}

func TestFlonumsSurviveGC(t *testing.T) {
	col := gc.NewCheney(16 << 10)
	m := NewLoaded(nil, col)
	m.MaxInsns = 500_000_000
	v, err := m.Eval(`
		(define pi-ish 3.14159)
		(let churn ((i 0) (acc 0.0))
		  (if (< i 5000)
		      (churn (+ i 1) (+ acc 0.001))
		      (inexact->exact (floor (* 1000.0 (+ pi-ish (- acc acc)))))))`)
	if err != nil {
		t.Fatal(err)
	}
	if scheme.FixnumValue(v) != 3141 {
		t.Errorf("flonum corrupted across GC: %d", scheme.FixnumValue(v))
	}
}

func TestDisassemblyShape(t *testing.T) {
	m := bare(t)
	code, err := m.CompileToplevel(mustReadOne(t, "(define (f x) (car (cons x 1)))"))
	if err != nil {
		t.Fatal(err)
	}
	dis := code.Disassemble()
	if !strings.Contains(dis, "set-global") {
		t.Errorf("toplevel define should set a global:\n%s", dis)
	}
	// The inner lambda must use inlined cons/car (find its code object).
	found := false
	for i := 0; i < m.CodeCount(); i++ {
		d := m.codes[i].Disassemble()
		if strings.Contains(d, "cons") && strings.Contains(d, "car") {
			found = true
		}
	}
	if !found {
		t.Error("cons/car not inlined in any code object")
	}
}

func TestMaterializeSharingOfSymbols(t *testing.T) {
	m := bare(t)
	a := m.Materialize(scheme.Sym("shared"))
	b := m.Materialize(scheme.List(scheme.Sym("shared"), scheme.Sym("shared")))
	if m.car(b) != a || m.car(m.cdr(b)) != a {
		t.Error("materialized symbols not shared")
	}
}

func TestEmptyBodiesAndWeirdArity(t *testing.T) {
	m := bare(t)
	if _, err := m.Eval("(lambda ())"); err == nil {
		t.Error("empty lambda accepted")
	}
	evalStr(t, m, "(begin)", "#!unspecific")
	evalFix(t, m, "((lambda args (length args)) 1 2 3 4 5)", 5)
}

// append and list->vector gather a list's items in the machine's scratch
// slice, so a call allocates no Go memory once the slice has grown: a
// thousand calls of each cost less than one Go allocation per call,
// where a fresh slice per call costs several. Their results stay right
// when calls alternate between the two.
func TestListBuiltinsReuseScratch(t *testing.T) {
	m := NewLoaded(nil, gc.NewCheney(0))
	setup := `(define (iota n acc) (if (eq? n 0) acc (iota (- n 1) (cons n acc))))
		(define xs (iota 64 '()))
		(define (churn n)
		  (if (eq? n 0) 0
		      (begin (append xs xs '(end)) (list->vector xs) (churn (- n 1)))))`
	if _, err := m.Eval(setup); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Eval("(churn 10)"); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := m.Eval("(churn 1000)"); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("1000 calls each: %.0f Go allocations", allocs)
	if allocs >= 1000 {
		t.Errorf("1000 calls each of append and list->vector made %.0f Go allocations", allocs)
	}
	got, err := m.Eval(`(list (length (append xs '(a) xs)) (vector-ref (list->vector xs) 63) (car (append '(z) xs)))`)
	if err != nil {
		t.Fatal(err)
	}
	if s := m.DescribeValue(got); s != "(129 64 z)" {
		t.Errorf("results = %s, want (129 64 z)", s)
	}
}
