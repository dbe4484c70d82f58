package vm

import (
	"math"
	"strconv"
	"strings"

	"gcsim/internal/scheme"
)

// The builtin library. Each builtin is an ordinary first-class closure
// whose code object is a two-instruction stub [prim i; return], so builtins
// can be passed to map, stored in data structures, and applied. Builtin
// bodies read their arguments from the stack through traced loads and
// charge an instruction cost approximating a compiled implementation.

type builtinFn func(vm *Machine, n int) Word

type builtin struct {
	Name     string
	MinArgs  int
	Variadic bool
	Cost     uint64
	Fn       builtinFn
}

var builtins []builtin

func def(name string, minArgs int, variadic bool, cost uint64, fn builtinFn) {
	builtins = append(builtins, builtin{name, minArgs, variadic, cost, fn})
}

// installBuiltins compiles the stub code objects and binds the globals.
// The apply stub uses OpApply, which re-dispatches in the interpreter.
func (vm *Machine) installBuiltins() {
	for i := range builtins {
		code := &Code{
			Name: builtins[i].Name, Prim: i,
			Instrs: []Instr{{Op: OpPrim, A: int32(i)}, {Op: OpReturn}},
		}
		vm.addCode(code)
		addr := vm.allocStaticObject(scheme.KindClosure, []Word{scheme.FromFixnum(int64(code.idx))})
		vm.DefineGlobal(builtins[i].Name, scheme.FromPtr(addr))
	}
	applyCode := &Code{Name: "apply", Prim: len(builtins), Instrs: []Instr{{Op: OpApply}}}
	vm.addCode(applyCode)
	addr := vm.allocStaticObject(scheme.KindClosure, []Word{scheme.FromFixnum(int64(applyCode.idx))})
	vm.DefineGlobal("apply", scheme.FromPtr(addr))
}

func init() {
	defNumeric()
	defPredicates()
	defLists()
	defVectors()
	defStrings()
	defChars()
	defTables()
	defIO()
	defMisc()
}

func defNumeric() {
	def("+", 0, true, 4, func(vm *Machine, n int) Word {
		acc := Word(scheme.FromFixnum(0))
		for i := 0; i < n; i++ {
			acc = vm.numAdd(acc, vm.arg(i))
		}
		return acc
	})
	def("-", 1, true, 4, func(vm *Machine, n int) Word {
		if n == 1 {
			return vm.numSub(scheme.FromFixnum(0), vm.arg(0))
		}
		acc := vm.arg(0)
		for i := 1; i < n; i++ {
			acc = vm.numSub(acc, vm.arg(i))
		}
		return acc
	})
	def("*", 0, true, 5, func(vm *Machine, n int) Word {
		acc := Word(scheme.FromFixnum(1))
		for i := 0; i < n; i++ {
			acc = vm.numMul(acc, vm.arg(i))
		}
		return acc
	})
	def("/", 1, true, 8, func(vm *Machine, n int) Word {
		if n == 1 {
			return vm.numDiv(scheme.FromFixnum(1), vm.arg(0))
		}
		acc := vm.arg(0)
		for i := 1; i < n; i++ {
			acc = vm.numDiv(acc, vm.arg(i))
		}
		return acc
	})
	cmp := func(name string, ok func(int) bool) {
		def(name, 2, true, 4, func(vm *Machine, n int) Word {
			for i := 0; i < n-1; i++ {
				if !ok(vm.numCompare(vm.arg(i), vm.arg(i+1), name)) {
					return scheme.False
				}
			}
			return scheme.True
		})
	}
	cmp("=", func(c int) bool { return c == 0 })
	cmp("<", func(c int) bool { return c < 0 })
	cmp("<=", func(c int) bool { return c <= 0 })
	cmp(">", func(c int) bool { return c > 0 })
	cmp(">=", func(c int) bool { return c >= 0 })

	def("quotient", 2, false, 6, func(vm *Machine, n int) Word { return vm.quotient(vm.arg(0), vm.arg(1)) })
	def("remainder", 2, false, 6, func(vm *Machine, n int) Word { return vm.remainder(vm.arg(0), vm.arg(1)) })
	def("modulo", 2, false, 7, func(vm *Machine, n int) Word { return vm.modulo(vm.arg(0), vm.arg(1)) })
	def("abs", 1, false, 3, func(vm *Machine, n int) Word {
		w := vm.arg(0)
		if scheme.IsFixnum(w) {
			v := scheme.FixnumValue(w)
			if v < 0 {
				v = -v
			}
			return scheme.FromFixnum(v)
		}
		return vm.flonum(math.Abs(vm.toFloat(w, "abs")))
	})
	def("min", 1, true, 4, func(vm *Machine, n int) Word {
		acc := vm.arg(0)
		for i := 1; i < n; i++ {
			if vm.numCompare(vm.arg(i), acc, "min") < 0 {
				acc = vm.arg(i)
			}
		}
		return acc
	})
	def("max", 1, true, 4, func(vm *Machine, n int) Word {
		acc := vm.arg(0)
		for i := 1; i < n; i++ {
			if vm.numCompare(vm.arg(i), acc, "max") > 0 {
				acc = vm.arg(i)
			}
		}
		return acc
	})
	def("number?", 1, false, 2, func(vm *Machine, n int) Word { return scheme.FromBool(vm.isNumber(vm.arg(0))) })
	def("integer?", 1, false, 2, func(vm *Machine, n int) Word {
		w := vm.arg(0)
		if scheme.IsFixnum(w) {
			return scheme.True
		}
		if vm.isFlonum(w) {
			f := vm.flonumValue(w)
			return scheme.FromBool(f == math.Trunc(f))
		}
		return scheme.False
	})
	def("real?", 1, false, 2, func(vm *Machine, n int) Word { return scheme.FromBool(vm.isNumber(vm.arg(0))) })
	def("positive?", 1, false, 3, func(vm *Machine, n int) Word {
		return scheme.FromBool(vm.numCompare(vm.arg(0), scheme.FromFixnum(0), "positive?") > 0)
	})
	def("negative?", 1, false, 3, func(vm *Machine, n int) Word {
		return scheme.FromBool(vm.numCompare(vm.arg(0), scheme.FromFixnum(0), "negative?") < 0)
	})
	def("even?", 1, false, 3, func(vm *Machine, n int) Word {
		return scheme.FromBool(vm.fixnumArg(vm.arg(0), "even?")%2 == 0)
	})
	def("odd?", 1, false, 3, func(vm *Machine, n int) Word {
		return scheme.FromBool(vm.fixnumArg(vm.arg(0), "odd?")%2 != 0)
	})
	f1 := func(name string, f func(float64) float64) {
		def(name, 1, false, 20, func(vm *Machine, n int) Word { return vm.float1(f, vm.arg(0), name) })
	}
	f1("sqrt", math.Sqrt)
	f1("sin", math.Sin)
	f1("cos", math.Cos)
	f1("tan", math.Tan)
	f1("exp", math.Exp)
	f1("log", math.Log)
	def("atan", 1, true, 20, func(vm *Machine, n int) Word {
		if n == 2 {
			return vm.flonum(math.Atan2(vm.toFloat(vm.arg(0), "atan"), vm.toFloat(vm.arg(1), "atan")))
		}
		return vm.float1(math.Atan, vm.arg(0), "atan")
	})
	def("expt", 2, false, 25, func(vm *Machine, n int) Word {
		a, b := vm.arg(0), vm.arg(1)
		if scheme.IsFixnum(a) && scheme.IsFixnum(b) && scheme.FixnumValue(b) >= 0 {
			base, e := scheme.FixnumValue(a), scheme.FixnumValue(b)
			acc := int64(1)
			for i := int64(0); i < e; i++ {
				p := acc * base
				if base != 0 && p/base != acc {
					vm.errf("expt: fixnum overflow")
				}
				acc = p
			}
			return vm.checkFixRange(acc, "expt")
		}
		return vm.flonum(math.Pow(vm.toFloat(a, "expt"), vm.toFloat(b, "expt")))
	})
	fround := func(name string, f func(float64) float64) {
		def(name, 1, false, 5, func(vm *Machine, n int) Word {
			w := vm.arg(0)
			if scheme.IsFixnum(w) {
				return w
			}
			return vm.flonum(f(vm.toFloat(w, name)))
		})
	}
	fround("floor", math.Floor)
	fround("ceiling", math.Ceil)
	fround("truncate", math.Trunc)
	fround("round", math.RoundToEven)
	def("exact->inexact", 1, false, 4, func(vm *Machine, n int) Word { return vm.exactToInexact(vm.arg(0)) })
	def("inexact->exact", 1, false, 4, func(vm *Machine, n int) Word { return vm.inexactToExact(vm.arg(0)) })
	def("exact?", 1, false, 2, func(vm *Machine, n int) Word { return scheme.FromBool(scheme.IsFixnum(vm.arg(0))) })
	def("inexact?", 1, false, 2, func(vm *Machine, n int) Word { return scheme.FromBool(vm.isFlonum(vm.arg(0))) })
	def("number->string", 1, false, 40, func(vm *Machine, n int) Word {
		w := vm.arg(0)
		if !vm.isNumber(w) {
			vm.errf("number->string: expected a number")
		}
		return vm.newString(vm.numToString(w))
	})
	def("string->number", 1, false, 40, func(vm *Machine, n int) Word {
		s := vm.goString(vm.arg(0), "string->number")
		if v, err := strconv.ParseInt(s, 10, 64); err == nil {
			return vm.checkFixRange(v, "string->number")
		}
		if f, err := strconv.ParseFloat(s, 64); err == nil {
			return vm.flonum(f)
		}
		return scheme.False
	})
	def("bitwise-and", 2, false, 3, func(vm *Machine, n int) Word {
		return scheme.FromFixnum(vm.fixnumArg(vm.arg(0), "bitwise-and") & vm.fixnumArg(vm.arg(1), "bitwise-and"))
	})
	def("bitwise-or", 2, false, 3, func(vm *Machine, n int) Word {
		return scheme.FromFixnum(vm.fixnumArg(vm.arg(0), "bitwise-or") | vm.fixnumArg(vm.arg(1), "bitwise-or"))
	})
	def("bitwise-xor", 2, false, 3, func(vm *Machine, n int) Word {
		return scheme.FromFixnum(vm.fixnumArg(vm.arg(0), "bitwise-xor") ^ vm.fixnumArg(vm.arg(1), "bitwise-xor"))
	})
	def("arithmetic-shift", 2, false, 3, func(vm *Machine, n int) Word {
		v := vm.fixnumArg(vm.arg(0), "arithmetic-shift")
		s := vm.fixnumArg(vm.arg(1), "arithmetic-shift")
		if s >= 0 {
			return vm.checkFixRange(v<<uint(s%61), "arithmetic-shift")
		}
		return scheme.FromFixnum(v >> uint(-s%61))
	})
}

func defPredicates() {
	def("eq?", 2, false, 3, func(vm *Machine, n int) Word { return scheme.FromBool(vm.arg(0) == vm.arg(1)) })
	def("eqv?", 2, false, 4, func(vm *Machine, n int) Word { return scheme.FromBool(vm.eqv(vm.arg(0), vm.arg(1))) })
	def("equal?", 2, false, 8, func(vm *Machine, n int) Word { return scheme.FromBool(vm.equal(vm.arg(0), vm.arg(1))) })
	def("not", 1, false, 2, func(vm *Machine, n int) Word { return scheme.FromBool(vm.arg(0) == scheme.False) })
	def("boolean?", 1, false, 2, func(vm *Machine, n int) Word {
		w := vm.arg(0)
		return scheme.FromBool(w == scheme.True || w == scheme.False)
	})
	def("symbol?", 1, false, 3, func(vm *Machine, n int) Word { return scheme.FromBool(vm.isKind(vm.arg(0), scheme.KindSymbol)) })
	def("string?", 1, false, 3, func(vm *Machine, n int) Word { return scheme.FromBool(vm.isKind(vm.arg(0), scheme.KindString)) })
	def("char?", 1, false, 2, func(vm *Machine, n int) Word { return scheme.FromBool(scheme.IsChar(vm.arg(0))) })
	def("vector?", 1, false, 3, func(vm *Machine, n int) Word { return scheme.FromBool(vm.isKind(vm.arg(0), scheme.KindVector)) })
	def("pair?", 1, false, 3, func(vm *Machine, n int) Word { return scheme.FromBool(vm.isKind(vm.arg(0), scheme.KindPair)) })
	def("null?", 1, false, 2, func(vm *Machine, n int) Word { return scheme.FromBool(vm.arg(0) == scheme.Nil) })
	def("procedure?", 1, false, 3, func(vm *Machine, n int) Word { return scheme.FromBool(vm.isKind(vm.arg(0), scheme.KindClosure)) })
	def("zero?", 1, false, 3, func(vm *Machine, n int) Word {
		return scheme.FromBool(vm.isNumber(vm.arg(0)) && vm.numCompare(vm.arg(0), scheme.FromFixnum(0), "zero?") == 0)
	})
	def("eof-object?", 1, false, 2, func(vm *Machine, n int) Word { return scheme.FromBool(vm.arg(0) == scheme.EOF) })
}

func defLists() {
	def("cons", 2, false, 8, func(vm *Machine, n int) Word { return vm.cons(vm.arg(0), vm.arg(1)) })
	def("car", 1, false, 3, func(vm *Machine, n int) Word { return vm.car(vm.arg(0)) })
	def("cdr", 1, false, 3, func(vm *Machine, n int) Word { return vm.cdr(vm.arg(0)) })
	def("set-car!", 2, false, 4, func(vm *Machine, n int) Word {
		vm.storeSlot(vm.checkKind(vm.arg(0), scheme.KindPair, "set-car!")+1, vm.arg(1))
		return scheme.Unspec
	})
	def("set-cdr!", 2, false, 4, func(vm *Machine, n int) Word {
		vm.storeSlot(vm.checkKind(vm.arg(0), scheme.KindPair, "set-cdr!")+2, vm.arg(1))
		return scheme.Unspec
	})
	def("caar", 1, false, 6, func(vm *Machine, n int) Word { return vm.car(vm.car(vm.arg(0))) })
	def("cadr", 1, false, 6, func(vm *Machine, n int) Word { return vm.car(vm.cdr(vm.arg(0))) })
	def("cdar", 1, false, 6, func(vm *Machine, n int) Word { return vm.cdr(vm.car(vm.arg(0))) })
	def("cddr", 1, false, 6, func(vm *Machine, n int) Word { return vm.cdr(vm.cdr(vm.arg(0))) })
	def("caddr", 1, false, 9, func(vm *Machine, n int) Word { return vm.car(vm.cdr(vm.cdr(vm.arg(0)))) })
	def("cdddr", 1, false, 9, func(vm *Machine, n int) Word { return vm.cdr(vm.cdr(vm.cdr(vm.arg(0)))) })
	def("cadddr", 1, false, 12, func(vm *Machine, n int) Word { return vm.car(vm.cdr(vm.cdr(vm.cdr(vm.arg(0))))) })
	def("list", 0, true, 4, func(vm *Machine, n int) Word {
		out := scheme.Nil
		for i := n - 1; i >= 0; i-- {
			out = vm.cons(vm.arg(i), out)
		}
		vm.charge(uint64(4 * n))
		return out
	})
	def("length", 1, false, 4, func(vm *Machine, n int) Word {
		count := int64(0)
		for w := vm.arg(0); w != scheme.Nil; count++ {
			w = vm.cdr(w)
			vm.charge(3)
		}
		return scheme.FromFixnum(count)
	})
	def("append", 0, true, 6, func(vm *Machine, n int) Word {
		if n == 0 {
			return scheme.Nil
		}
		out := vm.arg(n - 1)
		for i := n - 2; i >= 0; i-- {
			items := vm.scratch[:0]
			for w := vm.arg(i); w != scheme.Nil; w = vm.cdr(w) {
				items = append(items, vm.car(w))
			}
			vm.scratch = items
			for j := len(items) - 1; j >= 0; j-- {
				out = vm.cons(items[j], out)
			}
			vm.charge(uint64(10 * len(items)))
		}
		return out
	})
	def("reverse", 1, false, 5, func(vm *Machine, n int) Word {
		out := scheme.Nil
		for w := vm.arg(0); w != scheme.Nil; w = vm.cdr(w) {
			out = vm.cons(vm.car(w), out)
			vm.charge(8)
		}
		return out
	})
	def("list-tail", 2, false, 4, func(vm *Machine, n int) Word {
		w := vm.arg(0)
		for k := vm.fixnumArg(vm.arg(1), "list-tail"); k > 0; k-- {
			w = vm.cdr(w)
			vm.charge(3)
		}
		return w
	})
	def("list-ref", 2, false, 4, func(vm *Machine, n int) Word {
		w := vm.arg(0)
		for k := vm.fixnumArg(vm.arg(1), "list-ref"); k > 0; k-- {
			w = vm.cdr(w)
			vm.charge(3)
		}
		return vm.car(w)
	})
	def("list?", 1, false, 4, func(vm *Machine, n int) Word {
		w := vm.arg(0)
		for vm.isKind(w, scheme.KindPair) {
			w = vm.cdr(w)
			vm.charge(3)
		}
		return scheme.FromBool(w == scheme.Nil)
	})
	member := func(name string, eq func(vm *Machine, a, b Word) bool) {
		def(name, 2, false, 4, func(vm *Machine, n int) Word {
			x := vm.arg(0)
			for w := vm.arg(1); w != scheme.Nil; w = vm.cdr(w) {
				vm.charge(5)
				if eq(vm, x, vm.car(w)) {
					return w
				}
			}
			return scheme.False
		})
	}
	member("memq", func(vm *Machine, a, b Word) bool { return a == b })
	member("memv", func(vm *Machine, a, b Word) bool { return vm.eqv(a, b) })
	member("member", func(vm *Machine, a, b Word) bool { return vm.equal(a, b) })
	assoc := func(name string, eq func(vm *Machine, a, b Word) bool) {
		def(name, 2, false, 5, func(vm *Machine, n int) Word {
			x := vm.arg(0)
			for w := vm.arg(1); w != scheme.Nil; w = vm.cdr(w) {
				vm.charge(7)
				entry := vm.car(w)
				if vm.isKind(entry, scheme.KindPair) && eq(vm, x, vm.car(entry)) {
					return entry
				}
			}
			return scheme.False
		})
	}
	assoc("assq", func(vm *Machine, a, b Word) bool { return a == b })
	assoc("assv", func(vm *Machine, a, b Word) bool { return vm.eqv(a, b) })
	assoc("assoc", func(vm *Machine, a, b Word) bool { return vm.equal(a, b) })
}

func defVectors() {
	def("make-vector", 1, true, 10, func(vm *Machine, n int) Word {
		size := int(vm.fixnumArg(vm.arg(0), "make-vector"))
		if size < 0 {
			vm.errf("make-vector: negative size")
		}
		fill := Word(scheme.Unspec)
		if n == 2 {
			fill = vm.arg(1)
		}
		vm.charge(uint64(2 * size))
		return vm.makeVector(size, fill)
	})
	def("vector", 0, true, 8, func(vm *Machine, n int) Word {
		v := vm.makeVector(n, scheme.Unspec)
		addr := scheme.PtrAddr(v)
		for i := 0; i < n; i++ {
			vm.Mem.Store(addr+1+uint64(i), vm.arg(i))
		}
		vm.charge(uint64(3 * n))
		return v
	})
	def("vector-ref", 2, false, 5, func(vm *Machine, n int) Word {
		return vm.vectorRef(vm.arg(0), vm.fixArg(vm.arg(1), "vector-ref"), "vector-ref")
	})
	def("vector-set!", 3, false, 5, func(vm *Machine, n int) Word {
		vm.vectorSet(vm.arg(0), vm.fixArg(vm.arg(1), "vector-set!"), vm.arg(2), "vector-set!")
		return scheme.Unspec
	})
	def("vector-length", 1, false, 3, func(vm *Machine, n int) Word {
		return scheme.FromFixnum(int64(vm.vectorLen(vm.arg(0))))
	})
	def("vector-fill!", 2, false, 4, func(vm *Machine, n int) Word {
		v := vm.arg(0)
		size := vm.vectorLen(v)
		addr := scheme.PtrAddr(v)
		for i := 0; i < size; i++ {
			vm.storeSlot(addr+1+uint64(i), vm.arg(1))
		}
		vm.charge(uint64(2 * size))
		return scheme.Unspec
	})
	def("vector->list", 1, false, 6, func(vm *Machine, n int) Word {
		v := vm.arg(0)
		size := vm.vectorLen(v)
		out := scheme.Nil
		for i := size - 1; i >= 0; i-- {
			out = vm.cons(vm.vectorRef(v, i, "vector->list"), out)
		}
		vm.charge(uint64(10 * size))
		return out
	})
	def("list->vector", 1, false, 6, func(vm *Machine, n int) Word {
		items := vm.scratch[:0]
		for w := vm.arg(0); w != scheme.Nil; w = vm.cdr(w) {
			items = append(items, vm.car(w))
		}
		vm.scratch = items
		v := vm.makeVector(len(items), scheme.Unspec)
		addr := scheme.PtrAddr(v)
		for i, w := range items {
			vm.Mem.Store(addr+1+uint64(i), w)
		}
		vm.charge(uint64(8 * len(items)))
		return v
	})
}

func defStrings() {
	def("string-length", 1, false, 3, func(vm *Machine, n int) Word {
		return scheme.FromFixnum(int64(vm.stringLen(vm.arg(0), "string-length")))
	})
	def("string-ref", 2, false, 5, func(vm *Machine, n int) Word {
		i := vm.fixArg(vm.arg(1), "string-ref")
		return scheme.FromChar(rune(vm.stringByte(vm.arg(0), i, "string-ref")))
	})
	def("string-append", 0, true, 12, func(vm *Machine, n int) Word {
		var b strings.Builder
		for i := 0; i < n; i++ {
			b.WriteString(vm.goString(vm.arg(i), "string-append"))
		}
		vm.charge(uint64(2 * b.Len()))
		return vm.newString(b.String())
	})
	def("substring", 3, false, 10, func(vm *Machine, n int) Word {
		s := vm.goString(vm.arg(0), "substring")
		from := vm.fixArg(vm.arg(1), "substring")
		to := vm.fixArg(vm.arg(2), "substring")
		if from < 0 || to > len(s) || from > to {
			vm.errf("substring: bad range [%d,%d) for length %d", from, to, len(s))
		}
		return vm.newString(s[from:to])
	})
	def("string=?", 2, false, 8, func(vm *Machine, n int) Word {
		return scheme.FromBool(vm.goString(vm.arg(0), "string=?") == vm.goString(vm.arg(1), "string=?"))
	})
	def("string<?", 2, false, 8, func(vm *Machine, n int) Word {
		return scheme.FromBool(vm.goString(vm.arg(0), "string<?") < vm.goString(vm.arg(1), "string<?"))
	})
	def("string->symbol", 1, false, 30, func(vm *Machine, n int) Word {
		return vm.Intern(vm.goString(vm.arg(0), "string->symbol"))
	})
	def("symbol->string", 1, false, 6, func(vm *Machine, n int) Word {
		addr := vm.checkKind(vm.arg(0), scheme.KindSymbol, "symbol->string")
		return vm.Mem.Load(addr + 1)
	})
	def("string->list", 1, false, 8, func(vm *Machine, n int) Word {
		s := vm.goString(vm.arg(0), "string->list")
		out := scheme.Nil
		for i := len(s) - 1; i >= 0; i-- {
			out = vm.cons(scheme.FromChar(rune(s[i])), out)
		}
		vm.charge(uint64(8 * len(s)))
		return out
	})
	def("list->string", 1, false, 8, func(vm *Machine, n int) Word {
		var b strings.Builder
		for w := vm.arg(0); w != scheme.Nil; w = vm.cdr(w) {
			ch := vm.car(w)
			if !scheme.IsChar(ch) {
				vm.errf("list->string: expected a character")
			}
			b.WriteRune(scheme.CharValue(ch))
		}
		return vm.newString(b.String())
	})
	def("string-copy", 1, false, 8, func(vm *Machine, n int) Word {
		return vm.newString(vm.goString(vm.arg(0), "string-copy"))
	})
}

func defChars() {
	def("char->integer", 1, false, 2, func(vm *Machine, n int) Word {
		if !scheme.IsChar(vm.arg(0)) {
			vm.errf("char->integer: expected a character")
		}
		return scheme.FromFixnum(int64(scheme.CharValue(vm.arg(0))))
	})
	def("integer->char", 1, false, 2, func(vm *Machine, n int) Word {
		return scheme.FromChar(rune(vm.fixnumArg(vm.arg(0), "integer->char")))
	})
	charCmp := func(name string, ok func(a, b rune) bool) {
		def(name, 2, false, 3, func(vm *Machine, n int) Word {
			a, b := vm.arg(0), vm.arg(1)
			if !scheme.IsChar(a) || !scheme.IsChar(b) {
				vm.errf("%s: expected characters", name)
			}
			return scheme.FromBool(ok(scheme.CharValue(a), scheme.CharValue(b)))
		})
	}
	charCmp("char=?", func(a, b rune) bool { return a == b })
	charCmp("char<?", func(a, b rune) bool { return a < b })
	def("char-alphabetic?", 1, false, 3, func(vm *Machine, n int) Word {
		c := scheme.CharValue(vm.arg(0))
		return scheme.FromBool(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z')
	})
	def("char-numeric?", 1, false, 3, func(vm *Machine, n int) Word {
		c := scheme.CharValue(vm.arg(0))
		return scheme.FromBool(c >= '0' && c <= '9')
	})
	def("char-whitespace?", 1, false, 3, func(vm *Machine, n int) Word {
		c := scheme.CharValue(vm.arg(0))
		return scheme.FromBool(c == ' ' || c == '\t' || c == '\n' || c == '\r')
	})
	def("char-upcase", 1, false, 3, func(vm *Machine, n int) Word {
		c := scheme.CharValue(vm.arg(0))
		if c >= 'a' && c <= 'z' {
			c -= 32
		}
		return scheme.FromChar(c)
	})
	def("char-downcase", 1, false, 3, func(vm *Machine, n int) Word {
		c := scheme.CharValue(vm.arg(0))
		if c >= 'A' && c <= 'Z' {
			c += 32
		}
		return scheme.FromChar(c)
	})
}

func defIO() {
	def("display", 1, false, 30, func(vm *Machine, n int) Word {
		vm.out.WriteString(vm.WriteValue(vm.arg(0), true))
		return scheme.Unspec
	})
	def("write", 1, false, 30, func(vm *Machine, n int) Word {
		vm.out.WriteString(vm.WriteValue(vm.arg(0), false))
		return scheme.Unspec
	})
	def("newline", 0, false, 5, func(vm *Machine, n int) Word {
		vm.out.WriteByte('\n')
		return scheme.Unspec
	})
	def("error", 1, true, 10, func(vm *Machine, n int) Word {
		var b strings.Builder
		for i := 0; i < n; i++ {
			if i > 0 {
				b.WriteByte(' ')
			}
			w := vm.arg(i)
			if vm.isKind(w, scheme.KindString) {
				b.WriteString(vm.peekString(scheme.PtrAddr(w)))
			} else {
				b.WriteString(vm.DescribeValue(w))
			}
		}
		panic(&Error{Msg: b.String()})
	})
}

func defMisc() {
	// gensym returns an uninterned symbol allocated in the dynamic heap,
	// as in the T system: it is eq? only to itself, it is collectable
	// when dropped, and it never grows the static area or the intern
	// table. An optional string argument sets the name prefix.
	def("gensym", 0, true, 30, func(vm *Machine, n int) Word {
		vm.gensymCount++
		prefix := "%g"
		if n == 1 {
			prefix = vm.goString(vm.arg(0), "gensym")
		}
		name := vm.newString(prefix + strconv.FormatInt(vm.gensymCount, 10))
		h := int64(hashString(prefix)+uint64(vm.gensymCount)) & (1<<60 - 1)
		addr := vm.alloc(scheme.KindSymbol, 2)
		vm.Mem.Store(addr+1, name)
		vm.Mem.Store(addr+2, scheme.FromFixnum(h))
		return scheme.FromPtr(addr)
	})
	def("random", 1, false, 10, func(vm *Machine, n int) Word {
		limit := vm.fixnumArg(vm.arg(0), "random")
		if limit <= 0 {
			vm.errf("random: expected a positive bound")
		}
		vm.rngState = vm.rngState*6364136223846793005 + 1442695040888963407
		return scheme.FromFixnum(int64((vm.rngState >> 33) % uint64(limit)))
	})
	def("random-seed!", 1, false, 4, func(vm *Machine, n int) Word {
		vm.rngState = uint64(vm.fixnumArg(vm.arg(0), "random-seed!"))*2862933555777941757 + 1
		return scheme.Unspec
	})
	def("void", 0, true, 1, func(vm *Machine, n int) Word { return scheme.Unspec })
	def("runtime-collections", 0, false, 3, func(vm *Machine, n int) Word {
		return scheme.FromFixnum(int64(vm.Col.Stats().Collections))
	})
}
