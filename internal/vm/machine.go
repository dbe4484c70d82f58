package vm

import (
	"bytes"
	"fmt"
	"math"
	"sync/atomic"

	"gcsim/internal/gc"
	"gcsim/internal/mem"
	"gcsim/internal/scheme"
)

// Word re-exports the tagged value type for brevity.
type Word = scheme.Word

// Machine is a complete Scheme system: memory, collector, compiled code,
// interned symbols, global environment, and the interpreter registers.
type Machine struct {
	Mem *mem.Memory
	Col gc.Collector

	codes []*Code

	// Interpreter registers. acc and clos are roots.
	acc  Word
	clos Word
	sp   uint64 // next free stack slot
	base uint64 // current frame base (address of argument 0)

	insns   uint64 // program instructions (cost-weighted)
	gcInsns uint64 // collector instructions

	symbols     map[string]uint64 // name -> static symbol address
	symbolNames map[uint64]string // reverse map for printing
	globals     map[string]uint64 // name -> static cell address
	globalOrder []string          // definition order, for reports

	out bytes.Buffer // display/write output

	gensymCount int64
	rngState    uint64

	barrierCost uint64 // mutator cost per pointer store (generational)

	// MaxInsns aborts a run that exceeds this instruction count (0 means
	// unlimited); it guards tests against runaway programs. The budget is
	// enforced at safepoints (calls, applies) and taken backward jumps, not
	// per instruction, so a run may overshoot by at most one basic block.
	MaxInsns uint64

	// NoFuse disables superinstruction fusion for code finalized after it
	// is set. Fusion is semantics- and trace-neutral, so this exists only
	// for the differential tests that prove it: set it before the code in
	// question first runs (codes are packed on first entry).
	NoFuse bool

	// VerifyHeap runs the gc.Verify invariant checker after every
	// collection; a violation aborts the run with an error wrapping
	// gc.ErrHeapCorrupt.
	VerifyHeap bool

	// interrupt, when set, stops the run at the next call safepoint with
	// ErrInterrupted. It is the only Machine field safe to touch from
	// another goroutine.
	interrupt atomic.Bool

	// gcEnv is the environment handed to the collector at Attach time,
	// retained so the heap verifier can reuse the same root callbacks.
	gcEnv gc.Env

	// OnAlloc, if set, observes every dynamic object allocation (header
	// address and total words). The behaviour analyzer uses it to detect
	// allocation misses and allocation cycles.
	OnAlloc func(addr uint64, words int)

	// OnGC, if set, observes every collection performed at a safepoint.
	// The event is assembled from the collector's Stats deltas, so it
	// costs nothing when unset and only a struct copy per collection when
	// set — telemetry never touches the per-reference path.
	OnGC func(gc.Event)

	// scratch holds the list items of the append and list->vector
	// builtins, so neither allocates a Go slice per call. Neither builtin
	// re-enters Scheme and alloc never collects, so one call's items are
	// dead before another call reuses the slice.
	scratch []Word

	halted bool
}

// New creates a machine with the given tracer and collector. A nil
// collector means linear allocation with the collector disabled (the
// paper's control configuration).
func New(tracer mem.Tracer, col gc.Collector) *Machine {
	if col == nil {
		col = gc.NewNoGC()
	}
	vm := &Machine{
		Mem:         mem.New(tracer),
		Col:         col,
		sp:          mem.StackBase,
		base:        mem.StackBase,
		symbols:     make(map[string]uint64),
		symbolNames: make(map[uint64]string),
		globals:     make(map[string]uint64),
		rngState:    0x9E3779B97F4A7C15,
		clos:        scheme.Undef,
		acc:         scheme.Unspec,
	}
	vm.gcEnv = gc.Env{
		Mem: vm.Mem,
		RegisterRoots: func(visit func(*Word)) {
			visit(&vm.acc)
			visit(&vm.clos)
		},
		StackTop:    func() uint64 { return vm.sp },
		StaticEnd:   func() uint64 { return vm.Mem.StaticNext() },
		ChargeInsns: func(n uint64) { vm.gcInsns += n },
	}
	col.Attach(vm.gcEnv)
	if _, ok := col.(*gc.Generational); ok {
		vm.barrierCost = gc.BarrierCost
	}
	vm.installBuiltins()
	return vm
}

// Insns returns the cost-weighted program instruction count (I_prog).
func (vm *Machine) Insns() uint64 { return vm.insns }

// GCInsns returns the collector instruction count (I_gc).
func (vm *Machine) GCInsns() uint64 { return vm.gcInsns }

// Output returns everything the program has displayed or written.
func (vm *Machine) Output() string { return vm.out.String() }

// ResetOutput clears the captured output.
func (vm *Machine) ResetOutput() { vm.out.Reset() }

// charge adds n program instructions.
func (vm *Machine) charge(n uint64) { vm.insns += n }

// Interrupt requests that the run stop at the next call safepoint with
// ErrInterrupted. It is safe to call from any goroutine (e.g. a
// context.AfterFunc or signal handler) while the machine is running.
func (vm *Machine) Interrupt() { vm.interrupt.Store(true) }

// ClearInterrupt resets a pending interrupt so the machine can run again.
func (vm *Machine) ClearInterrupt() { vm.interrupt.Store(false) }

// collect runs one collection at a safepoint, emitting a gc.Event to the
// OnGC hook when one is installed. The event's work figures are the deltas
// of the collector's Stats across the Collect call; the pause is the I_gc
// it charged.
func (vm *Machine) collect() {
	if vm.VerifyHeap {
		defer func() {
			if err := gc.Verify(vm.Col, vm.gcEnv); err != nil {
				panic(&Error{Msg: "post-collection heap verification failed", Cause: err})
			}
		}()
	}
	if vm.OnGC == nil {
		vm.Col.Collect()
		return
	}
	st := vm.Col.Stats()
	before := *st
	trigger := vm.Col.HeapWords()
	insnsAt := vm.insns
	gcInsns0 := vm.gcInsns
	vm.Col.Collect()
	vm.OnGC(gc.Event{
		Seq:              st.Collections,
		Major:            st.MajorCollections > before.MajorCollections,
		TriggerHeapWords: trigger,
		LiveWords:        st.LiveAfterLast,
		CopiedWords:      st.CopiedWords - before.CopiedWords,
		CopiedObjects:    st.CopiedObjects - before.CopiedObjects,
		ScannedSlots:     st.ScannedSlots - before.ScannedSlots,
		PauseInsns:       vm.gcInsns - gcInsns0,
		InsnsAt:          insnsAt,
	})
}

// alloc allocates a dynamic object (header plus payload), writes its
// header, and returns the header address. It never collects; collections
// happen at interpreter safepoints.
func (vm *Machine) alloc(kind scheme.Kind, payloadWords int) uint64 {
	total := payloadWords + 1
	addr := vm.Col.Alloc(total)
	vm.Mem.C.AllocWords += uint64(total)
	vm.Mem.C.AllocObjects++
	if hw := vm.Col.HeapWords(); hw > vm.Mem.C.AllocBytesHighWater/mem.WordBytes {
		vm.Mem.C.AllocBytesHighWater = hw * mem.WordBytes
	}
	if vm.OnAlloc != nil {
		vm.OnAlloc(addr, total)
	}
	vm.Mem.Store(addr, scheme.MakeHeader(kind, payloadWords))
	return addr
}

// allocStaticObject lays out an object in the static area (program image:
// symbols, quoted constants, global cells). Static stores are untraced —
// they happen while the image is built, before the measured run.
func (vm *Machine) allocStaticObject(kind scheme.Kind, payload []Word) uint64 {
	addr := vm.Mem.AllocStatic(len(payload) + 1)
	vm.Mem.Poke(addr, scheme.MakeHeader(kind, len(payload)))
	for i, w := range payload {
		vm.Mem.Poke(addr+1+uint64(i), w)
	}
	return addr
}

// storeSlot performs a program store into an object slot, applying the
// generational write barrier.
func (vm *Machine) storeSlot(addr uint64, w Word) {
	vm.Mem.Store(addr, w)
	if vm.barrierCost != 0 {
		vm.charge(vm.barrierCost)
		vm.Col.WriteBarrier(addr, w)
	}
}

// push pushes a word on the stack.
func (vm *Machine) push(w Word) {
	if vm.sp >= mem.StackLimit {
		panic(ErrStackOverflow)
	}
	vm.Mem.StoreStack(vm.sp, w)
	vm.sp++
}

// Intern returns the static symbol object for name, creating it on first
// use. Symbol payloads are [name-string-pointer, hash]; both the symbol
// and its name string are static, so symbols never move and eq? on symbols
// is stable across collections.
func (vm *Machine) Intern(name string) Word {
	if addr, ok := vm.symbols[name]; ok {
		return scheme.FromPtr(addr)
	}
	str := vm.staticString(name)
	h := int64(hashString(name) & (1<<60 - 1))
	addr := vm.allocStaticObject(scheme.KindSymbol, []Word{str, scheme.FromFixnum(h)})
	vm.symbols[name] = addr
	vm.symbolNames[addr] = name
	return scheme.FromPtr(addr)
}

// SymbolName returns the name of an interned symbol, or "" if w is not one.
func (vm *Machine) SymbolName(w Word) string {
	if !scheme.IsPtr(w) {
		return ""
	}
	return vm.symbolNames[scheme.PtrAddr(w)]
}

// staticString lays out a string object in static memory.
func (vm *Machine) staticString(s string) Word {
	return scheme.FromPtr(vm.allocStaticObject(scheme.KindString, stringPayload(s)))
}

// stringPayload packs a Go string into the string-object payload layout:
// a byte-length fixnum followed by the bytes packed eight per word.
func stringPayload(s string) []Word {
	words := make([]Word, 1+(len(s)+7)/8)
	words[0] = scheme.FromFixnum(int64(len(s)))
	for i := 0; i < len(s); i++ {
		words[1+i/8] |= Word(s[i]) << (8 * (i % 8))
	}
	return words
}

// globalCell returns the static cell address for a global variable,
// creating an unbound cell on first reference.
func (vm *Machine) globalCell(name string) uint64 {
	if addr, ok := vm.globals[name]; ok {
		return addr
	}
	addr := vm.allocStaticObject(scheme.KindCell, []Word{scheme.Undef})
	vm.globals[name] = addr
	vm.globalOrder = append(vm.globalOrder, name)
	return addr
}

// DefineGlobal binds a global variable to a value, as top-level define
// does.
func (vm *Machine) DefineGlobal(name string, w Word) {
	vm.Mem.Poke(vm.globalCell(name)+1, w)
}

// GlobalRef returns the value of a global variable for inspection by tests
// and tools (untraced).
func (vm *Machine) GlobalRef(name string) (Word, bool) {
	addr, ok := vm.globals[name]
	if !ok {
		return scheme.Undef, false
	}
	w := vm.Mem.Peek(addr + 1)
	return w, w != scheme.Undef
}

// hashString is FNV-1a, used for symbol hash codes.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Error is a Scheme runtime error. Cause, when set, carries an underlying
// error (e.g. a gc.VerifyError) reachable through errors.Is/As.
type Error struct {
	Msg   string
	Cause error
}

func (e *Error) Error() string {
	if e.Cause != nil {
		return "scheme: " + e.Msg + ": " + e.Cause.Error()
	}
	return "scheme: " + e.Msg
}

func (e *Error) Unwrap() error { return e.Cause }

// errf raises a Scheme error by panicking; Run recovers it.
func (vm *Machine) errf(format string, args ...any) {
	panic(&Error{Msg: fmt.Sprintf(format, args...)})
}

// flonum boxes a float in the dynamic area.
func (vm *Machine) flonum(f float64) Word {
	addr := vm.alloc(scheme.KindFlonum, 1)
	vm.Mem.Store(addr+1, Word(math.Float64bits(f)))
	return scheme.FromPtr(addr)
}

// kindOf returns the object kind of a pointer word, checked host-side
// (models tag-in-pointer type checks, which touch no memory).
func (vm *Machine) kindOf(w Word) (scheme.Kind, bool) {
	if !scheme.IsPtr(w) {
		return 0, false
	}
	h := vm.Mem.Peek(scheme.PtrAddr(w))
	if !scheme.IsHeader(h) {
		return 0, false
	}
	return scheme.HeaderKind(h), true
}

// isKind reports whether w points to an object of kind k.
func (vm *Machine) isKind(w Word, k scheme.Kind) bool {
	got, ok := vm.kindOf(w)
	return ok && got == k
}

// checkKind panics with a type error unless w is an object of kind k.
func (vm *Machine) checkKind(w Word, k scheme.Kind, who string) uint64 {
	if !vm.isKind(w, k) {
		vm.errf("%s: expected %s, got %s", who, k, vm.DescribeValue(w))
	}
	return scheme.PtrAddr(w)
}
