// Package mem implements the simulated word-addressed memory in which all
// Scheme data lives: a static area (symbols, quoted constants, global cells),
// a contiguous procedure-call/value stack, and a dynamic area managed by a
// garbage collector (or by nothing at all, for the paper's control
// experiment).
//
// Every Load and Store is a data reference in the sense of the paper: it is
// counted, and optionally forwarded to a Tracer (typically a cache-simulator
// bank and/or a behaviour analyzer). Addresses are *word* addresses; one
// word is eight bytes. The three regions are placed at widely separated
// bases so that an address identifies its region, exactly as a
// virtually-indexed cache would see distinct parts of one address space.
package mem

import (
	"fmt"

	"gcsim/internal/scheme"
)

// Region bases and limits, in words. The stack sits low, the static area in
// the middle, and the dynamic area on top with effectively unbounded room to
// grow upward (the control experiment never reuses dynamic memory).
//
// The static and dynamic bases are staggered by odd block offsets so the
// busiest blocks of each region — the stack bottom, the global cells, and
// the long-lived closures created by top-level definitions at the start of
// the dynamic area — do not all map to the same cache blocks in every
// power-of-two direct-mapped cache. Real systems lay their areas out this
// way (deliberately or by accident of linking); with perfectly congruent
// bases every program would exhibit the paper's thrashing worst case by
// construction rather than by chance.
const (
	StackBase  uint64 = 1 << 16        // byte address 512 KiB
	StackLimit uint64 = 1 << 21        // 2 Mi words = 16 MiB of stack
	StaticBase uint64 = 1<<24 + 0x2a00 // byte address 128 MiB + 84 KiB
	DynBase    uint64 = 1<<28 + 0x1540 // byte address 2 GiB + 43.5 KiB
)

// WordBytes is the size of one simulated word in bytes.
const WordBytes = 8

// Region classifies an address.
type Region uint8

// The three address-space regions.
const (
	RegionStack Region = iota
	RegionStatic
	RegionDynamic
)

func (r Region) String() string {
	switch r {
	case RegionStack:
		return "stack"
	case RegionStatic:
		return "static"
	default:
		return "dynamic"
	}
}

// RegionOf classifies a word address.
func RegionOf(addr uint64) Region {
	switch {
	case addr >= DynBase:
		return RegionDynamic
	case addr >= StaticBase:
		return RegionStatic
	default:
		return RegionStack
	}
}

// A Tracer observes every simulated data reference. Collector references
// (made while the garbage collector runs) are flagged so that observers can
// keep the paper's M_gc / M_prog split and apply the collector's
// fetch-on-write policy.
type Tracer interface {
	// Ref observes one word-sized data reference at word address addr.
	Ref(addr uint64, write, collector bool)
}

// A Ref packs one data reference — word address plus write and collector
// flags — into a single machine word, so a reference stream can be staged
// in a flat buffer and handed to observers a chunk at a time instead of
// one interface call per word.
type Ref uint64

// Flag bits of a packed Ref. Word addresses occupy the low 62 bits, far
// beyond any address the simulated regions can reach.
const (
	RefWrite     Ref = 1 << 63
	RefCollector Ref = 1 << 62
	refAddrMask  Ref = RefCollector - 1
)

// MakeRef packs a reference.
func MakeRef(addr uint64, write, collector bool) Ref {
	r := Ref(addr)
	if write {
		r |= RefWrite
	}
	if collector {
		r |= RefCollector
	}
	return r
}

// Addr unpacks the word address.
func (r Ref) Addr() uint64 { return uint64(r & refAddrMask) }

// Flags returns the reference's flags in the compact byte layout trace
// codecs serialize: bit 0 = write, bit 1 = collector.
func (r Ref) Flags() uint8 {
	return uint8(r>>63) | uint8(r>>61)&2
}

// MakeRefFlags packs a reference from an address and the compact flag
// byte layout of Flags. It is the codec-side counterpart of MakeRef,
// avoiding two flag branches per decoded reference.
func MakeRefFlags(addr uint64, flags uint8) Ref {
	return Ref(addr)&refAddrMask | Ref(flags&1)<<63 | Ref(flags&2)<<61
}

// Write reports whether the reference is a store.
func (r Ref) Write() bool { return r&RefWrite != 0 }

// Collector reports whether the reference was made in collector mode.
func (r Ref) Collector() bool { return r&RefCollector != 0 }

// A BatchTracer observes references a chunk at a time. The chunk is owned
// by the caller and may be reused as soon as RefBatch returns; a tracer
// that needs the refs later must copy them. Within one chunk, refs are in
// program order, and successive chunks are contiguous pieces of one
// stream, so a BatchTracer sees exactly the stream a Tracer would.
type BatchTracer interface {
	RefBatch(refs []Ref)
}

// ChunkRefs is the size of the Memory's staging buffer, in references.
// 4096 refs is 32 KiB — large enough to amortize the per-chunk dispatch
// and channel traffic down to noise, small enough that a chunk stays
// resident in L1/L2 while each cache of a bank replays it.
const ChunkRefs = 4096

// TracerFunc adapts a function to the Tracer interface.
type TracerFunc func(addr uint64, write, collector bool)

// Ref implements Tracer.
func (f TracerFunc) Ref(addr uint64, write, collector bool) { f(addr, write, collector) }

// Counters aggregates the raw reference and allocation counts for a run,
// split between the program and the collector as in the paper's Section 6.
type Counters struct {
	Loads, Stores       uint64 // program data references
	GCLoads, GCStores   uint64 // collector data references
	AllocWords          uint64 // dynamic words allocated by the program
	AllocObjects        uint64 // dynamic objects allocated by the program
	StaticWords         uint64 // words allocated in the static area
	Collections         uint64 // collector invocations
	PromotedWords       uint64 // words copied/promoted by collectors
	BarrierHits         uint64 // write-barrier remembered-set insertions
	AllocBytesHighWater uint64 // peak dynamic bytes in use
}

// Refs returns the total number of program data references.
func (c *Counters) Refs() uint64 { return c.Loads + c.Stores }

// GCRefs returns the total number of collector data references.
func (c *Counters) GCRefs() uint64 { return c.GCLoads + c.GCStores }

// The dynamic area is paged: collectors place their spaces at widely
// separated bases (so a space can overshoot its soft limit without
// colliding with a neighbour), and a two-level table keeps the sparse span
// cheap. One page is 64 Ki words (512 KiB).
const (
	pageShift = 16
	pageWords = 1 << pageShift
	pageMask  = pageWords - 1
)

// Memory is the simulated address space.
type Memory struct {
	stack  []scheme.Word   // indexed by addr-StackBase
	static []scheme.Word   // indexed by addr-StaticBase, grows
	dyn    [][]scheme.Word // page table indexed by (addr-DynBase)>>pageShift

	staticNext uint64 // next free static word address
	dynWords   uint64 // words of dynamic backing store allocated
	tracer     Tracer
	batch      BatchTracer // non-nil when the tracer is batch-capable
	chunk      []Ref       // staging buffer, len ChunkRefs when batching
	pos        int         // next free chunk slot; stageSentinel when not batching
	collector  bool        // true while a garbage collector is running

	// Mode-dependent hot-path state, maintained by SetCollectorMode so the
	// per-reference path is branch-free with respect to collector mode: the
	// counter pointers select C.Loads/C.Stores or C.GCLoads/C.GCStores, and
	// mode is the Ref flag bit (RefCollector or 0) OR-ed into every staged
	// reference.
	loadCtr  *uint64
	storeCtr *uint64
	mode     Ref

	C Counters
}

// New creates an empty memory with an optional tracer (nil for untraced
// runs, e.g. unit tests of the VM's semantics).
func New(tracer Tracer) *Memory {
	m := &Memory{
		stack:      make([]scheme.Word, StackLimit-StackBase),
		staticNext: StaticBase,
	}
	m.loadCtr, m.storeCtr = &m.C.Loads, &m.C.Stores
	m.SetTracer(tracer)
	return m
}

// SetTracer replaces the tracer; a nil tracer disables reference
// observation but not counting. Any staged references are flushed to the
// old tracer first. A tracer that implements BatchTracer receives the
// stream in chunks of up to ChunkRefs references (see FlushTrace); a
// plain Tracer receives one synchronous Ref call per reference, exactly
// as before the batch pipeline existed.
func (m *Memory) SetTracer(t Tracer) {
	m.FlushTrace()
	m.tracer = t
	if bt, ok := t.(BatchTracer); ok && t != nil {
		m.batch = bt
		if m.chunk == nil {
			m.chunk = make([]Ref, ChunkRefs)
		}
		m.pos = 0
	} else {
		m.batch = nil
		m.pos = stageSentinel
	}
}

// stageSentinel parks pos beyond every fast-path slot when no batch tracer
// is installed, steering all references through refSlow's per-reference
// counting-and-forwarding path without a second branch in the accessors.
const stageSentinel = ChunkRefs

// FlushTrace delivers any staged references to the batch tracer. The VM
// calls it at the end of every top-level run and before allocation
// events; observers that read tracer state or the reference counters
// mid-run (rather than at a run boundary) must flush first.
func (m *Memory) FlushTrace() {
	if m.batch != nil && m.pos > 0 {
		refs := m.chunk[:m.pos]
		m.pos = 0
		m.countRefs(refs)
		m.batch.RefBatch(refs)
	}
}

// countRefs folds a sealed chunk into the reference counters. On the batch
// path counting happens here, once per chunk, rather than once per
// reference in Load/Store: the flag bits of each staged Ref identify the
// counter it belongs to, so the totals are identical — they just become
// visible at flush boundaries, which is when the contract lets callers
// read them.
func (m *Memory) countRefs(refs []Ref) {
	// Three independent accumulators keep the loop branch-free and free of
	// memory-carried dependencies; the four counter deltas are linear
	// combinations of (total, writes, collector, collector-writes).
	var wr, col, colwr uint64
	for _, r := range refs {
		w := uint64(r) >> 63
		c := uint64(r) >> 62 & 1
		wr += w
		col += c
		colwr += w & c
	}
	n := uint64(len(refs))
	m.C.Loads += n - wr - col + colwr
	m.C.Stores += wr - colwr
	m.C.GCLoads += col - colwr
	m.C.GCStores += colwr
}

// Tracer returns the current tracer.
func (m *Memory) Tracer() Tracer { return m.tracer }

// SetCollectorMode flags subsequent references as collector references.
func (m *Memory) SetCollectorMode(on bool) {
	m.collector = on
	if on {
		m.loadCtr, m.storeCtr, m.mode = &m.C.GCLoads, &m.C.GCStores, RefCollector
	} else {
		m.loadCtr, m.storeCtr, m.mode = &m.C.Loads, &m.C.Stores, 0
	}
}

// CollectorMode reports whether collector mode is active.
func (m *Memory) CollectorMode() bool { return m.collector }

// Load reads the word at addr, counting and tracing the reference.
//
// None of the accessors fits Go's inlining budget, so each is one real
// call, and on its common path it makes no other: the staging case — a
// slot is free — is three or four instructions, and a heap address is
// looked up in the inlined dynPage. Everything else lives behind one
// call: sealing a full chunk, and unbatched counting and forwarding,
// behind refSlow; other addresses, and the region checks and panics,
// behind load and store. The reference that fills a chunk is stored and
// the chunk delivered inside that reference's own accessor call, so a
// chunk boundary and the instruction clock read at it fall on the same
// reference whichever accessor made it.
func (m *Memory) Load(addr uint64) scheme.Word {
	if p := m.pos; p < ChunkRefs-1 {
		m.chunk[p] = Ref(addr) | m.mode
		m.pos = p + 1
	} else {
		m.refSlow(Ref(addr) | m.mode)
	}
	if pg, i := m.dynPage(addr); pg != nil {
		return pg[i]
	}
	return m.load(addr)
}

// Store writes the word at addr, counting and tracing the reference.
func (m *Memory) Store(addr uint64, w scheme.Word) {
	if p := m.pos; p < ChunkRefs-1 {
		m.chunk[p] = Ref(addr) | RefWrite | m.mode
		m.pos = p + 1
	} else {
		m.refSlow(Ref(addr) | RefWrite | m.mode)
	}
	if pg, i := m.dynPage(addr); pg != nil {
		pg[i] = w
		return
	}
	m.store(addr, w)
}

// LoadStack reads a word the caller knows lies in the stack region,
// counting and tracing exactly like Load but skipping the region dispatch.
// It is the interpreter's fast path for frame and argument traffic, which
// dominates the reference stream (the paper's Section 4 stack locality).
// Addresses outside the stack slice fault via the slice bounds check.
func (m *Memory) LoadStack(addr uint64) scheme.Word {
	if p := m.pos; p < ChunkRefs-1 {
		m.chunk[p] = Ref(addr) | m.mode
		m.pos = p + 1
	} else {
		m.refSlow(Ref(addr) | m.mode)
	}
	return m.stack[addr-StackBase]
}

// StoreStack writes a word the caller knows lies in the stack region; the
// store-side counterpart of LoadStack.
func (m *Memory) StoreStack(addr uint64, w scheme.Word) {
	if p := m.pos; p < ChunkRefs-1 {
		m.chunk[p] = Ref(addr) | RefWrite | m.mode
		m.pos = p + 1
	} else {
		m.refSlow(Ref(addr) | RefWrite | m.mode)
	}
	m.stack[addr-StackBase] = w
}

// StoreStack4 writes four consecutive stack words starting at addr — the
// shape of the interpreter's call-frame push, which the paper's reference
// streams are full of. When four staging slots are free short of the seal
// point it stages all four references and performs all four stores under a
// single bounds check each; otherwise it falls back to four ordinary
// StoreStack calls, so a sealing reference still flushes inside its own
// accessor call and the reference stream is identical either way.
func (m *Memory) StoreStack4(addr uint64, w0, w1, w2, w3 scheme.Word) {
	if p := m.pos; p < ChunkRefs-4 {
		r := Ref(addr) | RefWrite | m.mode
		c := m.chunk[p : p+4 : p+4]
		c[0] = r
		c[1] = r + 1
		c[2] = r + 2
		c[3] = r + 3
		m.pos = p + 4
		s := m.stack[addr-StackBase:][:4]
		s[0], s[1], s[2], s[3] = w0, w1, w2, w3
		return
	}
	m.StoreStack(addr, w0)
	m.StoreStack(addr+1, w1)
	m.StoreStack(addr+2, w2)
	m.StoreStack(addr+3, w3)
}

// refSlow handles the two uncommon staging outcomes: r seals a full chunk
// (stored as its last reference, then the whole chunk is counted and
// delivered — within r's own accessor call, like every sealing reference
// before it), or no batch tracer is installed and the reference is counted
// and forwarded one at a time. The Ref flag bits carry everything the
// unbatched path needs.
//
//go:noinline
func (m *Memory) refSlow(r Ref) {
	if m.batch != nil {
		m.chunk[ChunkRefs-1] = r
		m.pos = ChunkRefs
		m.FlushTrace()
		return
	}
	if r&RefWrite != 0 {
		*m.storeCtr++
	} else {
		*m.loadCtr++
	}
	if m.tracer != nil {
		m.tracer.Ref(uint64(r&refAddrMask), r&RefWrite != 0, r&RefCollector != 0)
	}
}

// Peek reads a word without counting a reference. It is for inspection by
// tests, printers, and analysis code — never for simulated execution.
func (m *Memory) Peek(addr uint64) scheme.Word { return m.load(addr) }

// Poke writes a word without counting a reference. It is for test setup
// only.
func (m *Memory) Poke(addr uint64, w scheme.Word) { m.store(addr, w) }

// CorruptWord XORs the word at addr with the given bit pattern and returns
// the original value, without counting a reference. It is a fault-injection
// knob for tests of the heap verifier — it lets a test flip header or
// pointer bits exactly as a wild store or hardware fault would, then prove
// the corruption is detected. Never call it from simulation code.
func (m *Memory) CorruptWord(addr uint64, xor uint64) scheme.Word {
	old := m.load(addr)
	m.store(addr, old^scheme.Word(xor))
	return old
}

// dynPage returns the dynamic page holding addr and addr's index in it,
// or a nil page when addr is below the dynamic area or its page is not
// materialized.
func (m *Memory) dynPage(addr uint64) ([]scheme.Word, uint64) {
	i := addr - DynBase
	if addr < DynBase || i>>pageShift >= uint64(len(m.dyn)) {
		return nil, 0
	}
	return m.dyn[i>>pageShift], i & pageMask
}

func (m *Memory) load(addr uint64) scheme.Word {
	if pg, i := m.dynPage(addr); pg != nil {
		return pg[i]
	}
	switch {
	case addr >= DynBase:
		panic(fmt.Sprintf("mem: load beyond dynamic area: %#x", addr))
	case addr >= StaticBase:
		i := addr - StaticBase
		if i >= uint64(len(m.static)) {
			panic(fmt.Sprintf("mem: load beyond static area: %#x", addr))
		}
		return m.static[i]
	default:
		if addr < StackBase || addr >= StackLimit {
			panic(fmt.Sprintf("mem: load outside stack: %#x", addr))
		}
		return m.stack[addr-StackBase]
	}
}

func (m *Memory) store(addr uint64, w scheme.Word) {
	if pg, i := m.dynPage(addr); pg != nil {
		pg[i] = w
		return
	}
	switch {
	case addr >= DynBase:
		panic(fmt.Sprintf("mem: store beyond dynamic area: %#x", addr))
	case addr >= StaticBase:
		i := addr - StaticBase
		if i >= uint64(len(m.static)) {
			panic(fmt.Sprintf("mem: store beyond static area: %#x", addr))
		}
		m.static[i] = w
	default:
		if addr < StackBase || addr >= StackLimit {
			panic(fmt.Sprintf("mem: store outside stack: %#x", addr))
		}
		m.stack[addr-StackBase] = w
	}
}

// EnsureDynamic guarantees backing store for the dynamic word addresses in
// [base, limit). Collectors and allocators call it before handing out
// addresses. Pages are materialized lazily, so widely separated semispaces
// cost only the words they actually use.
func (m *Memory) EnsureDynamic(base, limit uint64) {
	if limit <= base {
		return
	}
	lastPage := (limit - 1 - DynBase) >> pageShift
	if lastPage >= uint64(len(m.dyn)) {
		grown := make([][]scheme.Word, lastPage+1+1024)
		copy(grown, m.dyn)
		m.dyn = grown
	}
	for pi := (base - DynBase) >> pageShift; pi <= lastPage; pi++ {
		if m.dyn[pi] == nil {
			m.dyn[pi] = make([]scheme.Word, pageWords)
			m.dynWords += pageWords
		}
	}
}

// DynamicSize returns the number of dynamic words currently backed.
func (m *Memory) DynamicSize() uint64 { return m.dynWords }

// AllocStatic allocates size words in the static area and returns the
// address of the first. Static allocation happens during program loading
// (symbols, quoted constants, global cells) and is never reclaimed.
func (m *Memory) AllocStatic(size int) uint64 {
	addr := m.staticNext
	m.staticNext += uint64(size)
	need := m.staticNext - StaticBase
	if need > uint64(len(m.static)) {
		grown := make([]scheme.Word, roundUp(need, 1<<16))
		copy(grown, m.static)
		m.static = grown
	}
	m.C.StaticWords += uint64(size)
	return addr
}

// StaticNext returns the next free static address (the static frontier).
func (m *Memory) StaticNext() uint64 { return m.staticNext }

func roundUp(n, to uint64) uint64 { return (n + to - 1) / to * to }
