// Package cache implements the direct-mapped, virtually-indexed data-cache
// simulator used for every experiment in the paper, together with the
// Przybylski main-memory timing model, the slow/fast hypothetical
// processors, and a Bank that simulates many cache configurations in a
// single pass over a reference stream.
//
// The simulator models the paper's two write-miss policies:
//
//   - write-validate: write-allocate with sub-block placement at one-word
//     granularity. A write miss claims the line and validates only the
//     written word; nothing is fetched, so write misses cost no memory
//     time. A read of an invalid word is a (penalized) miss.
//   - fetch-on-write: a write miss fetches the whole block, paying the full
//     miss penalty, before the write proceeds.
//
// Per the paper's Section 6 footnote, references made while the garbage
// collector runs are always simulated with fetch-on-write.
package cache

import (
	"fmt"
	"math/bits"

	"gcsim/internal/mem"
)

// WritePolicy selects the write-miss policy.
type WritePolicy uint8

// The two write-miss policies studied in the paper.
const (
	WriteValidate WritePolicy = iota
	FetchOnWrite
)

func (p WritePolicy) String() string {
	if p == WriteValidate {
		return "write-validate"
	}
	return "fetch-on-write"
}

// Config describes one direct-mapped cache.
type Config struct {
	SizeBytes  int // total capacity: 32 KiB ... 4 MiB in the paper
	BlockBytes int // block and fetch size: 16 ... 256 bytes
	Policy     WritePolicy
}

func (c Config) String() string {
	return fmt.Sprintf("%s/%db/%s", FormatSize(c.SizeBytes), c.BlockBytes, c.Policy)
}

// Validate checks that the configuration is a legal direct-mapped geometry.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.SizeBytes&(c.SizeBytes-1) != 0 {
		return fmt.Errorf("cache: size %d is not a positive power of two", c.SizeBytes)
	}
	if c.BlockBytes < mem.WordBytes || c.BlockBytes&(c.BlockBytes-1) != 0 {
		return fmt.Errorf("cache: block size %d is not a power of two >= %d", c.BlockBytes, mem.WordBytes)
	}
	if c.BlockBytes > c.SizeBytes {
		return fmt.Errorf("cache: block size %d exceeds cache size %d", c.BlockBytes, c.SizeBytes)
	}
	if c.BlockBytes > 64*mem.WordBytes {
		return fmt.Errorf("cache: block size %d exceeds the 64-word valid-mask limit", c.BlockBytes)
	}
	return nil
}

// NumBlocks returns the number of cache blocks.
func (c Config) NumBlocks() int { return c.SizeBytes / c.BlockBytes }

// FormatSize renders a byte count the way the paper labels cache sizes
// (32k, 64k, ..., 1m, 4m).
func FormatSize(n int) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dm", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dk", n>>10)
	default:
		return fmt.Sprintf("%db", n)
	}
}

// Stats holds the event counts accumulated by one cache, split between
// program-mode and collector-mode references as required by the paper's
// O_gc accounting.
type Stats struct {
	Reads, Writes uint64 // program references
	ReadMisses    uint64 // program read misses (always penalized)
	WriteMisses   uint64 // program write misses that fetched (fetch-on-write)
	WriteAllocs   uint64 // program write misses that claimed without fetching

	GCReads, GCWrites        uint64 // collector references
	GCReadMisses             uint64
	GCWriteMisses            uint64 // collector writes always fetch on miss
	Writebacks, GCWritebacks uint64 // dirty lines evicted
}

// Refs returns total program references.
func (s *Stats) Refs() uint64 { return s.Reads + s.Writes }

// Misses returns the penalized program miss count M_prog: read misses plus
// fetching write misses. Write-validate line claims are not penalized.
func (s *Stats) Misses() uint64 { return s.ReadMisses + s.WriteMisses }

// GCMisses returns the penalized collector miss count M_gc.
func (s *Stats) GCMisses() uint64 { return s.GCReadMisses + s.GCWriteMisses }

// MissRatio returns penalized program misses per program reference.
func (s *Stats) MissRatio() float64 {
	if r := s.Refs(); r > 0 {
		return float64(s.Misses()) / float64(r)
	}
	return 0
}

// MissEvent describes one miss for plotting: which cache block missed at
// which program reference index. Allocation (write-validate claim) events
// are included with Alloc set, since the paper's sweep plots show them.
type MissEvent struct {
	RefIndex   uint64
	CacheBlock uint32
	Alloc      bool
}

// Cache simulates one direct-mapped cache.
type Cache struct {
	cfg        Config
	blockShift uint // log2(block bytes)
	indexMask  uint64
	blockWords uint
	wordMask   uint64
	fullMask   uint64

	tags  []uint64 // block number currently cached; tagEmpty when invalid
	valid []uint64 // per-word valid bits
	dirty []uint64 // per-block dirty bits, packed 64 blocks per word

	S Stats

	// instrumented is true when block stats or a miss hook are enabled;
	// accesses then take the slower path that feeds them. The plain path
	// carries no hook checks at all.
	instrumented bool

	// Optional per-cache-block accounting for the Section 7 activity
	// graphs. Enabled by EnableBlockStats.
	blockRefs   []uint64
	blockMisses []uint64

	// Optional miss-event hook for sweep plots.
	onMiss func(MissEvent)
	refIdx uint64

	// Optional periodic snapshots (see snapshot.go). Checked once per
	// chunk, never per reference.
	snapInterval uint64
	snapNext     uint64
	snapClock    func() uint64
	snaps        []Snapshot
	snapNs       int64
}

const tagEmpty = ^uint64(0)

// New creates a cache for the given configuration. It panics on an invalid
// configuration; use Config.Validate to check first.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := cfg.NumBlocks()
	c := &Cache{
		cfg:        cfg,
		blockShift: uint(bits.TrailingZeros(uint(cfg.BlockBytes))),
		indexMask:  uint64(n - 1),
		blockWords: uint(cfg.BlockBytes / mem.WordBytes),
		tags:       make([]uint64, n),
		valid:      make([]uint64, n),
		dirty:      make([]uint64, (n+63)/64),
	}
	c.wordMask = uint64(c.blockWords - 1)
	if c.blockWords == 64 {
		c.fullMask = ^uint64(0)
	} else {
		c.fullMask = 1<<c.blockWords - 1
	}
	for i := range c.tags {
		c.tags[i] = tagEmpty
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// EnableBlockStats turns on per-cache-block reference and miss counting.
func (c *Cache) EnableBlockStats() {
	c.blockRefs = make([]uint64, len(c.tags))
	c.blockMisses = make([]uint64, len(c.tags))
	c.syncInstrumented()
}

// BlockStats returns per-cache-block (refs, misses) slices, or nils if
// EnableBlockStats was not called. Misses include allocation claims, as in
// the paper's plots; the activity-graph code subtracts allocation misses
// separately when needed.
func (c *Cache) BlockStats() (refs, misses []uint64) { return c.blockRefs, c.blockMisses }

// OnMiss registers a hook invoked for every miss event (including
// write-validate allocation claims, flagged Alloc). A nil f removes it.
func (c *Cache) OnMiss(f func(MissEvent)) {
	c.onMiss = f
	c.syncInstrumented()
}

// syncInstrumented routes future accesses through the instrumented path
// when any hook is live. The plain path does not maintain refIdx (it is
// always Reads+Writes), so re-derive it at the switch-over.
func (c *Cache) syncInstrumented() {
	c.instrumented = c.blockRefs != nil || c.onMiss != nil
	c.refIdx = c.S.Reads + c.S.Writes
}

// Access simulates one word-sized reference at the given word address.
// collector selects collector-mode accounting and forces fetch-on-write.
func (c *Cache) Access(wordAddr uint64, write, collector bool) {
	if c.instrumented {
		c.accessInstrumented(wordAddr, write, collector)
	} else {
		c.accessPlain(wordAddr, write, collector)
	}
}

// accessPlain is the hot path: no block counters, no miss hook, and no
// checks for either — Bank sweeps run entirely through it.
func (c *Cache) accessPlain(wordAddr uint64, write, collector bool) {
	blockNum := wordAddr * mem.WordBytes >> c.blockShift
	idx := blockNum & c.indexMask
	bit := uint64(1) << (wordAddr & c.wordMask)
	dw, db := idx>>6, uint64(1)<<(idx&63)

	if collector {
		if write {
			c.S.GCWrites++
		} else {
			c.S.GCReads++
		}
	} else {
		if write {
			c.S.Writes++
		} else {
			c.S.Reads++
		}
	}

	if c.tags[idx] == blockNum {
		if write {
			c.valid[idx] |= bit
			c.dirty[dw] |= db
			return
		}
		if c.valid[idx]&bit != 0 {
			return // hit
		}
		// Read of a word not yet validated in a claimed line: fetch.
		c.valid[idx] = c.fullMask
		c.countMiss(write, collector, false)
		return
	}

	// Tag mismatch: evict.
	if c.dirty[dw]&db != 0 && c.tags[idx] != tagEmpty {
		if collector {
			c.S.GCWritebacks++
		} else {
			c.S.Writebacks++
		}
	}
	c.tags[idx] = blockNum
	if write {
		c.dirty[dw] |= db
	} else {
		c.dirty[dw] &^= db
	}

	if !write {
		c.valid[idx] = c.fullMask
		c.countMiss(false, collector, false)
		return
	}
	// Write miss. The collector always fetches on write (paper, Section 6
	// footnote); the program fetches only under FetchOnWrite.
	if collector || c.cfg.Policy == FetchOnWrite {
		c.valid[idx] = c.fullMask
		c.countMiss(true, collector, false)
		return
	}
	// Write-validate: claim the line, validate only the written word.
	c.valid[idx] = bit
	c.countMiss(true, collector, true)
}

// accessInstrumented mirrors accessPlain but additionally feeds the
// per-block counters, the refIdx clock, and the miss-event hook.
func (c *Cache) accessInstrumented(wordAddr uint64, write, collector bool) {
	blockNum := wordAddr * mem.WordBytes >> c.blockShift
	idx := blockNum & c.indexMask
	bit := uint64(1) << (wordAddr & c.wordMask)
	dw, db := idx>>6, uint64(1)<<(idx&63)

	if c.blockRefs != nil && !collector {
		c.blockRefs[idx]++
	}
	if collector {
		if write {
			c.S.GCWrites++
		} else {
			c.S.GCReads++
		}
	} else {
		c.refIdx++
		if write {
			c.S.Writes++
		} else {
			c.S.Reads++
		}
	}

	if c.tags[idx] == blockNum {
		if write {
			c.valid[idx] |= bit
			c.dirty[dw] |= db
			return
		}
		if c.valid[idx]&bit != 0 {
			return // hit
		}
		c.valid[idx] = c.fullMask
		c.recordMiss(idx, write, collector, false)
		return
	}

	if c.dirty[dw]&db != 0 && c.tags[idx] != tagEmpty {
		if collector {
			c.S.GCWritebacks++
		} else {
			c.S.Writebacks++
		}
	}
	c.tags[idx] = blockNum
	if write {
		c.dirty[dw] |= db
	} else {
		c.dirty[dw] &^= db
	}

	if !write {
		c.valid[idx] = c.fullMask
		c.recordMiss(idx, false, collector, false)
		return
	}
	if collector || c.cfg.Policy == FetchOnWrite {
		c.valid[idx] = c.fullMask
		c.recordMiss(idx, true, collector, false)
		return
	}
	c.valid[idx] = bit
	c.recordMiss(idx, true, collector, true)
}

// countMiss updates the miss statistics on the plain path.
func (c *Cache) countMiss(write, collector, alloc bool) {
	switch {
	case collector && write:
		c.S.GCWriteMisses++
	case collector:
		c.S.GCReadMisses++
	case alloc:
		c.S.WriteAllocs++
	case write:
		c.S.WriteMisses++
	default:
		c.S.ReadMisses++
	}
}

// recordMiss is countMiss plus the instrumentation feeds.
func (c *Cache) recordMiss(idx uint64, write, collector, alloc bool) {
	if c.blockMisses != nil && !collector {
		c.blockMisses[idx]++
	}
	c.countMiss(write, collector, alloc)
	if c.onMiss != nil && !collector {
		c.onMiss(MissEvent{RefIndex: c.refIdx, CacheBlock: uint32(idx), Alloc: alloc})
	}
}

// AccessBatch simulates a chunk of packed references in stream order. It
// is the bulk entry point of the reference pipeline: one call replays a
// whole chunk through a single specialized loop, with the hook checks
// hoisted out of the per-reference work.
func (c *Cache) AccessBatch(refs []mem.Ref) {
	if c.instrumented {
		for _, r := range refs {
			c.accessInstrumented(r.Addr(), r.Write(), r.Collector())
		}
	} else {
		for _, r := range refs {
			c.accessPlain(r.Addr(), r.Write(), r.Collector())
		}
	}
	// Batch-boundary sampling: one branch per chunk, nothing per ref. A
	// cache inside a FusedBank has no clock; the bank stamps its chunks.
	if c.snapInterval != 0 && c.snapClock != nil {
		c.MaybeSnapshot(c.snapClock())
	}
}

// Reset clears the cache contents and statistics.
func (c *Cache) Reset() {
	for i := range c.tags {
		c.tags[i] = tagEmpty
		c.valid[i] = 0
	}
	clear(c.dirty)
	c.S = Stats{}
	c.refIdx = 0
	if c.blockRefs != nil {
		clear(c.blockRefs)
		clear(c.blockMisses)
	}
	c.snaps = nil
	c.snapNext = c.snapInterval
}

// Ref implements mem.Tracer, so a single Cache can observe a Memory
// directly.
func (c *Cache) Ref(addr uint64, write, collector bool) { c.Access(addr, write, collector) }

// RefBatch implements mem.BatchTracer.
func (c *Cache) RefBatch(refs []mem.Ref) { c.AccessBatch(refs) }

// Bank fans one reference stream out to many caches, so a whole
// size × block-size × policy sweep is simulated in a single program run.
type Bank struct {
	Caches []*Cache
}

// NewBank builds a bank containing one cache per configuration.
func NewBank(cfgs []Config) *Bank {
	b := &Bank{Caches: make([]*Cache, len(cfgs))}
	for i, cfg := range cfgs {
		b.Caches[i] = New(cfg)
	}
	return b
}

// Ref implements mem.Tracer.
func (b *Bank) Ref(addr uint64, write, collector bool) {
	for _, c := range b.Caches {
		c.Access(addr, write, collector)
	}
}

// RefBatch implements mem.BatchTracer: each cache replays the whole chunk
// in a tight per-cache loop, so the chunk (not the bank's combined state)
// is what cycles through the host cache.
func (b *Bank) RefBatch(refs []mem.Ref) {
	for _, c := range b.Caches {
		c.AccessBatch(refs)
	}
}

// SetSnapshotClock installs the same instruction clock on every cache in
// the bank (see Cache.SetSnapshotClock). During replay this is the
// replayer's frame-stamp clock rather than a live machine's counter.
func (b *Bank) SetSnapshotClock(clock func() uint64) {
	for _, c := range b.Caches {
		c.SetSnapshotClock(clock)
	}
}

// Find returns the bank's cache with the given configuration, or nil.
func (b *Bank) Find(cfg Config) *Cache {
	for _, c := range b.Caches {
		if c.cfg == cfg {
			return c
		}
	}
	return nil
}

var _ mem.Tracer = (*Cache)(nil)
var _ mem.Tracer = (*Bank)(nil)
var _ mem.BatchTracer = (*Cache)(nil)
var _ mem.BatchTracer = (*Bank)(nil)
