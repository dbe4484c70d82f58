// The fused cache bank: one decoded chunk of the reference stream is
// simulated against every direct-mapped configuration of a sweep in a
// single pass, with no per-reference interface calls and no per-config
// channel hops. Each configuration's tag state lives in a struct-of-arrays
// lane — a flat []uint64 tag array plus packed valid/dirty bitsets, one
// arena per config (the same arrays the Cache owns, aliased, so the fused
// and unfused paths share state and statistics) — and the hot loop's hit
// path runs in registers, counting misses in a small per-chunk array that
// merges into the cache's Stats once per chunk. Reference-kind totals
// (reads/writes, program/collector) depend only on the chunk itself, so
// they are histogrammed once per chunk and added to every lane instead of
// being branched on per reference per config.
//
// A bank built with more than one worker shards its lanes round-robin
// across worker goroutines, behind one filter stage. The producer (the
// VM's reference pipeline or the shared trace decoder) copies each chunk
// once into a small recycled ring and hands it to the stage, a goroutine
// that histograms the chunk, strips it into that ring chunk's survivor
// buffer and publishes it to every worker; each worker replays every
// chunk, in publication order, against its own lanes. The producer blocks
// when the whole ring is in flight, which bounds memory and applies back
// pressure, and the last worker to finish a chunk returns it to the ring.
//
// A bank of at least three lanes runs its plain lanes behind one strip
// filter (strip.go) at its coarsest block size: the filter reads each
// chunk once, on the producer of an inline bank and on the stage of a
// sharded one, and every plain lane simulates its survivors, which on
// program traces is 6-21% of the chunk. A bank with no hooks and no
// snapshots can tee those survivors out (TeeSurvivors), and a bank of the
// same filter geometry can later be fed them in place of the stream
// (FeedStripped), skipping the filter and the histogram.
//
// Determinism: each lane consumes the chunk stream sequentially, in
// order, exactly as the serial Bank's per-cache loop does, and the
// per-chunk merge lands before any chunk-boundary snapshot is taken — so
// final statistics and periodic snapshots are bitwise identical to the
// serial Bank's whether the lanes run inline or sharded across workers.
package cache

import (
	"fmt"
	"math/bits"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"gcsim/internal/mem"
)

// fusedLane is one configuration's slot in the fused store: the cache's
// flat tag/valid/dirty arrays plus its geometry, hoisted so the simulate
// loop touches no Cache fields, and the per-chunk event counts the merge
// pass folds into the cache's Stats.
type fusedLane struct {
	c *Cache

	tags  []uint64 // aliases c.tags: current block number per cache block
	valid []uint64 // aliases c.valid: per-word valid bits per block
	dirty []uint64 // aliases c.dirty: dirty bits, packed 64 blocks per word

	shift    uint // c.blockShift: byte address -> block number
	wordMask uint64
	fullMask uint64
	fow      bool // fetch-on-write policy

	// Per-chunk scratch, written by simulate and consumed by merge.
	ev    [numEvents]uint64 // event counts, indexed by event kind
	fused bool              // this chunk went through simulate
}

// Event kinds: the index of each per-chunk counter in fusedLane.ev. The
// four fetching misses share refKinds' index, the packed ref's top two
// bits (write<<1 | collector), so a miss path counts itself with
// ev[r>>62]; the two write-back kinds are evWriteback plus the collector
// bit.
const (
	evReadMiss    = iota // program read misses
	evGCReadMiss         // collector read misses
	evWriteMiss          // program write misses that fetched (fetch-on-write)
	evGCWriteMiss        // collector write misses (always fetch)
	evWriteAlloc         // program write misses that claimed without fetching
	evWriteback          // dirty lines evicted by a program reference
	evGCWriteback        // dirty lines evicted by a collector reference
	numEvents
)

// newFusedLane hoists one cache's state and geometry into a lane.
func newFusedLane(c *Cache) fusedLane {
	return fusedLane{
		c:        c,
		tags:     c.tags,
		valid:    c.valid,
		dirty:    c.dirty,
		shift:    c.blockShift,
		wordMask: c.wordMask,
		fullMask: c.fullMask,
		fow:      c.cfg.Policy == FetchOnWrite,
	}
}

// refKinds histograms a chunk by reference kind. The index is the packed
// ref's top two bits (write<<1 | collector): 0 = program read, 1 =
// collector read, 2 = program write, 3 = collector write. The totals are
// a property of the chunk alone, so one histogram serves every lane.
//
// The loop keeps three register sums — writes, collector refs, and
// collector writes — and derives the four counts from them, rather than
// incrementing k[r>>62] in memory: that store feeds the next ref's load
// whenever two neighbouring refs share a kind, a dependency chain through
// memory on every reference.
func refKinds(refs []mem.Ref) [4]uint64 {
	var w, g, wg uint64
	for _, r := range refs {
		w += uint64(r >> 63)
		g += uint64(r>>62) & 1
		wg += uint64(r>>63) & uint64(r>>62)
	}
	n := uint64(len(refs))
	return [4]uint64{n - w - g + wg, g - wg, w - wg, wg}
}

// run simulates one chunk through this lane. Caches with live
// instrumentation hooks (block stats, miss events) take the cache's own
// instrumented path, which already maintains every counter itself; plain
// lanes take the fused register loop and defer counters to merge.
func (ln *fusedLane) run(refs []mem.Ref) {
	if c := ln.c; c.instrumented {
		for _, r := range refs {
			c.accessInstrumented(r.Addr(), r.Write(), r.Collector())
		}
		ln.fused = false
		return
	}
	ln.ev = simulate(refs, ln)
	ln.fused = true
}

// simulate is the fused hot loop: the direct-mapped write-validate /
// fetch-on-write simulation of accessPlain over one chunk, returning the
// chunk's event counts indexed by event kind. It must remain semantically
// identical to Cache.accessPlain — the golden fused-vs-serial equivalence
// tests and FuzzFusedBankOracle enforce this bit for bit.
//
// The common case, a tag match on a valid word or a write to a matched
// line, is built to stay in registers:
//   - The event counts, and the geometry only a miss reads (fullMask,
//     fow), live in the frame in one local struct that only the miss
//     paths touch, so they take no registers from the hit path.
//   - Every variable shift count is masked with 63, so the compiler emits
//     a bare shift with no oversize-shift guard.
//   - The block number and word offset come straight from the packed ref,
//     with no 62-bit address-mask constant.
//   - ln is dead once the loop starts (the counts are returned, not
//     stored through it), and refs is the first parameter, so CX — the
//     only register an amd64 variable shift count can use — arrives
//     holding the slice's capacity, which is dead, rather than its length.
//
// That leaves 14 live values on the hit path — ten that live across the
// loop (refs pointer, index and length; tags, valid and dirty; idxMask,
// dwMask, shift, wordMask), plus the ref, its block number and index, and
// the loaded tag — against amd64's 13 allocatable registers, so idxMask
// is reloaded from the frame at the loop head. The hit path stores
// nothing to the frame.
func simulate(refs []mem.Ref, ln *fusedLane) [numEvents]uint64 {
	tags := ln.tags
	if len(tags) == 0 {
		return [numEvents]uint64{}
	}
	idxMask := uint64(len(tags) - 1)
	valid := ln.valid[:len(tags)]
	dirty := ln.dirty
	if len(dirty) == 0 {
		return [numEvents]uint64{}
	}
	// len(dirty) is ceil(len(tags)/64), a power of two whenever len(tags)
	// is — masking the dirty-word index is a no-op that lets the compiler
	// drop the bounds check.
	dwMask := uint64(len(dirty) - 1)
	shift, wordMask := ln.shift, ln.wordMask
	var miss struct {
		ev       [numEvents]uint64
		fullMask uint64
		fow      bool
	}
	miss.fullMask, miss.fow = ln.fullMask, ln.fow
	for _, r := range refs {
		// The block number of the byte address wordAddr*8, exactly as
		// accessPlain takes it: shifting the packed ref left by 3 drops
		// the two flag bits along with the byte address's carry out of
		// bit 63. The word offset is the low bits of the ref itself.
		blockNum := uint64(r<<3) >> (shift & 63)
		idx := blockNum & idxMask
		if tags[idx] == blockNum {
			bit := uint64(1) << (uint64(r) & wordMask & 63)
			if r&mem.RefWrite != 0 {
				// Write hit (or write to a claimed line): validate the
				// word, mark the block dirty, no event.
				valid[idx] |= bit
				dirty[(idx>>6)&dwMask] |= 1 << (idx & 63)
				continue
			}
			if valid[idx]&bit != 0 {
				continue // read hit
			}
			// Read of a word not yet validated in a claimed line: fetch.
			valid[idx] = miss.fullMask
			miss.ev[r>>62]++ // evReadMiss or evGCReadMiss
			continue
		}

		// Tag mismatch: evict, writing back a dirty occupant.
		dw := (idx >> 6) & dwMask
		db := uint64(1) << (idx & 63)
		if dirty[dw]&db != 0 && tags[idx] != tagEmpty {
			miss.ev[evWriteback+(r>>62)&1]++
		}
		tags[idx] = blockNum
		if r&mem.RefWrite == 0 {
			dirty[dw] &^= db
			valid[idx] = miss.fullMask
			miss.ev[r>>62]++ // evReadMiss or evGCReadMiss
			continue
		}
		dirty[dw] |= db
		// The collector always fetches on write (paper, Section 6
		// footnote); the program fetches only under FetchOnWrite.
		if r&mem.RefCollector != 0 || miss.fow {
			valid[idx] = miss.fullMask
			miss.ev[r>>62]++ // evGCWriteMiss or evWriteMiss
			continue
		}
		// Write-validate: claim the line, validate only the written word.
		valid[idx] = 1 << (uint64(r) & wordMask & 63)
		miss.ev[evWriteAlloc]++
	}
	return miss.ev
}

// merge folds the chunk's event counts and the shared kind histogram
// into the cache's Stats. Instrumented lanes already counted themselves.
func (ln *fusedLane) merge(k *[4]uint64) {
	if !ln.fused {
		return
	}
	s := &ln.c.S
	addKinds(s, k)
	s.ReadMisses += ln.ev[evReadMiss]
	s.WriteMisses += ln.ev[evWriteMiss]
	s.WriteAllocs += ln.ev[evWriteAlloc]
	s.GCReadMisses += ln.ev[evGCReadMiss]
	s.GCWriteMisses += ln.ev[evGCWriteMiss]
	s.Writebacks += ln.ev[evWriteback]
	s.GCWritebacks += ln.ev[evGCWriteback]
}

// addKinds adds a reference-kind histogram (see refKinds) to s.
func addKinds(s *Stats, k *[4]uint64) {
	s.Reads += k[0]
	s.GCReads += k[1]
	s.Writes += k[2]
	s.GCWrites += k[3]
}

// FusedBank simulates a whole sweep against one reference stream with the
// fused single-pass loop. It is a drop-in replacement for Bank on
// direct-mapped sweeps: install as the Memory's tracer for live runs
// (RefBatch), or feed it decoded trace chunks with their clock stamps
// (ChunkBatch, the traceio.ChunkSink contract) for replayed ones. Stats
// and snapshots are bitwise identical to Bank's either way.
//
// A bank is single-producer: one goroutine feeds it. Call Drain before
// reading any cache's Stats; on a sharded bank it is the barrier that
// waits for every worker, and on a bank that tees or is fed survivors it
// ends the stream. After Drain such a bank cannot be fed again.
//
// A bank's caches are fed only through the bank: its strip filter (see
// strip.go) tracks the references its lanes have seen, so a reference
// given to one of its caches directly, or a Reset, would make it drop
// references that are no longer hits.
type FusedBank struct {
	Caches []*Cache

	// inline holds the lanes of an inline bank. On every bank its stage
	// clocks are the bank's totals: a sharded bank folds its workers'
	// clocks in at Drain.
	inline laneShard
	// filter is the bank's strip filter. An inline bank runs it on the
	// producer, into buf; a sharded bank on its filter stage, into each
	// ring chunk's own buffer.
	filter bankFilter
	buf    []mem.Ref

	workers    []*laneShard     // the worker shards of a sharded bank
	stage      chan *fusedChunk // published chunks, to the filter stage
	stagePanic any              // the stage's recovered panic, re-raised by Drain
	free       chan *fusedChunk
	wg         sync.WaitGroup
	staged     []mem.Ref // per-ref Tracer staging (sharded banks)
	drained    bool

	// clock, when set, stamps chunk-boundary snapshots on the live path
	// (the replay path carries each frame's recorded stamp instead). It is
	// read on the producer goroutine while the VM is paused in RefBatch,
	// so the stamp equals what an inline read would return.
	clock func() uint64
}

// fusedRing is the number of in-flight chunks of a sharded bank. Deep
// enough to absorb skew between fast (small-cache) and slow (large-cache)
// workers, shallow enough that the chunks stay cache-resident.
const fusedRing = 8

// fusedChunk is one published chunk of a sharded bank: the producer fills
// refs and clockAt, the filter stage the rest, and every worker then
// reads it.
type fusedChunk struct {
	refs    []mem.Ref
	passed  []mem.Ref    // the plain lanes' input: the filter's survivors of refs, or refs
	buf     []mem.Ref    // this chunk's survivor buffer, on a filtered bank
	kinds   [4]uint64    // reference-kind histogram (see refKinds)
	clockAt uint64       // snapshot stamp (0 = none)
	pending atomic.Int32 // workers that have not finished this chunk yet
}

// bankFilter is a bank's strip filter (strip.go), with its counts and
// clock. Its sets are nil when the bank runs unfiltered.
type bankFilter struct {
	stripFilter
	offered uint64 // refs the filter read (on a fed bank, the stream's)
	kept    uint64 // refs it passed to the plain lanes
	ns      int64  // time in the filter

	// kinds is the stream's reference-kind totals: the sum of its chunks'
	// histograms, or on a fed bank the totals FeedStripped was given,
	// which Drain adds to every cache.
	kinds  [4]uint64
	fed    bool            // the bank is fed survivors (FeedStripped)
	tee    mem.BatchTracer // receives the survivors (TeeSurvivors)
	teeBuf []mem.Ref       // survivors not yet handed to tee
}

// newBankFilter builds the strip filter of a bank of cfgs, of the
// geometry StripGeometry gives, or none when it gives none.
func newBankFilter(cfgs []Config) bankFilter {
	var f bankFilter
	if block, capacity, ok := StripGeometry(cfgs); ok {
		shift := uint(bits.TrailingZeros(uint(block)))
		f.stripFilter = stripFilter{sets: make([]stripEntry, capacity>>shift), shift: shift, wordMask: uint64(block/mem.WordBytes - 1)}
	}
	return f
}

// prepare returns what the lanes take from one chunk: its reference-kind
// histogram, and the references the plain lanes simulate. Those are refs
// itself on an unfiltered bank. On a filtered bank they are the filter's
// survivors, written to *buf, which it grows to fit, and handed on to the
// tee. A fed bank's chunks are survivors already: it passes them on with
// an empty histogram, since Drain adds the stream's totals instead.
func (f *bankFilter) prepare(refs []mem.Ref, buf *[]mem.Ref) ([4]uint64, []mem.Ref) {
	if f.fed {
		f.kept += uint64(len(refs))
		return [4]uint64{}, refs
	}
	kinds := refKinds(refs)
	for i, n := range kinds {
		f.kinds[i] += n
	}
	if f.sets == nil {
		return kinds, refs
	}
	t0 := time.Now()
	if len(*buf) < len(refs) {
		*buf = make([]mem.Ref, max(len(refs), mem.ChunkRefs))
	}
	passed := (*buf)[:f.strip(refs, *buf)]
	f.offered += uint64(len(refs))
	f.kept += uint64(len(passed))
	f.ns += int64(time.Since(t0))
	if f.tee != nil {
		f.teeRefs(passed)
	}
	return kinds, passed
}

// teeRefs hands survivors to the tee in chunks of mem.ChunkRefs, so a
// trace writer makes each a whole frame; finish hands on the rest.
func (f *bankFilter) teeRefs(refs []mem.Ref) {
	for len(refs) > 0 {
		n := min(len(refs), mem.ChunkRefs-len(f.teeBuf))
		f.teeBuf = append(f.teeBuf, refs[:n]...)
		refs = refs[n:]
		if len(f.teeBuf) == mem.ChunkRefs {
			f.tee.RefBatch(f.teeBuf)
			f.teeBuf = f.teeBuf[:0]
		}
	}
}

// finish ends the stream, at Drain: it hands the tee its last survivors
// and adds a fed bank's kind totals to every cache, once.
func (f *bankFilter) finish(caches []*Cache) {
	if len(f.teeBuf) > 0 {
		f.tee.RefBatch(f.teeBuf)
		f.teeBuf = f.teeBuf[:0]
	}
	if f.fed {
		for _, c := range caches {
			addKinds(&c.S, &f.kinds)
		}
	}
}

// laneShard is a set of lanes simulated together on one goroutine, with
// its own stage clocks so workers never share state.
type laneShard struct {
	lanes   []fusedLane
	in      chan *fusedChunk // nil for the inline shard
	simNs   int64            // time in the fused simulate loops
	mergeNs int64            // time in stat merges and snapshot checks
	panic   any              // a worker's recovered panic, re-raised by Drain
}

// newLaneShard builds the lanes of caches.
func newLaneShard(caches []*Cache) laneShard {
	var s laneShard
	for _, c := range caches {
		s.lanes = append(s.lanes, newFusedLane(c))
	}
	return s
}

// step runs one chunk through every lane of the shard, then merges each
// lane's counters and samples its snapshot at the chunk's stamp. Plain
// lanes simulate passed, the bank filter's survivors of refs, and
// instrumented lanes the whole chunk. The simulate pass and the merge
// pass are timed separately so sweeps can report a decode/simulate/merge
// breakdown.
func (s *laneShard) step(refs, passed []mem.Ref, kinds *[4]uint64, clockAt uint64) {
	t0 := time.Now()
	for i := range s.lanes {
		if ln := &s.lanes[i]; ln.c.instrumented {
			ln.run(refs)
		} else {
			ln.run(passed)
		}
	}
	t1 := time.Now()
	for i := range s.lanes {
		ln := &s.lanes[i]
		ln.merge(kinds)
		ln.c.MaybeSnapshot(clockAt)
	}
	s.simNs += int64(t1.Sub(t0))
	s.mergeNs += int64(time.Since(t1))
}

// NewFusedBank builds a fused bank whose lanes run inline on the
// producer's goroutine. It panics on an invalid configuration, like New.
func NewFusedBank(cfgs []Config) *FusedBank { return NewFusedBankWorkers(cfgs, 1) }

// NewFusedBankWorkers builds a fused bank with at most n workers. When
// min(n, len(cfgs)) > 1 the lanes are dealt round-robin across that many
// worker goroutines, so neighboring sizes (whose simulation state
// competes for the same host cache levels) land on different workers;
// otherwise the lanes run inline, exactly as NewFusedBank's do.
func NewFusedBankWorkers(cfgs []Config, n int) *FusedBank {
	b := &FusedBank{Caches: make([]*Cache, len(cfgs))}
	for i, cfg := range cfgs {
		b.Caches[i] = New(cfg)
	}
	b.filter = newBankFilter(cfgs)
	n = min(n, len(cfgs))
	if n <= 1 {
		b.inline = newLaneShard(b.Caches)
		return b
	}
	b.free = make(chan *fusedChunk, fusedRing)
	for i := 0; i < fusedRing; i++ {
		b.free <- &fusedChunk{refs: make([]mem.Ref, 0, mem.ChunkRefs)}
	}
	// The stage's and the workers' inputs are buffered to the ring size:
	// neither holds up publication, only the free list does.
	b.stage = make(chan *fusedChunk, fusedRing)
	for w := 0; w < n; w++ {
		var caches []*Cache
		for i := w; i < len(cfgs); i += n {
			caches = append(caches, b.Caches[i])
		}
		s := newLaneShard(caches)
		s.in = make(chan *fusedChunk, fusedRing)
		b.workers = append(b.workers, &s)
		b.wg.Add(1)
		go b.work(&s)
	}
	b.wg.Add(1)
	go b.filterStage()
	return b
}

// filterStage prepares every published chunk for the workers, in
// publication order (bankFilter.prepare): it histograms the chunk's
// reference kinds and runs it through the bank's strip filter, then hands
// it to every worker. Once the producer closes the stage's input, it
// closes the workers'. A panic stops the preparing but not the stage,
// which then returns each chunk to the ring itself, so the producer never
// stalls; Drain re-raises it on the caller.
func (b *FusedBank) filterStage() {
	defer b.wg.Done()
	for ck := range b.stage {
		if b.stagePanic == nil {
			b.stagePanic = recovered("filter stage", func() {
				ck.kinds, ck.passed = b.filter.prepare(ck.refs, &ck.buf)
			})
		}
		if b.stagePanic != nil {
			b.free <- ck
			continue
		}
		ck.pending.Store(int32(len(b.workers)))
		for _, s := range b.workers {
			s.in <- ck
		}
	}
	for _, s := range b.workers {
		close(s.in)
	}
}

// work replays every published chunk against one worker's shard,
// recycling each chunk once every worker has finished with it. A panic in
// a lane stops the shard's simulation but not its consumption of the
// ring, so the producer never stalls; Drain re-raises it on the caller.
func (b *FusedBank) work(s *laneShard) {
	defer b.wg.Done()
	for ck := range s.in {
		if s.panic == nil {
			s.panic = recovered("worker", func() { s.step(ck.refs, ck.passed, &ck.kinds, ck.clockAt) })
		}
		if ck.pending.Add(-1) == 0 {
			b.free <- ck
		}
	}
}

// recovered runs f and returns its panic, if it raised one, with the stack
// of the goroutine (named by who) that raised it, for Drain to re-raise.
func recovered(who string, f func()) (p any) {
	defer func() {
		if r := recover(); r != nil {
			p = fmt.Sprintf("%v\n\n%s goroutine stack:\n%s", r, who, debug.Stack())
		}
	}()
	f()
	return nil
}

// RefBatch implements mem.BatchTracer: the live path, clocked by the
// bank's snapshot clock (the machine's instruction counter).
func (b *FusedBank) RefBatch(refs []mem.Ref) { b.chunk(refs, b.stamp()) }

// stamp reads the snapshot clock for a live chunk (0, no snapshot, when
// none is installed).
func (b *FusedBank) stamp() uint64 {
	if b.clock == nil {
		return 0
	}
	return b.clock()
}

// ChunkBatch consumes one decoded trace chunk stamped with the recorded
// instruction clock — the replay path (traceio.ChunkSink).
func (b *FusedBank) ChunkBatch(refs []mem.Ref, insnsAt uint64) {
	b.chunk(refs, insnsAt)
}

// chunk is the one chunk path behind RefBatch, ChunkBatch and Ref: an
// inline bank simulates the chunk on the caller; a sharded bank publishes
// the refs Ref has staged, which come first in the stream, then the chunk.
func (b *FusedBank) chunk(refs []mem.Ref, clockAt uint64) {
	if len(b.Caches) == 0 || len(refs) == 0 {
		return
	}
	if b.workers == nil {
		kinds, passed := b.filter.prepare(refs, &b.buf)
		b.inline.step(refs, passed, &kinds, clockAt)
		return
	}
	b.flush()
	b.publish(refs, clockAt)
}

// flush publishes the refs Ref has staged on a sharded bank, stamped as a
// RefBatch would be.
func (b *FusedBank) flush() {
	if len(b.staged) > 0 {
		b.publish(b.staged, b.stamp())
		b.staged = b.staged[:0]
	}
}

// publish copies a chunk into a ring chunk (the caller reuses its buffer
// immediately) and hands it to the filter stage, blocking while the ring
// is exhausted.
func (b *FusedBank) publish(refs []mem.Ref, clockAt uint64) {
	ck := <-b.free
	ck.refs = append(ck.refs[:0], refs...)
	ck.clockAt = clockAt
	b.stage <- ck
}

// Ref implements mem.Tracer for per-reference producers. An inline bank
// simulates each reference as a one-ref chunk, so its Stats are current
// after every call, as Bank.Ref's are; a sharded bank stages references
// into chunks, published when full, before the next chunk and at Drain.
func (b *FusedBank) Ref(addr uint64, write, collector bool) {
	r := mem.MakeRef(addr, write, collector)
	if b.workers == nil {
		b.chunk([]mem.Ref{r}, 0)
		return
	}
	if b.staged == nil {
		b.staged = make([]mem.Ref, 0, mem.ChunkRefs)
	}
	b.staged = append(b.staged, r)
	if len(b.staged) == cap(b.staged) {
		b.flush()
	}
}

// Drain is the final barrier: it publishes any staged refs, stops the
// filter stage and then the workers once they have finished every chunk,
// waits for all of them, and folds the workers' stage clocks into the
// bank's. It then ends the stream: it hands a tee its last survivors and
// adds a fed bank's kind totals to every cache. After Drain returns, the
// caches' Stats are complete and safe to read from any goroutine. A panic
// on the stage or a worker is re-raised here, on the caller's goroutine,
// so the caller's recovery sees it as it would an inline one. Drain is
// idempotent.
func (b *FusedBank) Drain() {
	if b.drained {
		return
	}
	b.drained = true
	if b.workers != nil {
		b.flush()
		close(b.stage)
		b.wg.Wait()
		for _, s := range b.workers {
			b.inline.simNs += s.simNs
			b.inline.mergeNs += s.mergeNs
		}
	}
	b.filter.finish(b.Caches)
	if b.stagePanic != nil {
		panic(b.stagePanic)
	}
	for _, s := range b.workers {
		if s.panic != nil {
			panic(s.panic)
		}
	}
}

// Strippable reports whether the filter's survivors, with the stream's
// kind totals, can stand in for the bank's stream: the bank filters, and
// none of its caches is instrumented or takes snapshots. Then a chunk's
// merge only adds its kind counts to each cache, so one add of the
// totals after the last chunk gives the same Stats. Ask after every hook
// and snapshot interval is set, before the first reference.
func (b *FusedBank) Strippable() bool {
	if b.filter.sets == nil {
		return false
	}
	for _, c := range b.Caches {
		if c.instrumented || c.snapInterval != 0 {
			return false
		}
	}
	return true
}

// TeeSurvivors hands w the filter's survivors of every chunk, in stream
// order, in chunks of mem.ChunkRefs and a last, shorter one at Drain, on
// whichever goroutine runs the filter: the producer of an inline bank,
// the filter stage of a sharded one. With KindTotals they are what
// FeedStripped needs to replay the stream into a bank of the same
// StripGeometry. It reports whether the bank tees, which it does only
// when it is Strippable and not fed. Call it before the first reference,
// and leave w alone until Drain returns.
func (b *FusedBank) TeeSurvivors(w mem.BatchTracer) bool {
	if !b.Strippable() || b.filter.fed {
		return false
	}
	b.filter.tee = w
	b.filter.teeBuf = make([]mem.Ref, 0, mem.ChunkRefs)
	return true
}

// FeedStripped readies the bank to be fed, in place of a stream, the
// survivors a bank of the same StripGeometry teed from it, given the
// stream's kind totals (KindTotals). The bank then runs neither its filter
// nor the per-chunk kind histogram, and Drain adds the totals to every
// cache once, so each cache ends with the Stats the stream gives it.
// StripRefs still describes the stream: offered is the totals' sum and
// kept the references fed. Drain adds the totals however much of the
// stream was fed, so a bank fed part of it has no exact Stats. It reports
// whether the bank accepts, which it does only when it is Strippable and
// not teeing. Call it before the first reference.
func (b *FusedBank) FeedStripped(kinds [4]uint64) bool {
	if !b.Strippable() || b.filter.tee != nil {
		return false
	}
	b.filter.fed = true
	b.filter.kinds = kinds
	b.filter.offered = kinds[0] + kinds[1] + kinds[2] + kinds[3]
	return true
}

// FedStripped reports whether the bank is fed survivors (FeedStripped).
func (b *FusedBank) FedStripped() bool { return b.filter.fed }

// KindTotals returns the reference-kind totals of the bank's stream,
// indexed like refKinds: program reads, collector reads, program writes,
// collector writes. A sharded bank counts them on its filter stage, so
// read them only after Drain.
func (b *FusedBank) KindTotals() [4]uint64 { return b.filter.kinds }

// SetSnapshotClock installs the instruction clock consulted once per
// live chunk for periodic snapshots (see Cache.EnableSnapshots). Must be
// set before the first reference.
func (b *FusedBank) SetSnapshotClock(clock func() uint64) { b.clock = clock }

// Bank returns a serial-bank view sharing this bank's caches, for code
// that consumes *Bank results. On a sharded bank it is valid only after
// Drain.
func (b *FusedBank) Bank() *Bank { return &Bank{Caches: b.Caches} }

// SimulateSeconds returns the cumulative wall time spent in the strip
// filter and the fused simulate loops, and MergeSeconds the time in
// per-chunk stat merges and snapshot checks. A sharded bank sums its
// stage's and workers' clocks, so read either only after Drain; the sum
// can exceed the elapsed wall clock.
func (b *FusedBank) SimulateSeconds() float64 {
	return float64(b.inline.simNs+b.filter.ns) / 1e9
}

// MergeSeconds returns the cumulative wall time spent merging per-chunk
// counters into cache Stats (see SimulateSeconds).
func (b *FusedBank) MergeSeconds() float64 { return float64(b.inline.mergeNs) / 1e9 }

// StripRefs returns the bank's strip filter counts: offered, the
// references the filter read (the whole stream, on a filtered bank), and
// kept, the ones it passed to the plain lanes. Both are 0 on a bank with
// no filter. A sharded bank's filter runs on its filter stage, so read
// them only after Drain.
func (b *FusedBank) StripRefs() (offered, kept uint64) {
	return b.filter.offered, b.filter.kept
}

// ParallelBank is the former name of a sharded FusedBank.
//
// Deprecated: use FusedBank.
type ParallelBank = FusedBank

// NewParallelBank builds a bank sharded across GOMAXPROCS workers.
//
// Deprecated: use NewFusedBankWorkers.
func NewParallelBank(cfgs []Config) *FusedBank {
	return NewFusedBankWorkers(cfgs, runtime.GOMAXPROCS(0))
}

var _ mem.Tracer = (*FusedBank)(nil)
var _ mem.BatchTracer = (*FusedBank)(nil)
