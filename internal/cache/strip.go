// Exact reference stripping (trace stripping, Puzak 1985, made exact for
// write-validate's per-word valid bits and for dirty bits). A bank of at
// least stripMinLanes lanes runs each chunk through one tag-only
// direct-mapped filter at its coarsest block size, and every plain lane,
// on whichever worker, simulates the filter's survivors.
//
// The filter's block size B is the bank's coarsest, and its capacity C
// the bank's smallest cache, so its set count is C/B. A bank whose C is
// smaller than B runs unfiltered.
//
// Why dropping a reference is exact, by induction over the stream: say
// every reference dropped so far was a hit that changed no lane, so every
// lane holds the state the whole stream would have given it. Take a lane
// L and a block b that has held its filter set since time t0. L's block
// size divides B and C divides L's size (all are powers of two), so the
// address bits that pick the filter's set are a subset of those that pick
// L's: references in one L set are in one filter set. Since t0, every
// reference in b's filter set was to b, or was dropped, a no-op for L. So
// each of L's sets holding a part of b saw only that part of b, and no-op
// hits, since t0. A word of b that the filter saw referenced since t0 is
// therefore valid in L, and one it saw written left its L block dirty. A
// read of a word referenced since t0, or a write of a word written since
// t0, is then a hit that changes no state in L, of either write policy,
// program or collector. The filter drops exactly those, and passes
// everything else on in stream order.
//
// A write is dropped only when that same word was written: a coarse block
// written since t0 may have been written through another of its fine
// blocks, dirty in a fine lane while the one holding this word is not.
//
// The argument needs every reference a lane sees to pass through the
// filter first, in stream order, and nothing else to change the lanes'
// state: so a FusedBank's caches are fed only through the bank.
//
// The survivors are exact for any bank whose filter has the same geometry
// (StripGeometry), since the argument needs only that every lane's block
// divides B and C divides its size. A bank with no instrumented lane and
// no snapshots merges only kind counts per chunk, so it can tee its
// survivors out (FusedBank.TeeSurvivors), and a later bank of the same
// geometry can replay them in place of the stream, adding the stream's
// kind totals once at Drain (FusedBank.FeedStripped).
package cache

import "gcsim/internal/mem"

// StripGeometry returns the geometry of the strip filter a bank of cfgs
// runs: block, its coarsest block size, and capacity, its smallest cache,
// both in bytes. ok is false when such a bank runs unfiltered: it has
// fewer than stripMinLanes configurations, or its smallest cache is
// smaller than its coarsest block.
func StripGeometry(cfgs []Config) (block, capacity int, ok bool) {
	if len(cfgs) < stripMinLanes {
		return 0, 0, false
	}
	block, capacity = cfgs[0].BlockBytes, cfgs[0].SizeBytes
	for _, c := range cfgs[1:] {
		block = max(block, c.BlockBytes)
		capacity = min(capacity, c.SizeBytes)
	}
	return block, capacity, capacity >= block
}

// stripMinLanes is the smallest number of lanes, of any block sizes, for
// which a bank's filter pays: with one or two lanes behind it, it cost
// more than it saved. Lanes inline, on one block size, over the first 8M
// refs of tc and lambda: two lanes ran 0.85-1.08x as fast as without a
// filter, three 1.14-1.49x, four 1.41-1.55x. One lane each of 16-, 64-
// and 256-byte blocks: 1.6-1.7x on localStream (BenchmarkFusedGroup),
// 1.24-1.67x on tc's whole trace and 1.03-1.30x on lambda's (DESIGN.md,
// "Strip filter"). Instrumented lanes count toward it, since their hooks
// are attached after the bank is built.
const stripMinLanes = 3

// StripRule names the rule that decides which references survive the
// filter (stripFilter.strip), and what a lane counts of a reference it
// simulates or of one it is spared. Survivors stored under one rule are
// exact only for lanes of that rule, so a store of them keys them by it:
// bump it with any change to either.
const StripRule = 1

// stripEntry is one filter set, 24 bytes: the block that last took it,
// and masks of its words seen since, indexed by the packed ref's write bit
// (r>>63): seen[0] the words referenced, seen[1] the words written. An
// entry with no words knows nothing, so the zero filter passes every
// reference and clearing a filter is always safe.
type stripEntry struct {
	tag  uint64
	seen [2]uint64
}

// stripFilter is a bank's filter. sets has a power-of-two length, the
// filter's capacity over its block size.
type stripFilter struct {
	sets     []stripEntry
	shift    uint   // log2(block bytes), as the lanes'
	wordMask uint64 // words per block - 1
}

// strip writes to out, in order, the references of refs that can change
// some lane behind the filter, and returns how many it wrote; out must be
// at least as long as refs. A dropped reference stores nothing, so the
// common path is two loads, two compares and two branches, none on the
// reference's kind, with no store for the next reference's load to wait
// on. A branch-free form that stored every entry back ran 1.2x slower on
// localStream and no faster on tc's trace.
func (f *stripFilter) strip(refs, out []mem.Ref) int {
	sets := f.sets
	if len(sets) == 0 { // never, but it lets the compiler drop bounds checks
		return copy(out, refs)
	}
	idxMask := uint64(len(sets) - 1)
	shift, wordMask := f.shift, f.wordMask
	n := 0
	for _, r := range refs {
		blockNum := uint64(r<<3) >> (shift & 63)
		e := &sets[blockNum&idxMask]
		bit := uint64(1) << (uint64(r) & wordMask & 63)
		w := uint64(r) >> 63 // 1 for a write
		if e.tag == blockNum {
			if e.seen[w]&bit != 0 {
				continue // a read of a referenced word, or a write of a written one
			}
			e.seen[0] |= bit
			e.seen[1] |= bit & -w
		} else { // the block takes the set
			e.tag, e.seen[0], e.seen[1] = blockNum, bit, bit&-w
		}
		out[n] = r
		n++
	}
	return n
}
