// Exact reference stripping (trace stripping, Puzak 1985, made exact for
// write-validate's per-word valid bits and for dirty bits). A shard runs
// each chunk through chains of tag-only direct-mapped filters, from its
// coarsest block size to its finest. A chain's head filters the chunk; a
// later block size of at least stripMinLanes lanes filters the survivors
// of the last filter above it, and one of fewer lanes has no filter of its
// own. Each block size's plain lanes simulate the survivors of the last
// filter at or above them.
//
// A filter with block size B has a capacity C, the smallest cache among
// its own lanes and every finer lane below it in the chain, so its set
// count is C/B. A chain whose head would have C < B breaks there: the
// head's lanes form a chain alone, with their own smallest cache, and the
// next finer block size starts a new chain on the whole chunk. A chain of
// fewer than stripMinLanes lanes has no filter. Capacities can only grow,
// and block sizes only shrink, down a chain, so a chain breaks at its head
// or not at all.
//
// Why dropping a reference is exact, by induction over the stream: say
// every reference dropped so far, by any filter, was a hit that changed no
// lane at or below that filter, so every lane holds the state the whole
// stream would have given it. Take a filter F, a lane L at or below it in
// its chain (L simulates the survivors of F or of a filter below F), and a
// block b that has held its F set since time t0. L's block size divides
// F's and F's capacity divides L's size (all are powers of two), so the
// address bits that pick F's set are a subset of those that pick L's:
// references in one L set are in one F set. Since t0,
// every reference in b's F set either reached F, and so was to b, or was
// dropped above F, a no-op for L. So each of L's sets holding a part of b
// saw only that part of b, and no-op hits, since t0. A word of b that F
// saw referenced since t0 is therefore valid in L, and one F saw written
// left its L block dirty. A read of a word referenced since t0, or a write
// of a word written since t0, is then a hit that changes no state in L, of
// either write policy, program or collector. F drops exactly those, and
// passes everything else on in stream order.
//
// A write is dropped only when that same word was written: a coarse block
// written since t0 may have been written through another of its fine
// blocks, dirty in a fine lane while the one holding this word is not.
//
// The argument needs every reference a lane sees to pass through its
// chain first, in stream order, and nothing else to change the lanes'
// state: so a FusedBank's caches are fed only through the bank.
package cache

import "gcsim/internal/mem"

// stripMinLanes is the smallest number of lanes, of any block sizes, for
// which a chain pays for its head's filter, and the smallest number a
// finer block size needs for a filter of its own: a finer filter drops
// few of the head's survivors, so with one or two lanes behind it, it
// cost more than it saved. Lanes inline, on one block size, over the
// first 8M refs of tc and lambda: two lanes ran 0.85-1.08x as fast as
// without a filter, three 1.14-1.49x, four 1.41-1.55x. One lane each of
// 16-, 64- and 256-byte blocks behind the head's filter alone: 1.6-1.7x
// on localStream (BenchmarkFusedGroup), 1.24-1.67x on tc's whole trace
// and 1.03-1.30x on lambda's, where a filter on each block size ran 0.83x
// (DESIGN.md, "Strip filter").
const stripMinLanes = 3

// stripEntry is one filter set, 24 bytes: the block that last took it,
// and masks of its words seen since, indexed by the packed ref's write bit
// (r>>63): seen[0] the words referenced, seen[1] the words written. An
// entry with no words knows nothing, so the zero filter passes every
// reference and clearing a filter is always safe.
type stripEntry struct {
	tag  uint64
	seen [2]uint64
}

// stripFilter is one block size's filter. sets has a power-of-two length,
// the filter's capacity over its block size.
type stripFilter struct {
	sets     []stripEntry
	shift    uint   // log2(block bytes), as the lanes'
	wordMask uint64 // words per block - 1
}

// strip writes to out, in order, the references of refs that can change
// some lane below the filter, and returns how many it wrote; out must be
// at least as long as refs, and may be refs itself (the filter compacts in
// place). A dropped reference stores nothing, so the common path is two
// loads, two compares and two branches, none on the reference's kind, with
// no store for the next reference's load to wait on. A branch-free form
// that stored every entry back ran 1.2x slower on localStream and no
// faster on tc's trace.
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
