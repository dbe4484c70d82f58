// Exact reference stripping (trace stripping, Puzak 1985, made exact for
// write-validate's per-word valid bits and for dirty bits). When at least
// stripMinLanes lanes of a shard share a block size B, the shard runs each
// chunk once through a tag-only direct-mapped filter with the set count S0
// of the group's smallest cache, and simulates the group's plain lanes on
// the survivors alone.
//
// Why dropping a reference is exact: every lane of the group has block
// size B and a power-of-two set count S that is a multiple of S0. Suppose
// block b has held filter set s since time t0. Every reference since t0
// that maps to s (mod S0) was to b, so in every lane b's set (mod S) saw
// only b: b has been resident in every lane since t0, and none of its
// valid or dirty bits was cleared. Every word referenced since t0 is
// therefore valid in every lane, and if any of those references wrote, b
// is dirty in every lane. A read of such a word, or a write of such a word
// of a written block, is then a hit that changes no state in any lane, of
// either write policy, program or collector. The filter drops exactly
// those, and passes everything else on in stream order.
//
// The argument needs every reference a lane sees to pass through its
// group's filter first, in stream order, and nothing else to change the
// lanes' state: so a FusedBank's caches are fed only through the bank.
package cache

import "gcsim/internal/mem"

// stripMinLanes is the smallest number of lanes sharing a block size on
// one shard for which the filter pass pays for itself: on the first 8M
// refs of tc and lambda, lanes inline, two lanes ran 0.85-1.08x as fast as
// without it, three 1.14-1.49x, four 1.41-1.55x (DESIGN.md, "Strip
// filter").
const stripMinLanes = 3

// stripWritten flags, in a filter entry's tag, a block written since it
// took its set. It is the packed ref's write bit, so a reference's flag is
// r & stripWritten; block numbers are below 2^61 (the block shift is at
// least 3), so it never collides with one.
const stripWritten = uint64(mem.RefWrite)

// stripEntry is one filter set: the block that last took it (with the
// stripWritten flag) and the mask of its words referenced since. An entry
// with no words knows nothing, so the zero filter passes every reference
// and clearing a filter is always safe.
type stripEntry struct {
	tag   uint64
	words uint64
}

// stripFilter is one block-size group's filter. sets has a power-of-two
// length, the set count of the group's smallest cache.
type stripFilter struct {
	sets     []stripEntry
	shift    uint   // log2(block bytes), as the lanes'
	wordMask uint64 // words per block - 1
}

// strip writes to out, in order, the references of refs that can change
// some lane of the group, and returns how many it wrote; out must be at
// least as long as refs. A dropped reference stores nothing, so the
// common path is two loads, two compares and a branch, with no store for
// the next reference's load to wait on. A branch-free form that stored
// every entry back ran 1.2x slower on localStream and no faster on tc's
// trace.
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
		w := uint64(r) & stripWritten
		if e.tag&^stripWritten == blockNum {
			if e.words&bit != 0 && w&^e.tag == 0 {
				continue // a known word, and not the block's first write
			}
			e.tag |= w
			e.words |= bit
		} else {
			e.tag, e.words = blockNum|w, bit // the block takes the set
		}
		out[n] = r
		n++
	}
	return n
}
