package cache

import (
	"testing"

	"gcsim/internal/mem"
)

// oracleCache is an independent model of one LRU set-associative cache,
// direct-mapped at one way, written from the paper's description rather
// than from Cache or AssocCache: a map from set index to the set's
// resident lines in recency order, division and remainder for the address
// split, and no code shared with either. It is slow and plainly right, and
// the fused kernel and AssocCache are checked against it.
type oracleCache struct {
	cfg  AssocConfig
	sets map[uint64][]*oracleLine // set index -> resident lines, most recently used first
	S    Stats
}

type oracleLine struct {
	block uint64 // block number of the resident block
	valid []bool // per word of the block: does it hold data?
	dirty bool
}

func newOracleCache(cfg AssocConfig) *oracleCache {
	return &oracleCache{cfg: cfg, sets: make(map[uint64][]*oracleLine)}
}

// oracleStats runs refs through a fresh oracle of cfg and returns its Stats.
func oracleStats(cfg AssocConfig, refs []mem.Ref) Stats {
	o := newOracleCache(cfg)
	for _, r := range refs {
		o.access(r.Addr(), r.Write(), r.Collector())
	}
	return o.S
}

// access simulates one reference to word address addr.
func (o *oracleCache) access(addr uint64, write, collector bool) {
	// Byte addresses are 64 bits wide, so the byte address of a word at or
	// above 2^61 wraps modulo 2^64.
	byteAddr := addr * mem.WordBytes
	blockBytes := uint64(o.cfg.BlockBytes)
	block := byteAddr / blockBytes
	set := block % (uint64(o.cfg.SizeBytes) / blockBytes / uint64(o.cfg.Ways))
	word := byteAddr % blockBytes / mem.WordBytes

	s := &o.S
	switch {
	case collector && write:
		s.GCWrites++
	case collector:
		s.GCReads++
	case write:
		s.Writes++
	default:
		s.Reads++
	}

	lines := o.sets[set]
	for i, line := range lines {
		if line.block != block {
			continue
		}
		// A hit: the line becomes the most recently used.
		copy(lines[1:i+1], lines[:i])
		lines[0] = line
		if write {
			line.valid[word] = true
			line.dirty = true
		} else if !line.valid[word] {
			// A word of a write-validate claim that was never written.
			line.fetch()
			o.countReadMiss(collector)
		}
		return
	}

	// Miss: a full set evicts its least recently used line, writing it back
	// if dirty.
	if len(lines) == o.cfg.Ways {
		if lines[len(lines)-1].dirty {
			if collector {
				s.GCWritebacks++
			} else {
				s.Writebacks++
			}
		}
		lines = lines[:len(lines)-1]
	}
	line := &oracleLine{block: block, valid: make([]bool, blockBytes/mem.WordBytes), dirty: write}
	o.sets[set] = append([]*oracleLine{line}, lines...)
	switch {
	case !write:
		line.fetch()
		o.countReadMiss(collector)
	case collector: // the collector always fetches on write
		line.fetch()
		s.GCWriteMisses++
	case o.cfg.Policy == FetchOnWrite:
		line.fetch()
		s.WriteMisses++
	default: // write-validate: claim the line, validate the written word
		line.valid[word] = true
		s.WriteAllocs++
	}
}

// fetch reads the whole block from memory: every word becomes valid.
func (l *oracleLine) fetch() {
	for w := range l.valid {
		l.valid[w] = true
	}
}

func (o *oracleCache) countReadMiss(collector bool) {
	if collector {
		o.S.GCReadMisses++
	} else {
		o.S.ReadMisses++
	}
}

// oracleBases are the bases a fuzzed reference's address is an offset
// from: the three regions, the word address just below 2^61 (whose byte
// address is the last before the 64-bit wrap), and the top of the 62-bit
// word-address range. Offsets reach 2^11 words, so the last two bases
// alias each other after the wrap.
var oracleBases = [5]uint64{
	mem.StackBase,
	mem.StaticBase,
	mem.DynBase,
	1<<61 - 1<<11,
	1<<62 - 1<<11,
}

// decodeOracleInput turns fuzz bytes into a sweep and a reference stream:
//
//	byte 0      number of configurations, 1 + b%8
//	byte 1      chunk size, 1 + b*16 refs
//	2 per cfg   a: block 8<<(a%7) bytes (8..512), policy a>>7;
//	            b: size 64<<(b%11) bytes (64 B..64 KiB), at least one block
//	2 per ref   f: bit 0 write, bit 1 collector, bits 2-4 base (mod 5),
//	            bits 5-7 offset bits 8-10; then offset bits 0-7
func decodeOracleInput(data []byte) (cfgs []Config, chunk int, refs []mem.Ref) {
	if len(data) < 2 {
		return nil, 1, nil
	}
	n, chunk := 1+int(data[0]%8), 1+int(data[1])*16
	data = data[2:]
	for ; n > 0 && len(data) >= 2; n-- {
		a, b := data[0], data[1]
		data = data[2:]
		block, size := 8<<(a%7), 64<<(b%11)
		cfgs = append(cfgs, Config{SizeBytes: max(size, block), BlockBytes: block, Policy: WritePolicy(a >> 7)})
	}
	for ; len(data) >= 2; data = data[2:] {
		f, lo := data[0], data[1]
		addr := oracleBases[(f>>2)%8%5] + (uint64(f>>5)<<8 | uint64(lo))
		refs = append(refs, mem.MakeRef(addr, f&1 != 0, f&2 != 0))
	}
	return cfgs, chunk, refs
}

// matchOracle requires the oracle, the serial Bank and the FusedBank,
// inline and on two workers, to accumulate equal Stats for every config.
func matchOracle(t *testing.T, cfgs []Config, refs []mem.Ref, chunk int) {
	t.Helper()
	want := make([]Stats, len(cfgs))
	for i, cfg := range cfgs {
		want[i] = oracleStats(AssocConfig{SizeBytes: cfg.SizeBytes, BlockBytes: cfg.BlockBytes, Ways: 1, Policy: cfg.Policy}, refs)
	}
	check := func(name string, caches []*Cache) {
		t.Helper()
		for i, c := range caches {
			if c.S != want[i] {
				t.Fatalf("config %v: %s stats %+v, oracle %+v", cfgs[i], name, c.S, want[i])
			}
		}
	}
	serial := NewBank(cfgs)
	feedChunksOf(serial, refs, chunk)
	check("serial Bank", serial.Caches)
	for _, workers := range []int{1, 2} {
		fused := NewFusedBankWorkers(cfgs, workers)
		feedChunksOf(fused, refs, chunk)
		fused.Drain()
		check("FusedBank", fused.Caches)
	}
}

// oracleSeeds are the fuzz target's seed inputs: streams with locality in
// every base over assorted geometries, the 64-bit byte-address wrap, and
// banks large enough for the FusedBank's strip filter.
func oracleSeeds() [][]byte {
	rng := uint64(0x2545F4914F6CDD1D)
	next := func() byte {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return byte(rng)
	}
	var seeds [][]byte
	for s := 0; s < 4; s++ {
		data := []byte{7, byte(s * 60)}
		for i := 0; i < 16; i++ {
			data = append(data, next())
		}
		// Offsets wander within a small window, so lines are reused,
		// claimed, dirtied and evicted.
		for i, off := 0, 0; i < 1500; i++ {
			off = (off + int(next()%16) - 7) & 0x7ff
			f := next()&0x1f | byte(off>>8)<<5
			data = append(data, f, byte(off))
		}
		seeds = append(seeds, data)
	}
	// One 16-byte-block cache. A program write at the top of the range,
	// then a read of the word 2^61 below it: the same byte address, so a
	// read hit on the claimed word, not a conflict miss.
	const top, belowWrap = 4 << 2, 3 << 2
	seeds = append(seeds, []byte{0, 0, 1, 4, top | 1, 5, belowWrap, 5, top, 4, belowWrap | 2, 5})

	// Strip groups: three or more configs on one block size, so the
	// FusedBank filters them, inline and on two workers. walk appends n
	// refs with random write and collector flags whose offsets wander in
	// small steps within span words from lo, at bases drawn from bases.
	walk := func(data, bases []byte, lo, span, n int) []byte {
		for i, off := 0, 0; i < n; i++ {
			off = (off + int(next()%8) + span - 3) % span
			a := lo + off
			f := next()&3 | bases[int(next())%len(bases)]<<2 | byte(a>>8)<<5
			data = append(data, f, byte(a))
		}
		return data
	}
	// Five 8-byte-block caches (config byte a = 0 or 0x85) at the top of
	// the word range, on both sides of the 2^61 wrap, where block numbers
	// use every bit below the filter's written flag.
	seeds = append(seeds, walk([]byte{4, 3, 0, 0, 0x85, 1, 0, 2, 0x85, 0, 7, 3}, []byte{3, 4}, 0x780, 0x80, 1500))
	// Six 512-byte-block caches (a = 6 or 0x84): word offsets cover the
	// whole 64-word mask.
	seeds = append(seeds, walk([]byte{5, 2, 6, 3, 6, 4, 0x84, 5, 0x84, 4, 6, 6, 0x84, 3}, []byte{0, 2}, 0, 0x400, 1500))
	// Six 16-byte-block caches (a = 1 or 0x86), two of them three times
	// and twice, fed one ref per chunk.
	seeds = append(seeds, walk([]byte{5, 0, 1, 2, 1, 2, 0x86, 3, 0x86, 3, 1, 4, 1, 2}, []byte{1, 2}, 0, 0x100, 1500))

	// A bank whose smallest cache is below its coarsest block: 512-byte
	// blocks in 4 and 1 KiB caches (a = 6 or 0x84), 256-byte caches of
	// 16-byte blocks (a = 1 or 0x86, b = 2) and 64-byte blocks in 1 and 2
	// KiB (a = 0x81 or 3). The bank runs unfiltered, inline and on two
	// workers. Fed the survivors of a 512-byte filter sized from the
	// 512-byte lanes alone, the 16-byte lanes would lose the misses of words
	// their 256 bytes cannot hold.
	seeds = append(seeds, walk([]byte{5, 3, 6, 6, 0x84, 4, 1, 2, 0x86, 2, 0x81, 4, 3, 5}, []byte{2}, 0, 0x100, 1500))
	// Program and collector writes to different 16-byte blocks of one
	// 64-byte block, which the 64-byte filter then sees written; then reads
	// of all four 16-byte blocks, and writes of all four: the first two
	// re-write written words, the other two first-write words only read so
	// far, which must reach the 16-byte lanes to dirty their blocks. 64-byte
	// blocks in 128, 256 and 512 bytes (a = 3 or 0x81) and 16-byte blocks in
	// 128, 256 and 512 bytes (a = 0x86 or 1). Inline and on two workers
	// the 16-byte lanes take the survivors of the bank's 64-byte filter. The 64-byte blocks cycle through 1 KiB, so lines are
	// evicted and their write-backs counted.
	data := []byte{5, 1, 3, 2, 0x81, 3, 0x86, 1, 1, 2, 1, 3, 3, 1}
	ref := func(word int, write, collector bool) {
		f := byte(2<<2) | byte(word>>8)<<5 // the dynamic base
		if write {
			f |= 1
		}
		if collector {
			f |= 2
		}
		data = append(data, f, byte(word))
	}
	for i := 0; i < 256; i++ {
		c := 0x100 + i*5%16*8 // the first word of a 64-byte block
		ref(c, true, false)
		ref(c+2, true, true)
		for w := 0; w < 8; w += 2 {
			ref(c+w, false, w&2 != 0)
		}
		for w := 0; w < 8; w += 2 {
			ref(c+w, true, w&2 != 0)
		}
	}
	seeds = append(seeds, data)

	// Three 512-byte lanes that cannot filter: 512-byte blocks in 1, 2 and
	// 4 KiB (a = 6 or 0x84) beside 256-byte caches of 16-byte blocks (a =
	// 0x86 or 1, b = 2) and 64-byte blocks in 512 bytes and 1 KiB (a = 0x81
	// or 3). The smallest cache, 256 bytes, is below the 512-byte block, so
	// the bank runs unfiltered, inline and on two workers, although the
	// second worker's two 16-byte and two 64-byte lanes alone would hold a
	// 64-byte filter of 256 bytes.
	seeds = append(seeds, walk([]byte{7, 3, 6, 4, 0x86, 2, 0x84, 5, 1, 2, 6, 6, 0x81, 3, 0x86, 2, 3, 4}, []byte{1, 2}, 0, 0x100, 1500))
	// A finer block size holding the bank's smallest cache: 256-byte
	// blocks in 2 and 4 KiB (a = 5 or 0x83), one 256-byte cache of 64-byte
	// blocks (a = 0x81, b = 2) and 16-byte blocks in 1 and 2 KiB (a = 1 or
	// 0x86). The 256-byte filter is 256 bytes, one set, because the lone
	// 64-byte lane simulates its survivors: inline, and on two workers,
	// whose second worker takes that lane and two 16-byte ones. A filter
	// sized from the first worker's caches alone, 2 KiB, would drop refs
	// that miss in that lane.
	seeds = append(seeds, walk([]byte{6, 2, 5, 6, 0x81, 2, 0x83, 5, 1, 4, 5, 6, 0x86, 4, 1, 5}, []byte{1, 2}, 0, 0x100, 1500))

	// Seed #8's configs, whose smallest cache, 256 bytes, is below their
	// 512-byte block, so the bank may not filter. For each of 16 consecutive
	// 512-byte blocks: read its first word, the word 256 bytes on, and the
	// first word again. In a 256-byte cache of 16-byte blocks the second
	// read evicts the first word, so the third misses; a filter of one
	// 512-byte set would drop it.
	data = []byte{5, 3, 6, 6, 0x84, 4, 1, 2, 0x86, 2, 0x81, 4, 3, 5}
	for b := 0; b < 16; b++ {
		first := b * 512 / mem.WordBytes
		ref(first, false, false)
		ref(first+256/mem.WordBytes, false, false)
		ref(first, false, false)
	}
	return append(seeds, data)
}

// FuzzFusedBankOracle differential-fuzzes the simulate kernel against
// the oracle over random geometries, write policies, chunkings and
// reference streams with write and collector flags, at addresses from
// the stack region to the top of the 62-bit range (decodeOracleInput).
func FuzzFusedBankOracle(f *testing.F) {
	for _, seed := range oracleSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cfgs, chunk, refs := decodeOracleInput(data)
		matchOracle(t, cfgs, refs, chunk)
	})
}

// FuzzAssocCacheOracle differential-fuzzes AssocCache against the oracle
// over FuzzFusedBankOracle's inputs, config i given 1<<(i%4) ways, capped
// at its block count: AccessBatch over the input's chunking and
// per-reference Access must both accumulate the oracle's Stats.
func FuzzAssocCacheOracle(f *testing.F) {
	for _, seed := range oracleSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cfgs, chunk, refs := decodeOracleInput(data)
		for i, cfg := range cfgs {
			acfg := AssocConfig{SizeBytes: cfg.SizeBytes, BlockBytes: cfg.BlockBytes, Policy: cfg.Policy,
				Ways: min(1<<(i%4), cfg.SizeBytes/cfg.BlockBytes)}
			want := oracleStats(acfg, refs)
			batch, single := NewAssoc(acfg), NewAssoc(acfg)
			feedChunksOf(batch, refs, chunk)
			for _, r := range refs {
				single.Access(r.Addr(), r.Write(), r.Collector())
			}
			if batch.S != want || single.S != want {
				t.Fatalf("config %v: AccessBatch stats %+v, Access %+v, oracle %+v", acfg, batch.S, single.S, want)
			}
		}
	})
}

// TestOracleMatchesFigure1Grid runs the oracle check over the paper's
// 40-config grid, write policies alternating, on the realistic synthetic
// stream, in the pipeline's chunk size.
func TestOracleMatchesFigure1Grid(t *testing.T) {
	cfgs := SweepConfigs(WriteValidate)
	for i := 1; i < len(cfgs); i += 2 {
		cfgs[i].Policy = FetchOnWrite
	}
	matchOracle(t, cfgs, synthStream(60_000), mem.ChunkRefs)
}
