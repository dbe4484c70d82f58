package cache

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"gcsim/internal/mem"
)

// synthStream generates a deterministic reference stream with the shape
// the simulator actually sees: a linear allocation sweep through the
// dynamic area, stack-top churn, a busy static cell, and periodic
// collector-mode bursts.
func synthStream(n int) []mem.Ref {
	refs := make([]mem.Ref, 0, n)
	rng := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	frontier := mem.DynBase
	for len(refs) < n {
		switch next() % 8 {
		case 0, 1, 2: // allocation: write fresh dynamic words
			for i := 0; i < 4 && len(refs) < n; i++ {
				refs = append(refs, mem.MakeRef(frontier, true, false))
				frontier++
			}
		case 3, 4: // revisit recently allocated data
			if frontier == mem.DynBase {
				continue
			}
			back := next() % 4096
			addr := frontier - 1 - back%(frontier-mem.DynBase)
			refs = append(refs, mem.MakeRef(addr, next()%4 == 0, false))
		case 5: // stack churn
			refs = append(refs, mem.MakeRef(mem.StackBase+next()%256, next()%2 == 0, false))
		case 6: // busy static cell
			refs = append(refs, mem.MakeRef(mem.StaticBase+17, false, false))
		default: // collector-mode burst
			for i := 0; i < 3 && len(refs) < n; i++ {
				refs = append(refs, mem.MakeRef(mem.DynBase+next()%(1<<20), i == 0, true))
			}
		}
	}
	return refs
}

// localStream generates a deterministic reference stream with a
// program's reuse, the shape the strip filter sees on recorded traces:
// frame pushes and pops over a small stack window, an allocation sweep
// whose words are read back, and updated, soon after, and a few collector
// bursts that read scattered live words and copy them to a to-space.
func localStream(n int) []mem.Ref {
	refs := make([]mem.Ref, 0, n)
	rng := uint64(0x853C49E6748FEA9B)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	emit := func(addr uint64, write, collector bool) {
		if len(refs) < n {
			refs = append(refs, mem.MakeRef(addr, write, collector))
		}
	}
	const window = 512 // stack words
	var sp uint64      // stack depth in words
	frontier, toSpace := mem.DynBase+1<<20, mem.DynBase+1<<22
	for len(refs) < n {
		switch k := next() % 64; {
		case k < 20 && sp+4 <= window: // push a frame
			for i := uint64(0); i < 4; i++ {
				emit(mem.StackBase+sp+i, true, false)
			}
			sp += 4
		case k < 36 && sp >= 4: // pop a frame, reading it
			sp -= 4
			for i := uint64(0); i < 4; i++ {
				emit(mem.StackBase+sp+i, false, false)
			}
		case k < 48: // allocate a 3-word object and read it back
			for i := uint64(0); i < 3; i++ {
				emit(frontier+i, true, false)
			}
			emit(frontier, false, false)
			emit(frontier+2, false, false)
			frontier += 3
		case k < 56: // read a recent object's field
			emit(frontier-1-next()%512, false, false)
		case k < 63: // read, then update, a recent object's field
			addr := frontier - 1 - next()%512
			emit(addr, false, false)
			emit(addr, true, false)
		case next()%16 == 0: // a collector burst
			for i := 0; i < 32; i++ {
				emit(frontier-1-next()%(1<<16), false, true)
				emit(toSpace, true, true)
				toSpace++
			}
		}
	}
	return refs
}

// benchConfigs is an 8-configuration sweep (the full size range at 64-byte
// blocks), the shape gcSweepConfigs feeds every Section 6 experiment.
func benchConfigs() []Config {
	var cfgs []Config
	for _, s := range Sizes {
		cfgs = append(cfgs, Config{SizeBytes: s, BlockBytes: 64, Policy: WriteValidate})
	}
	return cfgs
}

// fig1Configs is the Figure 1 grid, all 40 size x block configurations,
// write policies alternating.
func fig1Configs() []Config {
	cfgs := SweepConfigs(WriteValidate)
	for i := 1; i < len(cfgs); i += 2 {
		cfgs[i].Policy = FetchOnWrite
	}
	return cfgs
}

// feedChunks replays a stream through a BatchTracer in pipeline-sized
// chunks, as Memory does.
func feedChunks(t mem.BatchTracer, refs []mem.Ref) { feedChunksOf(t, refs, mem.ChunkRefs) }

// feedChunksOf replays refs through t in chunks of the given size.
func feedChunksOf(t mem.BatchTracer, refs []mem.Ref, chunk int) {
	for len(refs) > 0 {
		n := min(len(refs), chunk)
		t.RefBatch(refs[:n])
		refs = refs[n:]
	}
}

// feeds are the bank's two chunk entry points, which share one chunk
// path: RefBatch (live) and ChunkBatch (replay, unstamped here).
var feeds = []struct {
	name string
	feed func(b *FusedBank, refs []mem.Ref)
}{
	{"RefBatch", func(b *FusedBank, refs []mem.Ref) { feedChunks(b, refs) }},
	{"ChunkBatch", func(b *FusedBank, refs []mem.Ref) {
		for len(refs) > 0 {
			n := min(len(refs), mem.ChunkRefs)
			b.ChunkBatch(refs[:n], 0)
			refs = refs[n:]
		}
	}},
}

// workerCounts are the shard sizes every sharding test runs: inline, the
// smallest sharded pools, one worker per lane, and an oversized request.
func workerCounts(cfgs []Config) []int { return []int{1, 2, 3, len(cfgs), len(cfgs) + 5} }

func sameStats(t *testing.T, want, got []*Cache) {
	t.Helper()
	for i, sc := range want {
		if fc := got[i]; sc.S != fc.S {
			t.Errorf("config %v: serial stats %+v != fused stats %+v", sc.Config(), sc.S, fc.S)
		}
	}
}

// TestFusedBankMatchesSerialBank is the golden equivalence check for the
// fused kernel: every configuration of a mixed write-validate /
// fetch-on-write sweep must accumulate bitwise-identical Stats whether the
// stream runs through the serial Bank or the fused single-pass loop, with
// the lanes inline or sharded across any number of workers, fed through
// either chunk entry point.
func TestFusedBankMatchesSerialBank(t *testing.T) {
	stream := synthStream(300_000)
	cfgs := append(SweepConfigs(WriteValidate), SweepConfigs(FetchOnWrite)...)

	serial := NewBank(cfgs)
	feedChunks(serial, stream)
	for _, sc := range serial.Caches {
		if sc.S.Misses() == 0 {
			t.Fatalf("config %v: no misses; equivalence is vacuous", sc.Config())
		}
	}

	for _, n := range workerCounts(cfgs) {
		for _, f := range feeds {
			t.Run(fmt.Sprintf("workers=%d/%s", n, f.name), func(t *testing.T) {
				fused := NewFusedBankWorkers(cfgs, n)
				// The pool never outnumbers the lanes; a pool of one runs inline.
				want := min(n, len(cfgs))
				if want == 1 {
					want = 0
				}
				if len(fused.workers) != want {
					t.Fatalf("pool has %d workers, want %d", len(fused.workers), want)
				}
				f.feed(fused, stream)
				fused.Drain()
				sameStats(t, serial.Caches, fused.Caches)
				// A sharded bank's worker clocks reach the bank at Drain.
				if fused.SimulateSeconds() <= 0 || fused.MergeSeconds() <= 0 {
					t.Errorf("stage clocks simulate=%v merge=%v, want both > 0", fused.SimulateSeconds(), fused.MergeSeconds())
				}
			})
		}
	}
}

// TestFusedBankBlockSizes sweeps block geometries (including the 64-word
// valid-mask edge and block==8 where every word is its own block) so the
// fused loop's hoisted masks are checked against every shift they can take.
func TestFusedBankBlockSizes(t *testing.T) {
	stream := synthStream(200_000)
	var cfgs []Config
	for _, bs := range []int{8, 16, 32, 64, 256, 512} {
		for _, p := range []WritePolicy{WriteValidate, FetchOnWrite} {
			cfgs = append(cfgs, Config{SizeBytes: 64 << 10, BlockBytes: bs, Policy: p})
		}
	}

	serial := NewBank(cfgs)
	feedChunks(serial, stream)
	fused := NewFusedBank(cfgs)
	feedChunks(fused, stream)
	sameStats(t, serial.Caches, fused.Caches)
}

// sameSnapshots requires identical snapshot sequences — stamps and
// sampled stats — cache by cache.
func sameSnapshots(t *testing.T, want, got []*Cache) {
	t.Helper()
	for i, sc := range want {
		ss, fs := sc.Snapshots(), got[i].Snapshots()
		if len(ss) == 0 || len(ss) != len(fs) {
			t.Fatalf("config %v: %d serial snapshots vs %d fused", sc.Config(), len(ss), len(fs))
		}
		for j := range ss {
			if ss[j] != fs[j] {
				t.Fatalf("config %v snapshot %d: serial %+v != fused %+v", sc.Config(), j, ss[j], fs[j])
			}
		}
	}
}

// TestFusedBankSnapshotsMatchSerial drives both banks with the same
// instruction clock and requires identical snapshot sequences, since
// replayed telemetry depends on it. A sharded bank reads the clock on the
// producer as the chunk is published, so its workers sample exactly
// where the inline bank does.
func TestFusedBankSnapshotsMatchSerial(t *testing.T) {
	stream := synthStream(250_000)
	cfgs := benchConfigs()

	run := func(bank interface {
		mem.BatchTracer
		SetSnapshotClock(func() uint64)
	}, caches []*Cache) {
		var insns uint64
		bank.SetSnapshotClock(func() uint64 { return insns })
		for _, c := range caches {
			c.EnableSnapshots(10_000)
		}
		refs := stream
		for len(refs) > 0 {
			n := min(len(refs), mem.ChunkRefs)
			// The synthetic "machine" retires 3 instructions per reference.
			insns += uint64(3 * n)
			bank.RefBatch(refs[:n])
			refs = refs[n:]
		}
	}

	serial := NewBank(cfgs)
	run(serial, serial.Caches)
	for _, n := range workerCounts(cfgs) {
		fused := NewFusedBankWorkers(cfgs, n)
		run(fused, fused.Caches)
		fused.Drain()
		sameSnapshots(t, serial.Caches, fused.Caches)
	}
}

// TestFusedBankChunkBatchStamps feeds pre-stamped chunks (the replay path)
// and checks snapshots land exactly where a clocked serial bank puts
// them, inline and sharded.
func TestFusedBankChunkBatchStamps(t *testing.T) {
	stream := synthStream(200_000)
	cfgs := benchConfigs()

	want := NewBank(cfgs)
	var insns uint64
	want.SetSnapshotClock(func() uint64 { return insns })
	for _, c := range want.Caches {
		c.EnableSnapshots(8_192)
	}
	for refs := stream; len(refs) > 0; {
		n := min(len(refs), mem.ChunkRefs)
		insns += uint64(2 * n)
		want.RefBatch(refs[:n])
		refs = refs[n:]
	}

	for _, w := range workerCounts(cfgs) {
		fused := NewFusedBankWorkers(cfgs, w)
		for _, c := range fused.Caches {
			c.EnableSnapshots(8_192)
		}
		var stamp uint64
		for refs := stream; len(refs) > 0; {
			n := min(len(refs), mem.ChunkRefs)
			stamp += uint64(2 * n)
			fused.ChunkBatch(refs[:n], stamp)
			refs = refs[n:]
		}
		fused.Drain()
		sameStats(t, want.Caches, fused.Caches)
		sameSnapshots(t, want.Caches, fused.Caches)
	}
}

// TestFusedBankInstrumentedLane checks that a lane with live hooks takes
// the instrumented path inside the fused bank: identical miss events and
// per-block counters to the serial cache, while uninstrumented lanes stay
// fused — including when the hook runs on a worker goroutine.
func TestFusedBankInstrumentedLane(t *testing.T) {
	stream := synthStream(50_000)
	cfg := Config{SizeBytes: 32 << 10, BlockBytes: 64, Policy: WriteValidate}
	cfgs := []Config{cfg, {SizeBytes: 64 << 10, BlockBytes: 64, Policy: WriteValidate}}

	serial := NewBank(cfgs)
	var wantEvents []MissEvent
	serial.Caches[0].OnMiss(func(e MissEvent) { wantEvents = append(wantEvents, e) })
	serial.Caches[0].EnableBlockStats()
	feedChunks(serial, stream)
	if len(wantEvents) == 0 {
		t.Fatal("no serial miss events recorded")
	}
	wantRefs, wantMisses := serial.Caches[0].BlockStats()

	for _, n := range workerCounts(cfgs) {
		for _, f := range feeds {
			fused := NewFusedBankWorkers(cfgs, n)
			var gotEvents []MissEvent
			// On a sharded bank the hook runs on the cache's worker; the
			// slice is touched by no one else until Drain.
			fused.Caches[0].OnMiss(func(e MissEvent) { gotEvents = append(gotEvents, e) })
			fused.Caches[0].EnableBlockStats()
			f.feed(fused, stream)
			fused.Drain()

			if len(wantEvents) != len(gotEvents) {
				t.Fatalf("workers=%d %s: %d serial events vs %d fused", n, f.name, len(wantEvents), len(gotEvents))
			}
			for i := range wantEvents {
				if wantEvents[i] != gotEvents[i] {
					t.Fatalf("workers=%d %s event %d: serial %+v != fused %+v", n, f.name, i, wantEvents[i], gotEvents[i])
				}
			}
			gotRefs, gotMisses := fused.Caches[0].BlockStats()
			for i := range wantRefs {
				if wantRefs[i] != gotRefs[i] || wantMisses[i] != gotMisses[i] {
					t.Fatalf("workers=%d %s block %d: serial (%d,%d) != fused (%d,%d)",
						n, f.name, i, wantRefs[i], wantMisses[i], gotRefs[i], gotMisses[i])
				}
			}
			sameStats(t, serial.Caches, fused.Caches)
		}
	}
}

// TestFusedBankPerRefTracer exercises the mem.Tracer fallback: one-ref
// chunks inline, staged chunks when sharded.
func TestFusedBankPerRefTracer(t *testing.T) {
	stream := synthStream(10_000)
	cfgs := benchConfigs()

	serial := NewBank(cfgs)
	for _, r := range stream {
		serial.Ref(r.Addr(), r.Write(), r.Collector())
	}
	for _, n := range workerCounts(cfgs) {
		fused := NewFusedBankWorkers(cfgs, n)
		for _, r := range stream {
			fused.Ref(r.Addr(), r.Write(), r.Collector())
		}
		fused.Drain()
		sameStats(t, serial.Caches, fused.Caches)
	}
}

// TestFusedBankRefThenBatchInOrder alternates the two producer entry
// points: a sharded bank stages Ref's references, and the RefBatch after
// them must publish them before its own chunk, so the lanes see the
// stream in order. The 8-config sweep shares one block size, so a strip
// filter is armed at both worker counts.
func TestFusedBankRefThenBatchInOrder(t *testing.T) {
	stream := synthStream(50_000)
	cfgs := benchConfigs()
	feed := func(tr interface {
		mem.Tracer
		mem.BatchTracer
	}) {
		for refs := stream; len(refs) > 0; {
			n := min(len(refs), 100)
			for _, r := range refs[:n] {
				tr.Ref(r.Addr(), r.Write(), r.Collector())
			}
			refs = refs[n:]
			n = min(len(refs), 300)
			tr.RefBatch(refs[:n])
			refs = refs[n:]
		}
	}
	serial := NewBank(cfgs)
	feed(serial)
	for _, n := range []int{1, 2} {
		fused := NewFusedBankWorkers(cfgs, n)
		feed(fused)
		fused.Drain()
		if offered, _ := fused.StripRefs(); offered == 0 {
			t.Errorf("workers=%d: no strip filter was armed", n)
		}
		sameStats(t, serial.Caches, fused.Caches)
	}
}

// settle waits until every chunk a sharded bank has published has been
// simulated by every worker: the last worker to finish a chunk returns it
// to the ring, so holding the whole ring means no chunk is in flight.
func settle(b *FusedBank) {
	if b.workers == nil {
		return
	}
	var held [fusedRing]*fusedChunk
	for i := range held {
		held[i] = <-b.free
	}
	for _, ck := range held {
		b.free <- ck
	}
}

// TestFusedBankStripState checks the strip filters' exactness on cache
// state, not only on Stats: after every chunk of a program-like stream,
// each lane's tags, valid bits and dirty bits must equal the serial
// Bank's, over the Figure 1 grid, inline and on two workers. Stats alone
// would miss a dropped reference whose effect shows only later, such as a
// dirty bit that is never written back. The filters must drop at least
// half of the stream, or the check would hardly exercise them.
func TestFusedBankStripState(t *testing.T) {
	stream := localStream(200_000)
	cfgs := fig1Configs()
	for _, n := range []int{1, 2} {
		serial := NewBank(cfgs)
		fused := NewFusedBankWorkers(cfgs, n)
		for refs, k := stream, 0; len(refs) > 0; k++ {
			m := min(len(refs), mem.ChunkRefs)
			serial.RefBatch(refs[:m])
			fused.RefBatch(refs[:m])
			refs = refs[m:]
			settle(fused)
			for i, sc := range serial.Caches {
				fc := fused.Caches[i]
				if !slices.Equal(sc.tags, fc.tags) || !slices.Equal(sc.valid, fc.valid) || !slices.Equal(sc.dirty, fc.dirty) {
					t.Fatalf("workers=%d config %v: state differs from the serial Bank's after chunk %d", n, sc.Config(), k)
				}
			}
		}
		fused.Drain()
		sameStats(t, serial.Caches, fused.Caches)
		offered, kept := fused.StripRefs()
		if offered == 0 || 2*kept > offered {
			t.Errorf("workers=%d: strip filters kept %d of %d refs, want at most half", n, kept, offered)
		}
	}
}

// TestFusedBankStripFilter checks where a bank builds its one strip
// filter, at its coarsest block size: on every bank of at least
// stripMinLanes lanes of any block sizes whose smallest cache holds that
// block, and on no other, however many workers its lanes are dealt to.
// The filter reads each chunk once, so offered is the stream on a filtered
// bank and 0 on an unfiltered one, and what it keeps does not depend on
// the worker count; the Stats must equal the serial Bank's either way.
func TestFusedBankStripFilter(t *testing.T) {
	stream := localStream(200_000)
	var mixed []Config
	for _, block := range []int{16, 64, 256} {
		mixed = append(mixed, Config{SizeBytes: 32 << 10, BlockBytes: block, Policy: WriteValidate})
	}
	// The smallest cache, 256 bytes, is below the coarsest block, 512.
	small := []Config{
		{SizeBytes: 4 << 10, BlockBytes: 512, Policy: WriteValidate},
		{SizeBytes: 256, BlockBytes: 16, Policy: WriteValidate},
		{SizeBytes: 256, BlockBytes: 16, Policy: FetchOnWrite},
	}
	// A gcsimd job's shape in the benchmark: four 64-byte-block configs.
	jobs := benchConfigs()[:4]
	cases := []struct {
		name     string // the shape, then the workers
		cfgs     []Config
		workers  int
		filtered bool
	}{
		{"grid/inline", fig1Configs(), 1, true},
		{"grid/workers=2", fig1Configs(), 2, true},
		{"grid/workers=3", fig1Configs(), 3, true},
		{"grid/workers=8", fig1Configs(), 8, true},
		{"one lane per block size", mixed, 1, true},
		{"one lane per block size/workers=3", mixed, 3, true},
		{"jobs/inline", jobs, 1, true},
		{"jobs/workers=2", jobs, 2, true},
		{"two lanes", mixed[:2], 1, false},
		{"two lanes/workers=2", mixed[:2], 2, false},
		{"smallest cache below the coarsest block", small, 1, false},
		{"smallest cache below the coarsest block/workers=2", small, 2, false},
	}
	keptByShape := map[string]uint64{}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			serial := NewBank(tc.cfgs)
			feedChunks(serial, stream)
			fused := NewFusedBankWorkers(tc.cfgs, tc.workers)
			feedChunks(fused, stream)
			fused.Drain()
			sameStats(t, serial.Caches, fused.Caches)
			offered, kept := fused.StripRefs()
			t.Logf("kept %.3fx the stream", float64(kept)/float64(max(offered, 1)))
			var want uint64
			if tc.filtered {
				want = uint64(len(stream))
			}
			if offered != want {
				t.Errorf("offered %d refs, want %d", offered, want)
			}
			shape, _, _ := strings.Cut(tc.name, "/")
			if first, ok := keptByShape[shape]; !ok {
				keptByShape[shape] = kept
			} else if kept != first {
				t.Errorf("kept %d refs, want %d, as on the shape's first worker count", kept, first)
			}
		})
	}
}

// TestFusedBankStrippable pins which banks tee their survivors and take
// a stripped stream: only a filtering bank with no instrumented lane and
// no snapshots. Every other bank refuses both, tees nothing, and
// simulates the whole stream as before; a teeing bank refuses a stripped
// stream and a fed one refuses to tee. A strippable bank's KindTotals are
// every cache's reference counts.
func TestFusedBankStrippable(t *testing.T) {
	stream := localStream(100_000)
	grid := fig1Configs()
	small := []Config{
		{SizeBytes: 4 << 10, BlockBytes: 512, Policy: WriteValidate},
		{SizeBytes: 256, BlockBytes: 16, Policy: WriteValidate},
		{SizeBytes: 256, BlockBytes: 16, Policy: FetchOnWrite},
	}
	cases := []struct {
		name  string
		cfgs  []Config
		arm   func(b *FusedBank) // hooks and snapshots, set before the stream
		strip bool
	}{
		{"grid", grid, func(*FusedBank) {}, true},
		{"two lanes", grid[:2], func(*FusedBank) {}, false},
		{"smallest cache below the coarsest block", small, func(*FusedBank) {}, false},
		{"miss hook", grid, func(b *FusedBank) { b.Caches[7].OnMiss(func(MissEvent) {}) }, false},
		{"block stats", grid, func(b *FusedBank) { b.Caches[0].EnableBlockStats() }, false},
		{"snapshots", grid, func(b *FusedBank) { b.Caches[39].EnableSnapshots(1000) }, false},
	}
	for _, tc := range cases {
		serial := NewBank(tc.cfgs)
		feedChunks(serial, stream)
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				teeing := NewFusedBankWorkers(tc.cfgs, workers)
				tc.arm(teeing)
				if got := teeing.Strippable(); got != tc.strip {
					t.Fatalf("Strippable = %v, want %v", got, tc.strip)
				}
				var tee survivorTee
				if got := teeing.TeeSurvivors(&tee); got != tc.strip {
					t.Fatalf("TeeSurvivors = %v, want %v", got, tc.strip)
				}
				if teeing.FeedStripped([4]uint64{}) {
					t.Fatal("a bank took a stripped stream after TeeSurvivors was called on it")
				}
				feedChunks(teeing, stream)
				teeing.Drain()
				sameStats(t, serial.Caches, teeing.Caches)
				s := serial.Caches[0].S
				if k := teeing.KindTotals(); k != [4]uint64{s.Reads, s.GCReads, s.Writes, s.GCWrites} {
					t.Errorf("KindTotals = %v, serial reference counts %+v", k, s)
				}
				want := uint64(0)
				if tc.strip {
					_, want = teeing.StripRefs()
				}
				if got := uint64(len(tee.refs())); got != want {
					t.Errorf("teed %d refs, want %d", got, want)
				}

				fed := NewFusedBankWorkers(tc.cfgs, workers)
				tc.arm(fed)
				if got := fed.FeedStripped(teeing.KindTotals()); got != tc.strip {
					t.Fatalf("FeedStripped = %v, want %v", got, tc.strip)
				}
				if fed.TeeSurvivors(&survivorTee{}) {
					t.Fatal("a bank teed after FeedStripped was called on it")
				}
				if tc.strip {
					feedChunks(fed, tee.refs())
				} else {
					feedChunks(fed, stream) // a refusing bank filters the stream itself
				}
				fed.Drain()
				sameStats(t, serial.Caches, fed.Caches)
			})
		}
	}
}

// TestFusedBankEmpty covers the degenerate shapes: no configs, empty
// chunks and an unfed bank, none of which may panic, deadlock, leak a
// chunk or record anything; Drain is idempotent on all of them.
func TestFusedBankEmpty(t *testing.T) {
	for _, n := range []int{1, 4} {
		empty := NewFusedBankWorkers(nil, n)
		empty.RefBatch(synthStream(10))
		empty.ChunkBatch(nil, 42)
		empty.Drain()
		empty.Drain()

		bank := NewFusedBankWorkers(benchConfigs(), n)
		bank.RefBatch(nil)
		bank.Drain()
		bank.Drain()
		for _, c := range bank.Caches {
			if c.S != (Stats{}) {
				t.Errorf("workers=%d: empty input accumulated stats: %+v", n, c.S)
			}
		}
		if bank.Bank().Find(benchConfigs()[0]) == nil {
			t.Error("Find failed on a bank config")
		}
		if bank.Bank().Find(Config{SizeBytes: 1 << 10, BlockBytes: 16}) != nil {
			t.Error("Find matched a config the bank does not hold")
		}
		if bank.Bank() == nil || len(bank.Bank().Caches) != len(bank.Caches) {
			t.Error("Bank() view does not share the caches")
		}
	}
}

// TestFusedBankStageHistogramsFirst: the filter stage must write a
// chunk's kind histogram before it hands the chunk on, since each worker
// merges it into its lanes' Stats. Each chunk here is one word read half
// a million times, which the filter drops after its first read, so a
// worker has almost nothing to simulate before it merges; a stage that
// handed the chunk on first would still be counting its kinds, and the
// workers would merge a histogram the chunk's ring slot held before.
func TestFusedBankStageHistogramsFirst(t *testing.T) {
	cfgs := benchConfigs()
	serial := NewBank(cfgs)
	fused := NewFusedBankWorkers(cfgs, 2)
	for i := 0; i < 3; i++ {
		chunk := make([]mem.Ref, 1<<19+i)
		for j := range chunk {
			chunk[j] = mem.MakeRef(mem.DynBase, false, i == 1)
		}
		serial.RefBatch(chunk)
		fused.RefBatch(chunk)
	}
	fused.Drain()
	sameStats(t, serial.Caches, fused.Caches)
}

// TestFusedBankDrainStopsGoroutines checks that Drain leaves none of a
// sharded bank's goroutines, its filter stage and its workers, running:
// on a filtered and an unfiltered bank, an unfed one, and one whose worker
// panicked, each drained twice.
func TestFusedBankDrainStopsGoroutines(t *testing.T) {
	stream := localStream(20 * mem.ChunkRefs) // more chunks than the ring holds
	feed := func(b *FusedBank) { feedChunks(b, stream) }
	cases := []struct {
		name  string
		cfgs  []Config
		feed  func(b *FusedBank)
		panic string // the panic the first Drain re-raises, if any
	}{
		{"filtered", fig1Configs(), feed, ""},
		{"unfiltered", benchConfigs()[:2], feed, ""},
		{"unfed", fig1Configs(), func(*FusedBank) {}, ""},
		{"worker panic", benchConfigs(), func(b *FusedBank) {
			b.Caches[1].OnMiss(func(MissEvent) { panic("lane boom") })
			feed(b)
		}, "lane boom"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			bank := NewFusedBankWorkers(tc.cfgs, 2)
			tc.feed(bank)
			drain := func() (r any) {
				defer func() { r = recover() }()
				bank.Drain()
				return nil
			}
			if r := drain(); tc.panic == "" && r != nil || tc.panic != "" && !strings.Contains(fmt.Sprint(r), tc.panic) {
				t.Fatalf("first Drain recovered %v, want %q", r, tc.panic)
			}
			if r := drain(); r != nil {
				t.Fatalf("second Drain recovered %v", r)
			}
			deadline := time.Now().Add(10 * time.Second)
			for runtime.NumGoroutine() > baseline {
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<20)
					t.Fatalf("%d goroutines after Drain, %d before the bank was built:\n%s",
						runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}

// TestFusedBankWorkerPanicReachesDrain: a panic in a worker's lane must
// not kill the process or stall the producer; Drain re-raises it on the
// caller's goroutine.
func TestFusedBankWorkerPanicReachesDrain(t *testing.T) {
	bank := NewFusedBankWorkers(benchConfigs(), 2)
	bank.Caches[1].OnMiss(func(MissEvent) { panic("lane boom") })
	feedChunks(bank, synthStream(20*mem.ChunkRefs)) // more chunks than the ring holds
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "lane boom") {
			t.Fatalf("Drain recovered %v, want the worker's panic", r)
		}
	}()
	bank.Drain()
}
