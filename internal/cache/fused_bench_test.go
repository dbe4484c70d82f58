package cache

import (
	"fmt"
	"runtime"
	"testing"

	"gcsim/internal/mem"
)

// benchBank measures refs/sec through a bank over the 8-config sweep.
func benchBank(b *testing.B, mk func() mem.BatchTracer) {
	stream := synthStream(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bank := mk()
		feedChunks(bank, stream)
		if fb, ok := bank.(*FusedBank); ok {
			fb.Drain()
		}
	}
	b.StopTimer()
	refs := float64(b.N) * float64(len(stream))
	b.ReportMetric(refs/b.Elapsed().Seconds(), "refs/s")
}

func BenchmarkSerialBank(b *testing.B) {
	benchBank(b, func() mem.BatchTracer { return NewBank(benchConfigs()) })
}

// BenchmarkFusedBank measures the fused single-pass sweep over the same
// 8-configuration stream as BenchmarkSerialBank — the headline tag-store
// lookup rate of the fused store, lanes inline.
func BenchmarkFusedBank(b *testing.B) {
	benchBank(b, func() mem.BatchTracer { return NewFusedBank(benchConfigs()) })
}

// BenchmarkFusedBankWorkers is the same sweep with the lanes sharded
// across GOMAXPROCS workers.
func BenchmarkFusedBankWorkers(b *testing.B) {
	benchBank(b, func() mem.BatchTracer {
		return NewFusedBankWorkers(benchConfigs(), runtime.GOMAXPROCS(0))
	})
}

// BenchmarkSerialBankPerRef is the pre-pipeline baseline: one interface
// call per reference per bank, as mem.Memory used to issue.
func BenchmarkSerialBankPerRef(b *testing.B) {
	stream := synthStream(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bank := NewBank(benchConfigs())
		var tr mem.Tracer = bank
		for _, r := range stream {
			tr.Ref(r.Addr(), r.Write(), r.Collector())
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*float64(len(stream))/b.Elapsed().Seconds(), "refs/s")
}

// BenchmarkFusedLane measures the raw fused kernel on a single
// configuration: the per-access floor the multi-lane loop builds on.
func BenchmarkFusedLane(b *testing.B) {
	stream := synthStream(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bank := NewFusedBank([]Config{{SizeBytes: 64 << 10, BlockBytes: 64, Policy: WriteValidate}})
		feedChunks(bank, stream)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*float64(len(stream))/b.Elapsed().Seconds(), "refs/s")
}

// BenchmarkFusedGrid runs the Figure 1 grid — all 40 size × block
// configurations, write policies alternating — over the synthetic stream
// with the lanes inline, and reports the fused kernel's cost in ns per
// config-ref, the unit of the benchmark harness's cache.ns_per_config_ref.
// Building each bank (allocating and clearing its tag arrays) is not timed.
func BenchmarkFusedGrid(b *testing.B) {
	benchConfigRefs(b, fig1Configs(), synthStream(1<<20), 1)
}

// benchConfigRefs runs stream through a fresh bank of cfgs on the given
// number of workers per iteration, building each bank untimed and draining
// it timed, and reports ns per config-ref and the share of the references
// offered to the bank's strip filter that it kept.
func benchConfigRefs(b *testing.B, cfgs []Config, stream []mem.Ref, workers int) {
	b.ReportAllocs()
	b.ResetTimer()
	var offered, kept uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		bank := NewFusedBankWorkers(cfgs, workers)
		b.StartTimer()
		feedChunks(bank, stream)
		bank.Drain()
		o, k := bank.StripRefs()
		offered, kept = offered+o, kept+k
	}
	b.StopTimer()
	configRefs := float64(b.N) * float64(len(cfgs)) * float64(len(stream))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/configRefs, "ns/config-ref")
	if offered > 0 {
		b.ReportMetric(float64(kept)/float64(offered), "kept/offered")
	}
}

// BenchmarkFusedGridLocal is BenchmarkFusedGrid on localStream, whose
// reuse lets the strip filter drop most references, as on recorded
// traces; synthStream's scattered revisits keep 93% of its references,
// so BenchmarkFusedGrid shows the filter's overhead instead.
func BenchmarkFusedGridLocal(b *testing.B) {
	benchConfigRefs(b, fig1Configs(), localStream(1<<20), 1)
}

// BenchmarkFusedGridLocalWorkers is BenchmarkFusedGridLocal with the lanes
// sharded on two workers behind the bank's filter stage, the shape of an
// untraced replay-grid run; ns per config-ref is wall time, Drain
// included.
func BenchmarkFusedGridLocalWorkers(b *testing.B) {
	benchConfigRefs(b, fig1Configs(), localStream(1<<20), 2)
}

// BenchmarkFusedGroup runs, on localStream with the lanes inline, the
// bank shapes around stripMinLanes, below which a bank runs unfiltered:
// 1, 2, 3, 4 and 8 lanes of one block size (64 bytes, sizes from 32 KiB
// up), and one, two and three lanes each of 16-, 64- and 256-byte blocks
// (32 KiB, then 64 and 128 KiB), all behind one 256-byte filter.
func BenchmarkFusedGroup(b *testing.B) {
	stream := localStream(1 << 20)
	for _, n := range []int{1, 2, 3, 4, 8} {
		b.Run(fmt.Sprintf("lanes=%d", n), func(b *testing.B) {
			benchConfigRefs(b, benchConfigs()[:n], stream, 1)
		})
	}
	for _, per := range []int{1, 2, 3} {
		var cfgs []Config
		for _, block := range []int{16, 64, 256} {
			for _, size := range Sizes[:per] {
				cfgs = append(cfgs, Config{SizeBytes: size, BlockBytes: block, Policy: WriteValidate})
			}
		}
		b.Run(fmt.Sprintf("mixed=3x%d", per), func(b *testing.B) {
			benchConfigRefs(b, cfgs, stream, 1)
		})
	}
}

// BenchmarkFusedBankChunkBatch drives the replay entry point (stamped
// chunks, snapshot checks live) to keep the decode-once fan-out honest.
func BenchmarkFusedBankChunkBatch(b *testing.B) {
	stream := synthStream(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bank := NewFusedBank(benchConfigs())
		var insns uint64
		for refs := stream; len(refs) > 0; {
			n := min(len(refs), mem.ChunkRefs)
			insns += uint64(n)
			bank.ChunkBatch(refs[:n], insns)
			refs = refs[n:]
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*float64(len(stream))/b.Elapsed().Seconds(), "refs/s")
}
