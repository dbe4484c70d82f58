package cache

import "testing"

// These tests drive the deprecated ParallelBank and NewParallelBank
// names, which stay only because bench/sweep.go names them, so the
// aliases keep the behavior the sharded FusedBank guarantees. The
// sharding test builds its banks with NewFusedBankWorkers.

func TestParallelBankMatchesSerialBank(t *testing.T) {
	stream := synthStream(300_000)
	cfgs := append(SweepConfigs(WriteValidate), SweepConfigs(FetchOnWrite)...)

	serial := NewBank(cfgs)
	feedChunks(serial, stream)

	par := NewParallelBank(cfgs)
	feedChunks(par, stream)
	par.Drain()

	for i, sc := range serial.Caches {
		pc := par.Caches[i]
		if sc.S != pc.S {
			t.Errorf("config %v: serial stats %+v != parallel stats %+v",
				sc.Config(), sc.S, pc.S)
		}
	}
}

// TestParallelBankWorkerSharding pins the core-scaled scheduling: any
// worker-pool size must shard the configurations without changing a single
// counter, and the pool must never exceed the configuration count. A pool
// of one runs inline on the producer and reports zero workers.
func TestParallelBankWorkerSharding(t *testing.T) {
	stream := synthStream(200_000)
	cfgs := append(SweepConfigs(WriteValidate), SweepConfigs(FetchOnWrite)...)

	serial := NewBank(cfgs)
	feedChunks(serial, stream)

	for _, n := range []int{1, 2, 3, len(cfgs), len(cfgs) + 5} {
		par := NewFusedBankWorkers(cfgs, n)
		want := min(n, len(cfgs))
		if want == 1 {
			want = 0
		}
		if par.Workers() != want {
			t.Fatalf("workers=%d: pool has %d workers, want %d", n, par.Workers(), want)
		}
		feedChunks(par, stream)
		par.Drain()
		for i, sc := range serial.Caches {
			if pc := par.Caches[i]; sc.S != pc.S {
				t.Errorf("workers=%d config %v: serial %+v != parallel %+v",
					n, sc.Config(), sc.S, pc.S)
			}
		}
	}
}

func TestParallelBankPerRefTracer(t *testing.T) {
	stream := synthStream(10_000)
	cfgs := benchConfigs()

	serial := NewBank(cfgs)
	for _, r := range stream {
		serial.Ref(r.Addr(), r.Write(), r.Collector())
	}

	par := NewParallelBank(cfgs)
	for _, r := range stream {
		par.Ref(r.Addr(), r.Write(), r.Collector())
	}
	par.Drain()

	for i, sc := range serial.Caches {
		if pc := par.Caches[i]; sc.S != pc.S {
			t.Errorf("config %v: serial %+v != parallel %+v", sc.Config(), sc.S, pc.S)
		}
	}
}

func TestParallelBankMissEventsMatchSerial(t *testing.T) {
	stream := synthStream(50_000)
	cfg := Config{SizeBytes: 32 << 10, BlockBytes: 64, Policy: WriteValidate}
	cfgs := []Config{cfg, {SizeBytes: 64 << 10, BlockBytes: 64, Policy: WriteValidate}}

	serial := NewBank(cfgs)
	serialEvents := make([][]MissEvent, len(cfgs))
	for i, c := range serial.Caches {
		i := i
		c.OnMiss(func(e MissEvent) { serialEvents[i] = append(serialEvents[i], e) })
	}
	feedChunks(serial, stream)

	par := NewParallelBank(cfgs)
	parEvents := make([][]MissEvent, len(cfgs))
	for i, c := range par.Caches {
		i := i
		// The hook runs on the cache's own worker goroutine; the slice is
		// touched by no one else until Drain.
		c.OnMiss(func(e MissEvent) { parEvents[i] = append(parEvents[i], e) })
	}
	feedChunks(par, stream)
	par.Drain()

	for i := range cfgs {
		if len(serialEvents[i]) == 0 {
			t.Fatalf("config %v: no miss events recorded", cfgs[i])
		}
		if len(serialEvents[i]) != len(parEvents[i]) {
			t.Fatalf("config %v: %d serial events vs %d parallel",
				cfgs[i], len(serialEvents[i]), len(parEvents[i]))
		}
		for j, se := range serialEvents[i] {
			if se != parEvents[i][j] {
				t.Fatalf("config %v event %d: serial %+v != parallel %+v",
					cfgs[i], j, se, parEvents[i][j])
			}
		}
	}
}

func TestParallelBankDrainIdempotentAndEmpty(t *testing.T) {
	par := NewParallelBank(benchConfigs())
	par.Drain()
	par.Drain()
	for _, c := range par.Caches {
		if c.S != (Stats{}) {
			t.Errorf("empty bank accumulated stats: %+v", c.S)
		}
	}
	// A bank with no caches must not deadlock or leak chunks.
	empty := NewParallelBank(nil)
	empty.RefBatch(synthStream(10))
	empty.Drain()
}
