package core

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"gcsim/internal/cache"
	"gcsim/internal/gc"
	"gcsim/internal/telemetry"
	"gcsim/internal/vm"
	"gcsim/internal/workloads"
)

func faultConfigs() []cache.Config {
	return []cache.Config{
		{SizeBytes: 32 << 10, BlockBytes: 32, Policy: cache.WriteValidate},
		{SizeBytes: 64 << 10, BlockBytes: 64, Policy: cache.WriteValidate},
		{SizeBytes: 1 << 20, BlockBytes: 64, Policy: cache.FetchOnWrite},
	}
}

func TestRunCancelledBeforeStart(t *testing.T) {
	w, err := workloads.ByName("nbody")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Run(ctx, RunSpec{Workload: w, Scale: 1})
	if res != nil {
		t.Errorf("pre-cancelled Run returned a result: %+v", res)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled Run error = %v, want context.Canceled", err)
	}
}

// TestRunCancellationEmitsPartialRecord cancels a run from inside the
// machine (deterministically, at the 2000th allocation) and requires the
// error to match both the context cause and vm.ErrInterrupted, and the
// telemetry record to be a schema-valid partial with status "interrupted".
func TestRunCancellationEmitsPartialRecord(t *testing.T) {
	w, err := workloads.ByName("tc")
	if err != nil {
		t.Fatal(err)
	}
	sess := telemetry.NewSession("test", 1)
	EnableTelemetry(sess)
	defer EnableTelemetry(nil)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var allocs int
	res, err := Run(ctx, RunSpec{
		Workload: w, Scale: w.SmallScale,
		OnMachine: func(m *vm.Machine) {
			m.OnAlloc = func(addr uint64, words int) {
				allocs++
				if allocs == 2000 {
					cancel()
				}
			}
		},
	})
	if err == nil {
		t.Fatal("run completed despite cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error does not match context.Canceled: %v", err)
	}
	if !errors.Is(err, vm.ErrInterrupted) {
		t.Errorf("error does not match vm.ErrInterrupted: %v", err)
	}
	if res == nil || res.Record == nil {
		t.Fatal("cancelled run produced no partial result/record")
	}
	if res.Insns == 0 {
		t.Error("partial result reports zero instructions; nothing was measured")
	}
	rec := res.Record
	if rec.Status != telemetry.StatusInterrupted {
		t.Errorf("record status = %q, want %q", rec.Status, telemetry.StatusInterrupted)
	}
	if rec.Error == "" {
		t.Error("record carries no error text")
	}
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := telemetry.ValidateRecordJSON(data); err != nil {
		t.Errorf("partial record is not schema-valid: %v", err)
	}
	if got := sess.Records(); len(got) != 1 || got[0] != rec {
		t.Errorf("session holds %d records, want the partial one", len(got))
	}
}

// cancelOnWrite cancels a context the first time anything is written to it
// (i.e. at the first streamed GC event), then swallows further writes.
type cancelOnWrite struct{ cancel context.CancelFunc }

func (c *cancelOnWrite) Write(p []byte) (int, error) { c.cancel(); return len(p), nil }
func (c *cancelOnWrite) Close() error                { return nil }

// TestRunSweepInterruptAttachesCaches interrupts a sweep mid-run
// (deterministically, at its first collection) and checks the partial
// record still carries per-configuration cache results (exact for the
// truncated reference stream) and no completed configs.
func TestRunSweepInterruptAttachesCaches(t *testing.T) {
	w, err := workloads.ByName("tc")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sess := telemetry.NewSession("test", 1)
	sess.SetEventWriter(&cancelOnWrite{cancel: cancel})
	EnableTelemetry(sess)
	defer EnableTelemetry(nil)

	cfgs := faultConfigs()
	// A small semispace forces an early first collection.
	_, err = RunSweep(ctx, w, w.SmallScale, gc.NewCheney(64<<10), cfgs)
	if err == nil {
		t.Fatal("sweep completed despite mid-run cancellation (did it never collect?)")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error does not match context.Canceled: %v", err)
	}
	recs := sess.Records()
	if len(recs) != 1 {
		t.Fatalf("session holds %d records, want 1", len(recs))
	}
	rec := recs[0]
	if rec.Status != telemetry.StatusInterrupted {
		t.Errorf("record status = %q, want %q", rec.Status, telemetry.StatusInterrupted)
	}
	if len(rec.Caches) != len(cfgs) {
		t.Errorf("partial record carries %d cache results, want %d", len(rec.Caches), len(cfgs))
	}
	if len(rec.CompletedConfigs) != 0 {
		t.Errorf("interrupted sweep lists completed configs: %v", rec.CompletedConfigs)
	}
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := telemetry.ValidateRecordJSON(data); err != nil {
		t.Errorf("partial sweep record is not schema-valid: %v", err)
	}
}

func TestRunFuelExhaustionIsTyped(t *testing.T) {
	w, err := workloads.ByName("nbody")
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(context.Background(), RunSpec{
		Workload: w, Scale: 1,
		OnMachine: func(m *vm.Machine) { m.MaxInsns = 1000 },
	})
	if !errors.Is(err, vm.ErrFuelExhausted) {
		t.Fatalf("error does not match vm.ErrFuelExhausted: %v", err)
	}
	if errors.Is(err, vm.ErrInterrupted) {
		t.Error("fuel exhaustion must not read as interruption")
	}
}

func TestRunStackOverflowIsTyped(t *testing.T) {
	deep := &workloads.Workload{
		Name: "deep-recursion", Entry: "deep",
		DefaultScale: 1 << 21, SmallScale: 1 << 21,
		Description: "non-tail recursion that must exhaust the stack region",
		Inline:      "(define (deep n) (if (= n 0) 0 (+ 1 (deep (- n 1)))))",
	}
	_, err := Run(context.Background(), RunSpec{Workload: deep, Scale: 1 << 21})
	if !errors.Is(err, vm.ErrStackOverflow) {
		t.Fatalf("error does not match vm.ErrStackOverflow: %v", err)
	}
}

func TestForEachParRecoversPanics(t *testing.T) {
	old := Parallelism()
	defer SetParallelism(old)
	for _, limit := range []int{1, 4} {
		SetParallelism(limit)
		err := forEachPar(context.Background(), 8, func(i int) error {
			if i == 3 {
				panic("boom")
			}
			return nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("limit %d: error = %v, want *PanicError", limit, err)
		}
		if pe.Index != 3 {
			t.Errorf("limit %d: panic index = %d, want 3", limit, pe.Index)
		}
		if !strings.Contains(pe.Error(), "boom") {
			t.Errorf("limit %d: panic message lost: %v", limit, pe)
		}
		if pe.Stack == "" {
			t.Errorf("limit %d: panic stack not captured", limit)
		}
	}
}

func TestForEachParStopsDispatchingAfterCancel(t *testing.T) {
	old := Parallelism()
	defer SetParallelism(old)
	SetParallelism(2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started atomic.Int32
	err := forEachPar(ctx, 1000, func(i int) error {
		started.Add(1)
		cancel()
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error = %v, want context.Canceled", err)
	}
	if n := started.Load(); n == 0 || n >= 100 {
		t.Errorf("%d tasks started; dispatch did not stop after cancellation", n)
	}
}

func TestForEachParStopsDispatchingAfterError(t *testing.T) {
	old := Parallelism()
	defer SetParallelism(old)
	SetParallelism(2)
	boom := errors.New("boom")
	var started atomic.Int32
	err := forEachPar(context.Background(), 1000, func(i int) error {
		started.Add(1)
		return boom
	})
	if !errors.Is(err, boom) {
		t.Errorf("error = %v, want boom", err)
	}
	if n := started.Load(); n >= 100 {
		t.Errorf("%d tasks started; dispatch did not stop after the first error", n)
	}
}

// bombCollector panics at the first safepoint, simulating a collector bug.
type bombCollector struct{ gc.Collector }

func (b *bombCollector) NeedsCollect() bool { panic("bomb: injected collector fault") }

// TestPerConfigSweepIsolatesPanics drives every configuration into a
// panicking collector and requires the sweep to degrade — retried per the
// budget, recorded as RunFailures with stacks — instead of crashing.
func TestPerConfigSweepIsolatesPanics(t *testing.T) {
	w, err := workloads.ByName("nbody")
	if err != nil {
		t.Fatal(err)
	}
	cfgs := faultConfigs()[:2]
	sweep, err := RunSweepPerConfig(context.Background(), w, 1, cfgs, PerConfigSweepOpts{
		MakeCollector: func() gc.Collector { return &bombCollector{gc.NewNoGC()} },
		Retries:       1,
	})
	if err != nil {
		t.Fatalf("panicking configs must degrade, not abort: %v", err)
	}
	if len(sweep.Results) != 0 {
		t.Errorf("%d results from a collector that always panics", len(sweep.Results))
	}
	if len(sweep.Failures) != len(cfgs) {
		t.Fatalf("%d failures, want %d", len(sweep.Failures), len(cfgs))
	}
	for _, f := range sweep.Failures {
		if f.Attempts != 2 {
			t.Errorf("%s: %d attempts, want 2 (1 + 1 retry)", f.Config, f.Attempts)
		}
		if !strings.Contains(f.Error(), "bomb") {
			t.Errorf("%s: failure lost the panic value: %v", f.Config, f)
		}
		if f.Stack == "" {
			t.Errorf("%s: failure carries no stack", f.Config)
		}
		var pe *PanicError
		if !errors.As(f, &pe) {
			t.Errorf("%s: failure does not unwrap to *PanicError: %v", f.Config, f)
		}
	}
}

// TestCheckpointResumeMatchesUninterrupted is the acceptance test for
// resumable sweeps: interrupt a checkpointed per-config sweep after its
// first configuration, resume it, and require results identical to an
// uninterrupted single-pass sweep — with only the remaining
// configurations actually re-run.
func TestCheckpointResumeMatchesUninterrupted(t *testing.T) {
	w, err := workloads.ByName("nbody")
	if err != nil {
		t.Fatal(err)
	}
	cfgs := faultConfigs()
	mkCol := func() gc.Collector { return gc.NewCheney(256 << 10) }

	old := Parallelism()
	defer SetParallelism(old)
	SetParallelism(1)

	baseline, err := RunSweep(context.Background(), w, w.SmallScale, mkCol(), cfgs)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	ck, err := NewCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}

	// Phase A: cancel as soon as the first configuration commits.
	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	sweepA, err := RunSweepPerConfig(ctxA, w, w.SmallScale, cfgs, PerConfigSweepOpts{
		MakeCollector: mkCol,
		Checkpoint:    ck,
		OnResult:      func(ConfigResult) { cancelA() },
	})
	if err == nil {
		t.Fatal("phase A completed despite cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("phase A error = %v, want context.Canceled", err)
	}
	if len(sweepA.Results) != 1 {
		t.Fatalf("phase A committed %d results, want 1", len(sweepA.Results))
	}
	saved, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(saved) != 1 {
		t.Fatalf("phase A left %d checkpoint entries, want 1: %v", len(saved), saved)
	}

	// Phase B: resume. Only the two remaining configurations may run.
	var fresh atomic.Int32
	sweepB, err := RunSweepPerConfig(context.Background(), w, w.SmallScale, cfgs, PerConfigSweepOpts{
		MakeCollector: mkCol,
		Checkpoint:    ck,
		Resume:        true,
		OnResult:      func(ConfigResult) { fresh.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := int(fresh.Load()), len(cfgs)-1; got != want {
		t.Errorf("resume re-ran %d configurations, want %d", got, want)
	}
	if len(sweepB.Results) != len(cfgs) {
		t.Fatalf("resumed sweep has %d results, want %d", len(sweepB.Results), len(cfgs))
	}
	fromCheckpoint := 0
	for i, r := range sweepB.Results {
		if r.Config != cfgs[i] {
			t.Errorf("result %d is config %s, want %s (input order)", i, r.Config, cfgs[i])
		}
		if r.FromCheckpoint {
			fromCheckpoint++
		}
		if want := baseline.Stats[r.Config]; r.CacheStats != want {
			t.Errorf("config %s: resumed stats differ from uninterrupted sweep\n  resumed:  %+v\n  baseline: %+v",
				r.Config, r.CacheStats, want)
		}
		if r.Checksum != baseline.Run.Checksum || r.Insns != baseline.Run.Insns || r.GCInsns != baseline.Run.GCInsns {
			t.Errorf("config %s: run identity differs from baseline (checksum %d/%d, insns %d/%d)",
				r.Config, r.Checksum, baseline.Run.Checksum, r.Insns, baseline.Run.Insns)
		}
	}
	if fromCheckpoint != 1 {
		t.Errorf("%d results loaded from checkpoint, want 1", fromCheckpoint)
	}
}

// TestCheckpointRejectsMismatchedEntry covers the stale-directory guards:
// identity drift and schema drift fail loudly; absence is a clean miss.
func TestCheckpointRejectsMismatchedEntry(t *testing.T) {
	dir := t.TempDir()
	ck, err := NewCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := faultConfigs()[0]
	res := ConfigResult{Config: cfg, Checksum: 42, Insns: 7}
	if err := ck.Save("nbody", 1, "cheney", res); err != nil {
		t.Fatal(err)
	}
	path := ck.entryPath("nbody", 1, "cheney", cfg)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	if err := os.WriteFile(path, []byte(strings.Replace(string(data), `"scale": 1`, `"scale": 2`, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := ck.Load("nbody", 1, "cheney", cfg); err == nil || ok {
		t.Errorf("identity-drifted entry loaded: ok=%v err=%v", ok, err)
	}

	if err := os.WriteFile(path, []byte(strings.Replace(string(data), CheckpointSchema, "gcsim-checkpoint/v999", 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := ck.Load("nbody", 1, "cheney", cfg); err == nil || ok {
		t.Errorf("schema-drifted entry loaded: ok=%v err=%v", ok, err)
	}

	if _, ok, err := ck.Load("other-workload", 1, "cheney", cfg); ok || err != nil {
		t.Errorf("missing entry: ok=%v err=%v, want clean miss", ok, err)
	}
}

// TestCheckpointKeyedByCollectorIdentity resumes a checkpointed sweep
// under a Cheney collector with another semispace and requires that
// collector's own numbers: entries are keyed by gc.Identity, so the first
// sweep's entries are another run's and are not loaded.
func TestCheckpointKeyedByCollectorIdentity(t *testing.T) {
	w, err := workloads.ByName("nbody")
	if err != nil {
		t.Fatal(err)
	}
	cfgs := faultConfigs()[:2]
	ck, err := NewCheckpoint(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sweepWith := func(semispace int, resume bool) *PerConfigSweep {
		t.Helper()
		sw, err := RunSweepPerConfig(context.Background(), w, 1, cfgs, PerConfigSweepOpts{
			MakeCollector: func() gc.Collector { return gc.NewCheney(semispace) },
			Checkpoint:    ck,
			Resume:        resume,
		})
		if err != nil {
			t.Fatal(err)
		}
		return sw
	}
	small := sweepWith(64<<10, false)
	resumed := sweepWith(1<<20, true)

	fresh, err := RunSweep(context.Background(), w, 1, gc.NewCheney(1<<20), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if small.Results[0].GCStats == fresh.Run.GCStats {
		t.Fatal("both semispaces collect alike; the test cannot tell their entries apart")
	}
	if len(resumed.Results) != len(cfgs) {
		t.Fatalf("%d results, want %d", len(resumed.Results), len(cfgs))
	}
	for _, r := range resumed.Results {
		if want := fresh.Result(r.Config); r != want {
			t.Errorf("config %s resumed under a 1 MiB semispace: %+v, want a fresh run's %+v", r.Config, r, want)
		}
	}
}

// TestCheckpointEntryForm pins a checkpoint entry: its file name flattens
// the collector identity, and its JSON is the run identity followed by
// ConfigResult's own form, with the policy by name and neither
// config_name nor from_checkpoint.
func TestCheckpointEntryForm(t *testing.T) {
	ck, err := NewCheckpoint(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := cache.Config{SizeBytes: 32 << 10, BlockBytes: 32, Policy: cache.FetchOnWrite}
	res := ConfigResult{
		Config:         cfg,
		CacheStats:     cache.Stats{Reads: 10, Writes: 4, ReadMisses: 3, GCReads: 2},
		Checksum:       -5,
		Insns:          100,
		GCInsns:        7,
		GCStats:        gc.Stats{Collections: 1, CopiedWords: 9},
		FromCheckpoint: true,
	}
	identity := gc.Identity(gc.NewCheney(64 << 10))
	if err := ck.Save("nbody", 1, identity, res); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(ck.Dir, "nbody-s1-cheney_ss=8192w-32k_32b_fetch-on-write.json"))
	if err != nil {
		t.Fatal(err)
	}
	const want = `{
  "schema": "gcsim-checkpoint/v2",
  "workload": "nbody",
  "scale": 1,
  "collector": "cheney/ss=8192w",
  "config": {
    "size_bytes": 32768,
    "block_bytes": 32,
    "policy": "fetch-on-write"
  },
  "cache_stats": {
    "Reads": 10,
    "Writes": 4,
    "ReadMisses": 3,
    "WriteMisses": 0,
    "WriteAllocs": 0,
    "GCReads": 2,
    "GCWrites": 0,
    "GCReadMisses": 0,
    "GCWriteMisses": 0,
    "Writebacks": 0,
    "GCWritebacks": 0
  },
  "checksum": -5,
  "insns": 100,
  "gc_insns": 7,
  "gc_stats": {
    "Collections": 1,
    "MajorCollections": 0,
    "CopiedObjects": 0,
    "CopiedWords": 9,
    "ScannedSlots": 0,
    "BarrierChecks": 0,
    "BarrierHits": 0,
    "LiveAfterLast": 0
  }
}
`
	if string(data) != want {
		t.Errorf("checkpoint entry:\n%s\nwant:\n%s", data, want)
	}
	got, ok, err := ck.Load("nbody", 1, identity, cfg)
	if err != nil || !ok || got != res {
		t.Errorf("Load = %+v, %v, %v; want %+v", got, ok, err, res)
	}
}
