// Package core is the experiment engine: it wires a workload, a
// collector, a cache bank, and the behaviour analyzer together, computes
// the paper's O_cache and O_gc overheads, and defines one experiment per
// table and figure of the paper's evaluation (see experiments.go).
package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"gcsim/internal/analysis"
	"gcsim/internal/cache"
	"gcsim/internal/gc"
	"gcsim/internal/mem"
	"gcsim/internal/scheme"
	"gcsim/internal/telemetry"
	"gcsim/internal/vm"
	"gcsim/internal/workloads"
)

// maxRunInsns bounds any single simulated run, as a guard against runaway
// programs; the largest default-scale run uses well under this.
const maxRunInsns = 50_000_000_000

// verifyHeap, when set, makes every Run check the heap invariants after
// each collection (see gc.Verify). CLIs plumb their -verify-heap flag here.
var verifyHeap atomic.Bool

// SetVerifyHeap enables or disables post-collection heap verification for
// subsequent runs.
func SetVerifyHeap(on bool) { verifyHeap.Store(on) }

// VerifyHeapEnabled reports the current setting.
func VerifyHeapEnabled() bool { return verifyHeap.Load() }

// vmRunsStarted counts VM executions begun by Run, process-wide. Replayed
// sweeps never increment it, which is what lets tests assert that a
// trace-cached per-config sweep runs the VM exactly once.
var vmRunsStarted atomic.Uint64

// VMRunsStarted returns the number of VM executions Run has begun.
func VMRunsStarted() uint64 { return vmRunsStarted.Load() }

// MultiTracer fans references out to several tracers (e.g. a cache bank
// and a behaviour analyzer). It is batch-aware: it implements
// mem.BatchTracer, so the Memory stages references once and MultiTracer
// hands each sealed chunk to every member — batch-capable members consume
// the chunk directly, plain Tracers get a compatibility loop. There is a
// single chunk pipeline no matter how many observers are attached.
type MultiTracer []mem.Tracer

// Ref implements mem.Tracer.
func (ts MultiTracer) Ref(addr uint64, write, collector bool) {
	for _, t := range ts {
		t.Ref(addr, write, collector)
	}
}

// RefBatch implements mem.BatchTracer.
func (ts MultiTracer) RefBatch(refs []mem.Ref) {
	for _, t := range ts {
		if bt, ok := t.(mem.BatchTracer); ok {
			bt.RefBatch(refs)
			continue
		}
		for _, r := range refs {
			t.Ref(r.Addr(), r.Write(), r.Collector())
		}
	}
}

var _ mem.BatchTracer = (MultiTracer)(nil)

// RunSpec describes one simulated program run.
type RunSpec struct {
	Workload  *workloads.Workload
	Scale     int // 0 means the workload's default
	Collector gc.Collector
	Tracer    mem.Tracer
	// Behaviour, if non-nil, receives allocation events and references
	// (it is appended to the tracer set automatically).
	Behaviour *analysis.Behaviour
	// Label tags the run's telemetry record (e.g. an experiment ID).
	Label string
	// OnMachine, if non-nil, sees the freshly built machine before the
	// workload runs; RunSweep uses it to wire cache-snapshot clocks to the
	// instruction counter.
	OnMachine func(*vm.Machine)
}

// RunResult captures everything a run produced.
type RunResult struct {
	Workload  string
	Collector string
	Checksum  int64
	Insns     uint64 // I_prog (includes any ΔI_prog the collector induced)
	GCInsns   uint64 // I_gc
	Counters  mem.Counters
	GCStats   gc.Stats
	Machine   *vm.Machine // for post-run inspection
	// Record is the run's telemetry record, nil unless a session is
	// enabled (see EnableTelemetry).
	Record *telemetry.RunRecord
}

// Refs returns the program reference count.
func (r *RunResult) Refs() uint64 { return r.Counters.Refs() }

// Run executes one workload under the spec and returns its results. The
// context cancels the run: when ctx is done, the machine is interrupted at
// its next call safepoint, workers drain cleanly, and the returned error
// matches both ctx.Err() and vm.ErrInterrupted under errors.Is.
//
// On failure the *RunResult is usually nil, but when a telemetry session
// is enabled an interrupted or failed run still produces a partial result
// carrying a schema-valid record (Status "interrupted" or "failed") with
// whatever the machine had done by then, so callers can persist evidence
// of partial progress.
func Run(ctx context.Context, spec RunSpec) (*RunResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	col := spec.Collector
	if col == nil {
		col = gc.NewNoGC()
	}
	tracer := spec.Tracer
	if spec.Behaviour != nil {
		if tracer != nil {
			tracer = MultiTracer{tracer, spec.Behaviour}
		} else {
			tracer = spec.Behaviour
		}
	}
	vmRunsStarted.Add(1)
	m := vm.NewLoaded(tracer, col)
	m.MaxInsns = maxRunInsns
	m.VerifyHeap = verifyHeap.Load()
	stop := context.AfterFunc(ctx, m.Interrupt)
	defer stop()
	if spec.OnMachine != nil {
		spec.OnMachine(m)
	}
	sess := TelemetrySession()
	var (
		ring        *telemetry.GCRing
		telemetryNs int64
	)
	if sess != nil {
		ring = telemetry.NewGCRing(sess.RingCap)
		workload := spec.Workload.Name
		// The hook runs at collection granularity (never per reference) and
		// times itself, so the record reports telemetry's own cost.
		m.OnGC = func(e gc.Event) {
			t0 := time.Now()
			ring.Push(e)
			sess.StreamEvent(workload, e)
			telemetryNs += int64(time.Since(t0))
		}
	}
	if spec.Behaviour != nil {
		// The analyzer orders allocation events against its reference
		// stream (OnAlloc advances allocation cycles that Ref reads), so
		// flush the staged chunk before each event. Behaviour runs use a
		// single observer geometry, where the shorter chunks cost nothing
		// measurable; the big multi-configuration sweeps never attach a
		// Behaviour and keep full-sized chunks.
		bh, mm := spec.Behaviour, m.Mem
		m.OnAlloc = func(addr uint64, words int) {
			mm.FlushTrace()
			bh.OnAlloc(addr, words)
		}
	}
	prog := progress()
	prog.Printf("run %s gc=%s started", spec.Workload.Name, col.Name())
	_, vmSpan := Spans().StartSpan(ctx, telemetry.StageRunVM)
	vmSpan.SetAttr("workload", spec.Workload.Name)
	vmSpan.SetAttr("collector", col.Name())
	start := time.Now()
	v, err := spec.Workload.Run(m, spec.Scale)
	dur := time.Since(start)
	vmSpan.End()
	if err == nil && ctx.Err() != nil {
		// The program can end before the context watcher delivers the
		// interrupt (there is no safepoint left to observe it, e.g. on a
		// single-CPU scheduler). A run under a cancelled context never
		// reports success.
		err = vm.ErrInterrupted
	}
	if err == nil && !scheme.IsFixnum(v) {
		err = fmt.Errorf("core: %s checksum is not a fixnum", spec.Workload.Name)
	}
	if err != nil {
		if errors.Is(err, vm.ErrInterrupted) && ctx.Err() != nil {
			// Surface the cancellation cause: the error matches both
			// context.Canceled/DeadlineExceeded and vm.ErrInterrupted.
			err = fmt.Errorf("%w: %w", ctx.Err(), err)
		}
		prog.Printf("run %s gc=%s failed: %v", spec.Workload.Name, col.Name(), err)
		if sess == nil {
			return nil, err
		}
		// Emit a partial record: everything the machine did up to the
		// failure point is real, measured work worth persisting.
		res := &RunResult{
			Workload:  spec.Workload.Name,
			Collector: col.Name(),
			Insns:     m.Insns(),
			GCInsns:   m.GCInsns(),
			Counters:  m.Mem.C,
			GCStats:   *col.Stats(),
			Machine:   m,
		}
		rec := newRunRecord(spec, res, ring, dur, telemetryNs)
		rec.Label = spec.Label
		rec.Status = telemetry.StatusFailed
		if errors.Is(err, vm.ErrInterrupted) {
			rec.Status = telemetry.StatusInterrupted
		}
		rec.Error = err.Error()
		res.Record = rec
		sess.Add(rec)
		return res, err
	}
	res := &RunResult{
		Workload:  spec.Workload.Name,
		Collector: col.Name(),
		Checksum:  scheme.FixnumValue(v),
		Insns:     m.Insns(),
		GCInsns:   m.GCInsns(),
		Counters:  m.Mem.C,
		GCStats:   *col.Stats(),
		Machine:   m,
	}
	prog.Printf("run %s gc=%s done in %.2fs: %d insns, %d collections",
		res.Workload, res.Collector, dur.Seconds(), res.Insns, res.GCStats.Collections)
	if sess != nil {
		rec := newRunRecord(spec, res, ring, dur, telemetryNs)
		rec.Label = spec.Label
		res.Record = rec
		sess.Add(rec)
	}
	return res, nil
}

// SweepResult pairs a run with the cache statistics of every
// configuration in its bank.
type SweepResult struct {
	Run   *RunResult
	Bank  *cache.Bank
	Stats map[cache.Config]cache.Stats
}

// RunSweep runs a workload once against a bank with every given
// configuration, simulated by the fused single-pass kernel: each chunk of
// the reference stream is simulated against every configuration with no
// per-ref dispatch. With parallelism > 1 and more than one configuration,
// the bank shards its lanes across that many workers consuming the same
// chunked reference stream, which produces bitwise-identical statistics
// (each cache still consumes the stream sequentially and in order).
func RunSweep(ctx context.Context, w *workloads.Workload, scale int, col gc.Collector, cfgs []cache.Config) (*SweepResult, error) {
	return runSweepWith(ctx, ActiveTraceCache(), w, scale, col, cfgs)
}

// runSweepWith is RunSweep against an explicit trace cache (nil = live
// simulation, no record/replay).
func runSweepWith(ctx context.Context, tc *TraceCache, w *workloads.Workload, scale int, col gc.Collector, cfgs []cache.Config) (*SweepResult, error) {
	if tc != nil {
		return tc.runSweep(ctx, w, scale, col, cfgs)
	}
	return sweep(cfgs, func(bank *cache.FusedBank) (*RunResult, error) {
		return Run(ctx, RunSpec{
			Workload:  w,
			Scale:     scale,
			Collector: col,
			Tracer:    bank,
			// Snapshots are clocked by the machine's instruction counter,
			// read as the (paused) machine publishes each chunk.
			OnMachine: func(m *vm.Machine) { bank.SetSnapshotClock(m.Insns) },
		})
	})
}

// sweep is the one sweep path every reference source shares — the VM on
// the live path, the shared trace decoder on the replay path. It builds
// the bank (lanes sharded across Parallelism() workers), arms snapshots,
// lets feed drive the stream into the bank, and drains the bank on every
// path before any statistic is read. feed returns the run, which on
// failure may be partial and carry a record. Every record gets per-cache
// results; a completed one also gets a closing snapshot sample and the
// snapshot overhead.
func sweep(cfgs []cache.Config, feed func(*cache.FusedBank) (*RunResult, error)) (*SweepResult, error) {
	bank := cache.NewFusedBankWorkers(cfgs, Parallelism())
	defer bank.Drain() // stops the workers even if feed panics
	sess := TelemetrySession()
	snapshots := sess != nil && sess.SnapshotInsns > 0
	if snapshots {
		for _, c := range bank.Caches {
			c.EnableSnapshots(sess.SnapshotInsns)
		}
	}
	run, err := feed(bank)
	bank.Drain() // final barrier, also on error paths
	if err != nil {
		// A failed or interrupted run's partial record still gets its cache
		// results: the bank has consumed every reference delivered, so the
		// statistics are exact for the truncated reference stream.
		if run != nil && run.Record != nil {
			for _, c := range bank.Caches {
				run.Record.Caches = append(run.Record.Caches, telemetry.CacheRecordOf(c, run.Insns))
			}
		}
		return nil, err
	}

	out := &SweepResult{Run: run, Bank: bank.Bank(), Stats: map[cache.Config]cache.Stats{}}
	for _, c := range bank.Caches {
		out.Stats[c.Config()] = c.S
	}
	rec := run.Record
	if rec == nil {
		return out, nil
	}
	for _, cfg := range cfgs {
		rec.CompletedConfigs = append(rec.CompletedConfigs, cfg.String())
	}
	var snapNs int64
	for _, c := range bank.Caches {
		if snapshots {
			c.TakeSnapshot(run.Insns) // closing sample at end of run
		}
		rec.Caches = append(rec.Caches, telemetry.CacheRecordOf(c, run.Insns))
		rec.Telemetry.Snapshots += uint64(len(c.Snapshots()))
		snapNs += int64(c.SnapshotOverhead())
	}
	if sess != nil {
		rec.SnapshotIntervalInsns = sess.SnapshotInsns
	}
	rec.Telemetry.OverheadSeconds += float64(snapNs) / 1e9
	if rec.DurationSeconds > 0 {
		rec.Telemetry.OverheadFraction = rec.Telemetry.OverheadSeconds / rec.DurationSeconds
	}
	return out, nil
}

// CacheOverhead computes O_cache for one configuration of a sweep.
func (s *SweepResult) CacheOverhead(p cache.Processor, cfg cache.Config) float64 {
	st := s.Stats[cfg]
	return p.CacheOverhead(st.Misses(), s.Run.Insns, cfg.BlockBytes)
}

// WriteOverhead computes the write-back overhead for one configuration.
func (s *SweepResult) WriteOverhead(p cache.Processor, cfg cache.Config) float64 {
	st := s.Stats[cfg]
	return p.WriteOverhead(st.Writebacks, s.Run.Insns, cfg.BlockBytes)
}

// GCOverheadVs computes O_gc for a collected run relative to a no-GC
// baseline of the same workload in the same cache configuration:
//
//	O_gc = ((M_gc + ΔM_prog)·P + I_gc + ΔI_prog) / I_prog
func GCOverheadVs(p cache.Processor, cfg cache.Config, collected, baseline *SweepResult) float64 {
	cst := collected.Stats[cfg]
	bst := baseline.Stats[cfg]
	deltaMisses := int64(cst.Misses()) - int64(bst.Misses())
	deltaInsns := int64(collected.Run.Insns) - int64(baseline.Run.Insns)
	return p.GCOverhead(cst.GCMisses(), deltaMisses, collected.Run.GCInsns,
		deltaInsns, baseline.Run.Insns, cfg.BlockBytes)
}
