package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"

	"gcsim/internal/cache"
	"gcsim/internal/gc"
	"gcsim/internal/workloads"
)

// The resilient per-config sweep. The fast path (RunSweep) simulates every
// cache configuration against one shared reference stream in a single
// pass: maximally efficient, but all-or-nothing — an interrupt or a panic
// loses the whole sweep. This file trades that single pass for fault
// tolerance: each configuration becomes an independent run (same workload,
// fresh collector), so results land one at a time, can be checkpointed as
// they finish, and a failure burns one configuration instead of the sweep.
// Determinism makes the two modes equivalent: the VM issues the identical
// reference stream every run, and per-cache statistics depend only on that
// stream, so a per-config sweep's statistics are bitwise-identical to the
// single-pass bank's.

// ErrPreempted is the cancellation cause a scheduler passes (via
// context.WithCancelCause) when it stops a running sweep to free its
// worker for higher-priority work. The sweep checkpoints exactly as any
// other cancellation does — completed configurations are already on disk
// — and PerConfigRun.Finish folds the cause into its returned error, so
// a caller can tell a preemption (re-enqueue, resume later) from a
// shutdown (park as interrupted) with errors.Is.
var ErrPreempted = errors.New("core: sweep preempted")

// withCause augments a cancellation error with the context's cancel
// cause when the caller supplied one. A plain cancellation (cause ==
// ctx.Err()) and a non-cancelled context pass through unchanged, so
// existing errors.Is(err, context.Canceled) checks keep working.
func withCause(ctx context.Context, err error) error {
	if err == nil || ctx.Err() == nil {
		return err
	}
	cause := context.Cause(ctx)
	if cause == nil || errors.Is(err, cause) || errors.Is(cause, ctx.Err()) {
		return err
	}
	return fmt.Errorf("%w: %w", cause, err)
}

// PerConfigSweepOpts configures RunSweepPerConfig and OpenPerConfigRun.
type PerConfigSweepOpts struct {
	// MakeCollector builds a fresh collector for each attempt. Collectors
	// hold per-run state, so they cannot be shared across runs.
	MakeCollector func() gc.Collector
	// Retries is how many times a failed configuration is re-attempted
	// before it is recorded as a RunFailure (0 = one attempt only).
	// Cancellation is never retried.
	Retries int
	// Checkpoint, if non-nil, persists each configuration's result as it
	// completes.
	Checkpoint *Checkpoint
	// Resume skips configurations already present in Checkpoint.
	Resume bool
	// OnResult, if non-nil, observes each result as it is committed
	// (freshly computed results only, not ones loaded from checkpoints).
	// Calls never overlap and follow commit order; OnResult must not call
	// back into the run.
	OnResult func(ConfigResult)
	// TraceCache, if non-nil, overrides the process-wide cache installed
	// by SetTraceCache for this sweep. Cluster nodes use this: each node
	// records to and replays from its own store even when several run in
	// one process.
	TraceCache *TraceCache
}

// PerConfigSweep is the outcome of a resilient sweep: one result per
// completed configuration (in input order) plus the failures.
type PerConfigSweep struct {
	Workload  string
	Scale     int
	Collector string
	Results   []ConfigResult
	Failures  []*RunFailure
}

// RunSweepPerConfig runs one workload/collector pair against each cache
// configuration as an independent simulation, bounded by Parallelism().
// Failed configurations (after the retry budget) are collected in
// Failures rather than aborting the sweep; cancellation aborts promptly
// and returns the context error alongside whatever completed. When every
// attempted configuration completed, the error is nil even if earlier
// sweeps left failures — callers decide how to present partial coverage.
func RunSweepPerConfig(ctx context.Context, w *workloads.Workload, scale int, cfgs []cache.Config, opts PerConfigSweepOpts) (*PerConfigSweep, error) {
	run, err := OpenPerConfigRun(w, scale, cfgs, opts)
	if err == nil {
		err = run.Run(ctx, run.Pending())
	}
	return run.Finish(ctx, err)
}

// PerConfigRun is one run of a per-config sweep: an outcome slot per
// configuration, in input order, that every caller fills through one
// commit path (checkpoint save, slot, OnResult). Run fills slots with
// outcomes computed in this process; Commit and Fail fill them with
// outcomes computed elsewhere, such as on a cluster worker. Its methods
// are safe for concurrent use.
type PerConfigRun struct {
	w        *workloads.Workload
	scale    int
	cfgs     []cache.Config
	opts     PerConfigSweepOpts
	colName  string
	identity string // gc.Identity, the checkpoint's collector key
	pending  []int

	mu       sync.Mutex
	results  []*ConfigResult
	failures []*RunFailure
}

// OpenPerConfigRun opens a per-config sweep over cfgs. With opts.Resume
// every configuration opts.Checkpoint holds fills its slot, marked
// FromCheckpoint; the rest are Pending. When a checkpoint entry cannot be
// loaded the run is still returned, so the caller can hand the error to
// Finish.
func OpenPerConfigRun(w *workloads.Workload, scale int, cfgs []cache.Config, opts PerConfigSweepOpts) (*PerConfigRun, error) {
	if opts.MakeCollector == nil {
		opts.MakeCollector = func() gc.Collector { return nil } // Run substitutes NoGC
	}
	if opts.TraceCache == nil {
		opts.TraceCache = ActiveTraceCache()
	}
	if scale == 0 {
		scale = w.DefaultScale
	}
	// Checkpoint entries are keyed by the collector's identity, not its
	// name: a Cheney collector with another semispace is another run.
	col := opts.MakeCollector()
	r := &PerConfigRun{
		w: w, scale: scale, cfgs: cfgs, opts: opts,
		colName: "none", identity: collectorIdentity(col),
		results:  make([]*ConfigResult, len(cfgs)),
		failures: make([]*RunFailure, len(cfgs)),
	}
	if col != nil {
		r.colName = col.Name()
	}
	for i, cfg := range cfgs {
		if opts.Resume && opts.Checkpoint != nil {
			res, ok, err := opts.Checkpoint.Load(w.Name, scale, r.identity, cfg)
			if err != nil {
				return r, err
			}
			if ok {
				r.results[i] = &res
				continue
			}
		}
		r.pending = append(r.pending, i)
	}
	return r, nil
}

// Pending returns the indices, in input order, of the configurations the
// checkpoint did not hold when the run was opened.
func (r *PerConfigRun) Pending() []int { return r.pending }

// Run computes the configurations at indices idx in this process and
// commits each outcome. With a trace cache active it serves them all by
// one fused replay: decode the trace once, simulate every config in a
// single pass, and commit the results one by one in input order. Any
// failure of that pass other than cancellation falls back to independent
// per-config runs, each retried up to opts.Retries and then recorded as a
// RunFailure — the fused pass is purely a fast path. Run returns a
// cancellation or checkpoint error; a failed configuration degrades the
// sweep, it does not fail Run.
func (r *PerConfigRun) Run(ctx context.Context, idx []int) error {
	if r.opts.TraceCache != nil && len(idx) > 1 {
		sub := make([]cache.Config, len(idx))
		for k, i := range idx {
			sub[k] = r.cfgs[i]
		}
		sw, err := runSweepIsolated(ctx, r.opts.TraceCache, r.w, r.scale, r.opts.MakeCollector(), sub)
		switch {
		case err == nil:
			for _, i := range idx {
				if err := r.commit(i, sw.Result(r.cfgs[i])); err != nil {
					return err
				}
			}
			return nil
		case cancelled(ctx, err):
			return err
		}
		progress().Printf("fused sweep over %d configs failed, falling back to per-config runs: %v",
			len(idx), err)
	}

	return forEachPar(ctx, len(idx), func(k int) error {
		i := idx[k]
		cfg := r.cfgs[i]
		var lastErr error
		for attempt := 1; attempt <= 1+r.opts.Retries; attempt++ {
			sw, err := runSweepIsolated(ctx, r.opts.TraceCache, r.w, r.scale, r.opts.MakeCollector(), r.cfgs[i:i+1])
			if err == nil {
				return r.commit(i, sw.Result(cfg))
			}
			lastErr = err
			// Cancellation is not a per-config failure: abort the sweep.
			if cancelled(ctx, err) {
				return err
			}
			progress().Printf("config %s attempt %d/%d failed: %v", cfg, attempt, 1+r.opts.Retries, err)
		}
		f := r.failure(cfg.String(), 1+r.opts.Retries, lastErr)
		var pe *PanicError
		if errors.As(lastErr, &pe) {
			f.Stack = pe.Stack
		}
		r.mu.Lock()
		r.failures[i] = f
		r.mu.Unlock()
		return nil // a failed config degrades the sweep, it does not kill it
	})
}

// Commit puts a result computed elsewhere into the first open slot, among
// the indices shard names, of a configuration with its name, so a
// configuration listed twice fills two slots. A result for a
// configuration the shard was not sent, or whose slots are all filled, is
// refused and fills nothing.
func (r *PerConfigRun) Commit(shard []int, res ConfigResult) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	i, ok := r.slot(shard, res.Config.String())
	if !ok {
		return fmt.Errorf("returned %s, which was not dispatched", res.Config)
	}
	res.FromCheckpoint = false // the node's own resumed run may have set it
	return r.commitLocked(i, res)
}

// Fail records, like Commit, a configuration that exhausted its retry
// budget elsewhere.
func (r *PerConfigRun) Fail(shard []int, config string, attempts int, err error) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	i, ok := r.slot(shard, config)
	if !ok {
		return fmt.Errorf("reported %s failed, which was not dispatched", config)
	}
	r.failures[i] = r.failure(config, attempts, err)
	return nil
}

// Finish assembles the sweep in input order. A non-nil err, the run's
// own, is returned with the context's cancel cause folded in (so
// errors.Is(err, ErrPreempted) holds for a preempted run); otherwise the
// results must pass the consistency check.
func (r *PerConfigRun) Finish(ctx context.Context, err error) (*PerConfigSweep, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	sweep := &PerConfigSweep{Workload: r.w.Name, Scale: r.scale, Collector: r.colName}
	for i := range r.cfgs {
		if res := r.results[i]; res != nil {
			sweep.Results = append(sweep.Results, *res)
		}
		if f := r.failures[i]; f != nil {
			sweep.Failures = append(sweep.Failures, f)
		}
	}
	if err != nil {
		return sweep, withCause(ctx, err)
	}
	return sweep, sweep.checkConsistency()
}

// commit is the one path each computed result takes: checkpointed,
// placed in its slot, and announced.
func (r *PerConfigRun) commit(i int, res ConfigResult) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.commitLocked(i, res)
}

func (r *PerConfigRun) commitLocked(i int, res ConfigResult) error {
	if r.opts.Checkpoint != nil {
		if err := r.opts.Checkpoint.Save(r.w.Name, r.scale, r.identity, res); err != nil {
			return err
		}
	}
	r.results[i] = &res
	if r.opts.OnResult != nil {
		r.opts.OnResult(res)
	}
	return nil
}

// slot finds the first index of shard whose configuration is named cfg
// and has no outcome yet.
func (r *PerConfigRun) slot(shard []int, cfg string) (int, bool) {
	for _, i := range shard {
		if r.results[i] == nil && r.failures[i] == nil && r.cfgs[i].String() == cfg {
			return i, true
		}
	}
	return 0, false
}

func (r *PerConfigRun) failure(config string, attempts int, err error) *RunFailure {
	return &RunFailure{Workload: r.w.Name, Collector: r.colName, Config: config, Attempts: attempts, Err: err}
}

// cancelled reports whether a run's error ends the sweep rather than
// failing one configuration.
func cancelled(ctx context.Context, err error) bool {
	return ctx.Err() != nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// runSweepIsolated is RunSweep behind a panic barrier, so a crash in the
// simulator (or a collector bug tripping the heap verifier's hard
// assertions) burns one attempt, or sends the fused pass to its
// per-config fallback, instead of killing the job.
func runSweepIsolated(ctx context.Context, tc *TraceCache, w *workloads.Workload, scale int, col gc.Collector, cfgs []cache.Config) (sw *SweepResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: string(debug.Stack())}
		}
	}()
	return runSweepWith(ctx, tc, w, scale, col, cfgs)
}

// checkConsistency cross-checks the per-config runs: the VM is
// deterministic, so every run of the same workload/scale/collector must
// produce the same checksum and instruction counts. A mismatch means a
// checkpoint from a different build or workload version, or a result
// from a node running one, leaked in.
func (s *PerConfigSweep) checkConsistency() error {
	if len(s.Results) < 2 {
		return nil
	}
	first := s.Results[0]
	for _, r := range s.Results[1:] {
		if r.Checksum != first.Checksum || r.Insns != first.Insns || r.GCInsns != first.GCInsns {
			return fmt.Errorf("core: inconsistent per-config results for %s/%s: config %s ran (checksum %d, insns %d) but %s ran (checksum %d, insns %d) — stale checkpoint?",
				s.Workload, s.Collector, first.Config, first.Checksum, first.Insns,
				r.Config, r.Checksum, r.Insns)
		}
	}
	return nil
}
