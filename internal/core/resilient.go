package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"

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
// — and RunSweepPerConfig folds the cause into its returned error, so a
// caller can tell a preemption (re-enqueue, resume later) from a
// shutdown (park as interrupted) with errors.Is.
var ErrPreempted = errors.New("core: sweep preempted")

// WithCause augments a cancellation error with the context's cancel
// cause when the caller supplied one. A plain cancellation (cause ==
// ctx.Err()) and a non-cancelled context pass through unchanged, so
// existing errors.Is(err, context.Canceled) checks keep working. A
// cluster coordinator folds a shard's cancellation through it too, so
// errors.Is(err, ErrPreempted) works on both paths.
func WithCause(ctx context.Context, err error) error {
	if err == nil || ctx.Err() == nil {
		return err
	}
	cause := context.Cause(ctx)
	if cause == nil || errors.Is(err, cause) || errors.Is(cause, ctx.Err()) {
		return err
	}
	return fmt.Errorf("%w: %w", cause, err)
}

// PerConfigSweepOpts configures RunSweepPerConfig.
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
	colName, identity := "none", collectorIdentity(col)
	if col != nil {
		colName = col.Name()
	}
	sweep := &PerConfigSweep{Workload: w.Name, Scale: scale, Collector: colName}

	results := make([]*ConfigResult, len(cfgs))
	failures := make([]*RunFailure, len(cfgs))
	var todo []int
	for i, cfg := range cfgs {
		if opts.Resume && opts.Checkpoint != nil {
			res, ok, err := opts.Checkpoint.Load(w.Name, scale, identity, cfg)
			if err != nil {
				return sweep, err
			}
			if ok {
				results[i] = &res
				continue
			}
		}
		todo = append(todo, i)
	}

	// commit is the one path each computed result takes, from the fused
	// pass or a per-config run: checkpointed, placed in its input-order
	// slot, and announced. finish assembles the sweep in input order.
	commit := func(i int, sw *SweepResult) error {
		res := sw.Result(cfgs[i])
		if opts.Checkpoint != nil {
			if err := opts.Checkpoint.Save(w.Name, scale, identity, res); err != nil {
				return err
			}
		}
		results[i] = &res
		if opts.OnResult != nil {
			opts.OnResult(res)
		}
		return nil
	}
	finish := func(err error) (*PerConfigSweep, error) {
		for i := range cfgs {
			if r := results[i]; r != nil {
				sweep.Results = append(sweep.Results, *r)
			}
			if f := failures[i]; f != nil {
				sweep.Failures = append(sweep.Failures, f)
			}
		}
		if err != nil {
			return sweep, WithCause(ctx, err)
		}
		return sweep, sweep.CheckConsistency()
	}

	// With a trace cache active the remaining configurations can all be
	// served by one fused replay: decode the trace once, simulate every
	// config in a single pass, and commit the results one by one in
	// input order. Any failure other than cancellation falls back to the
	// independent per-config runs below — the fault-tolerance contract is
	// unchanged, the fused pass is purely a fast path.
	if opts.TraceCache != nil && len(todo) > 1 {
		sub := make([]cache.Config, len(todo))
		for k, i := range todo {
			sub[k] = cfgs[i]
		}
		sw, err := runSweepIsolated(ctx, opts.TraceCache, w, scale, opts.MakeCollector(), sub)
		switch {
		case err == nil:
			for _, i := range todo {
				if err := commit(i, sw); err != nil {
					return finish(err)
				}
			}
			return finish(nil)
		case cancelled(ctx, err):
			return finish(err)
		}
		progress().Printf("fused sweep over %d configs failed, falling back to per-config runs: %v",
			len(todo), err)
	}

	err := forEachPar(ctx, len(todo), func(ti int) error {
		i := todo[ti]
		cfg := cfgs[i]
		var lastErr error
		for attempt := 1; attempt <= 1+opts.Retries; attempt++ {
			sw, err := runSweepIsolated(ctx, opts.TraceCache, w, scale, opts.MakeCollector(), cfgs[i:i+1])
			if err == nil {
				return commit(i, sw)
			}
			lastErr = err
			// Cancellation is not a per-config failure: abort the sweep.
			if cancelled(ctx, err) {
				return err
			}
			progress().Printf("config %s attempt %d/%d failed: %v", cfg, attempt, 1+opts.Retries, err)
		}
		f := &RunFailure{
			Workload:  w.Name,
			Collector: colName,
			Config:    cfg.String(),
			Attempts:  1 + opts.Retries,
			Err:       lastErr,
		}
		var pe *PanicError
		if errors.As(lastErr, &pe) {
			f.Stack = pe.Stack
		}
		failures[i] = f
		return nil // a failed config degrades the sweep, it does not kill it
	})
	return finish(err)
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

// CheckConsistency cross-checks the per-config runs: the VM is
// deterministic, so every run of the same workload/scale/collector must
// produce the same checksum and instruction counts. A mismatch means a
// checkpoint from a different build or workload version leaked in.
// Exported because a cluster coordinator recombines results computed on
// different nodes and owes the sweep the same cross-check.
func (s *PerConfigSweep) CheckConsistency() error {
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
