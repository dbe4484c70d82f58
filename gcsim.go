// Package gcsim reproduces Mark B. Reinhold's "Cache Performance of
// Garbage-Collected Programs" (PLDI 1994): a Scheme system whose data
// lives in a simulated word-addressed memory, a direct-mapped data-cache
// simulator with the paper's write-miss policies and timing model, five
// storage managers (no collection, Cheney semispace, generational,
// aggressive, and non-moving mark-sweep), the five test workloads, and one
// experiment per table and figure of the paper's evaluation, plus four
// extension experiments (associativity, two-level caches, controlled
// thrashing, and moving-vs-non-moving collection).
//
// This package is the public facade over the implementation packages. The
// three layers a typical user touches are:
//
//   - Machines run Scheme programs: NewMachine / (*Machine).Eval.
//   - Caches and collectors shape the simulation: NewCache, NewCollector.
//   - Experiments regenerate the paper's results: Experiments,
//     ExperimentByID.
//
// A minimal simulation:
//
//	c := gcsim.NewCache(gcsim.CacheConfig{SizeBytes: 64 << 10, BlockBytes: 64})
//	m := gcsim.NewMachine(c, nil) // nil collector = linear allocation
//	v, err := m.Eval(`(let loop ((i 0) (acc '()))
//	                    (if (= i 1000) (length acc)
//	                        (loop (+ i 1) (cons i acc))))`)
//	// c.S now holds the cache statistics; m.Insns() the instruction count.
package gcsim

import (
	"context"

	"gcsim/internal/analysis"
	"gcsim/internal/cache"
	"gcsim/internal/core"
	"gcsim/internal/gc"
	"gcsim/internal/mem"
	"gcsim/internal/plot"
	"gcsim/internal/scheme"
	"gcsim/internal/vm"
	"gcsim/internal/workloads"
)

// Core simulation types, re-exported from the implementation packages.
type (
	// Machine is a complete Scheme system running on simulated memory.
	Machine = vm.Machine
	// Word is a tagged Scheme value.
	Word = scheme.Word
	// Tracer observes every simulated data reference.
	Tracer = mem.Tracer
	// Cache is a direct-mapped data cache.
	Cache = cache.Cache
	// CacheConfig selects a cache geometry and write-miss policy.
	CacheConfig = cache.Config
	// CacheBank simulates many configurations in one pass.
	CacheBank = cache.Bank
	// Ref is one packed data reference of the batch pipeline.
	Ref = mem.Ref
	// BatchTracer observes references a sealed chunk at a time.
	BatchTracer = mem.BatchTracer
	// CacheStats holds one cache's event counts.
	CacheStats = cache.Stats
	// Processor is one of the paper's hypothetical CPUs.
	Processor = cache.Processor
	// WritePolicy selects write-validate or fetch-on-write.
	WritePolicy = cache.WritePolicy
	// Collector is a storage manager (gc.NoGC, gc.Cheney, ...).
	Collector = gc.Collector
	// CollectorOptions sizes a collector built by NewCollector.
	CollectorOptions = gc.Options
	// Workload is one of the paper's test programs.
	Workload = workloads.Workload
	// Behaviour is the Section 7 memory-behaviour analyzer.
	Behaviour = analysis.Behaviour
	// BehaviourReport summarizes a Behaviour run.
	BehaviourReport = analysis.Report
	// Activity decomposes per-cache-block local performance.
	Activity = analysis.Activity
	// Experiment regenerates one of the paper's tables or figures.
	Experiment = core.Experiment
	// ExpConfig controls experiment scale.
	ExpConfig = core.ExpConfig
	// ExpResult is an experiment's report and metrics.
	ExpResult = core.ExpResult
	// RunSpec describes one simulated run.
	RunSpec = core.RunSpec
	// RunResult captures a run's counters.
	RunResult = core.RunResult
	// SweepResult pairs a run with a bank of cache results.
	SweepResult = core.SweepResult
	// MissEvent is one cache miss, for plot hooks.
	MissEvent = cache.MissEvent
	// Sweep renders the Section 7 miss plot.
	Sweep = plot.Sweep
	// AssocConfig and AssocCache are the set-associative extension (X1).
	AssocConfig = cache.AssocConfig
	AssocCache  = cache.AssocCache
	// HierarchyConfig and Hierarchy are the two-level extension (X2).
	HierarchyConfig = cache.HierarchyConfig
	Hierarchy       = cache.Hierarchy
)

// Write-miss policies.
const (
	WriteValidate = cache.WriteValidate
	FetchOnWrite  = cache.FetchOnWrite
)

// The paper's hypothetical processors: 33 MHz "slow" and 500 MHz "fast".
var (
	Slow = cache.Slow
	Fast = cache.Fast
)

// NewMachine builds a Scheme machine with the standard library loaded. A
// nil tracer disables reference observation; a nil collector selects
// linear allocation with the collector disabled (the paper's control
// configuration).
func NewMachine(tracer Tracer, col Collector) *Machine {
	return vm.NewLoaded(tracer, col)
}

// NewCache builds a direct-mapped cache; it panics on an invalid
// configuration (use CacheConfig.Validate to check first).
func NewCache(cfg CacheConfig) *Cache { return cache.New(cfg) }

// NewCacheBank builds one cache per configuration, fed in lockstep.
func NewCacheBank(cfgs []CacheConfig) *CacheBank { return cache.NewBank(cfgs) }

// SetParallelism bounds concurrent experiment runs, the trace decoders of
// a replayed sweep, and the workers a sweep's cache bank shards its
// configurations across (default GOMAXPROCS; 1 = one run at a time,
// decoded and simulated inline). It does not govern recording: the trace
// writer always encodes on one goroutine of its own.
func SetParallelism(n int) { core.SetParallelism(n) }

// Parallelism returns the current experiment-parallelism bound.
func Parallelism() int { return core.Parallelism() }

// SweepConfigs returns the paper's full cache-size × block-size grid for
// one write policy.
func SweepConfigs(p WritePolicy) []CacheConfig { return cache.SweepConfigs(p) }

// NewAssocCache builds an LRU set-associative cache (the X1 extension).
func NewAssocCache(cfg AssocConfig) *AssocCache { return cache.NewAssoc(cfg) }

// NewHierarchy builds a two-level cache pair (the X2 extension).
func NewHierarchy(cfg HierarchyConfig) *Hierarchy { return cache.NewHierarchy(cfg) }

// NewCollector builds a collector by name: "none", "cheney",
// "generational", "aggressive", or "marksweep".
func NewCollector(name string, opts CollectorOptions) (Collector, error) {
	return gc.New(name, opts)
}

// NewBehaviour builds the Section 7 analyzer for one cache geometry.
func NewBehaviour(cacheBytes, blockBytes int) *Behaviour {
	return analysis.New(cacheBytes, blockBytes)
}

// Workloads returns the five paper workloads (tc, prover, lambda, nbody,
// match — the analogs of orbit, imps, lp, nbody, gambit).
func Workloads() []*Workload { return workloads.All() }

// StyleWorkloads returns the Section 8 functional/imperative pair.
func StyleWorkloads() []*Workload { return workloads.Styles() }

// WorkloadByName finds a workload by name.
func WorkloadByName(name string) (*Workload, error) { return workloads.ByName(name) }

// Run executes one simulated program run.
func Run(spec RunSpec) (*RunResult, error) { return core.Run(context.Background(), spec) }

// RunContext executes one simulated program run under a context: when ctx
// is cancelled or its deadline passes, the machine is interrupted at its
// next call safepoint and the run returns an error matching both ctx.Err()
// and vm.ErrInterrupted.
func RunContext(ctx context.Context, spec RunSpec) (*RunResult, error) {
	return core.Run(ctx, spec)
}

// RunSweep runs a workload once against a bank of cache configurations.
func RunSweep(w *Workload, scale int, col Collector, cfgs []CacheConfig) (*SweepResult, error) {
	return core.RunSweep(context.Background(), w, scale, col, cfgs)
}

// RunSweepContext is RunSweep under a cancellable context.
func RunSweepContext(ctx context.Context, w *Workload, scale int, col Collector, cfgs []CacheConfig) (*SweepResult, error) {
	return core.RunSweep(ctx, w, scale, col, cfgs)
}

// SetVerifyHeap enables post-collection heap-invariant verification (see
// gc.Verify) on every subsequent run.
func SetVerifyHeap(on bool) { core.SetVerifyHeap(on) }

// Experiments returns the registry of paper tables and figures, in paper
// order.
func Experiments() []*Experiment { return core.Experiments() }

// ExperimentByID finds one experiment (T1, T2, F1, F1b, F1c, F2, F2b,
// F2c, F3, F4, T3, F5, E8, or the extensions X1-X4).
func ExperimentByID(id string) (*Experiment, error) { return core.ExperimentByID(id) }

// NewSweepPlot builds a miss-sweep plot sized for a run of totalRefs
// references over a cache with cacheBlocks blocks.
func NewSweepPlot(totalRefs uint64, cacheBlocks, w, h int) *Sweep {
	return plot.NewSweep(totalRefs, cacheBlocks, w, h)
}

// FixnumValue decodes an integer result word (such as a workload
// checksum).
func FixnumValue(w Word) int64 { return scheme.FixnumValue(w) }

// IsFixnum reports whether a result word is an integer.
func IsFixnum(w Word) bool { return scheme.IsFixnum(w) }
