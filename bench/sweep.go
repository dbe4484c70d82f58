package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"

	"gcsim/internal/cache"
	"gcsim/internal/castore"
	"gcsim/internal/core"
	"gcsim/internal/gc"
	"gcsim/internal/mem"
	"gcsim/internal/traceio"
	"gcsim/internal/vm"
	"gcsim/internal/workloads"
)

// sweepBench serves live-sweep and replay-grid: every unit of work is one
// core.RunSweep of tc under Cheney with the default semispace.
type sweepBench struct {
	w     *workloads.Workload
	scale int
	cfgs  []cache.Config
	dir   string

	// replay-grid only: the dir-backed trace cache the sweeps replay from,
	// the recorded trace's sidecar, and its blob store.
	tc         *core.TraceCache
	meta       *core.TraceMeta
	blobs      *castore.Dir
	hits, miss uint64 // trace-cache counters when measurement began

	checked    []cache.Config // configurations the oracle recomputes
	outs       []sweepOut     // every unit's output, for check
	traceBytes int64
}

// sweepOut is one sweep's output: the run header and per-config stats.
type sweepOut struct {
	unit  int
	head  runHead
	stats map[cache.Config]cache.Stats
}

// runHead is the part of a run every configuration shares.
type runHead struct {
	Checksum       int64
	Insns, GCInsns uint64
	GCStats        gc.Stats
}

func tcWorkload() *workloads.Workload {
	w, err := workloads.ByName("tc")
	if err != nil {
		panic(err) // the registry always holds tc
	}
	return w
}

// setupLive sweeps the paper's Section 6 shape, every cache size with
// 64-byte blocks, each with a seed-chosen write policy, and runs one
// warm-up sweep with no trace cache. The geometry is fixed because the
// banks' memory, and with it their speed, depends on it.
func setupLive(ctx context.Context, p *params, dir string) (bench, error) {
	core.SetTraceCache(nil)
	cfgs := seededPolicies(p.rng(1), sizeConfigs(64))
	if p.small {
		cfgs = cfgs[:2]
	}
	b := &sweepBench{w: tcWorkload(), cfgs: cfgs, checked: cfgs, dir: dir}
	b.scale = p.scale(b.w)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if _, err := core.RunSweep(ctx, b.w, b.scale, gc.NewCheney(0), cfgs); err != nil {
		return nil, err
	}
	return b, nil
}

// setupReplay records tc into a castore.Dir-backed trace cache (through a
// one-configuration sweep, which records and then replays) and builds
// the 40-configuration grid with a seed-chosen write policy per config.
func setupReplay(ctx context.Context, p *params, dir string) (bench, error) {
	rng := p.rng(2)
	cfgs := seededPolicies(rng, cache.SweepConfigs(cache.WriteValidate))
	if p.small {
		cfgs = cfgs[:2]
	}
	checked := make([]cache.Config, 0, 4)
	for _, k := range rng.Perm(len(cfgs))[:min(4, len(cfgs))] {
		checked = append(checked, cfgs[k])
	}
	b := &sweepBench{w: tcWorkload(), cfgs: cfgs, checked: checked, dir: dir}
	b.scale = p.scale(b.w)

	tc, err := core.NewTraceCache(filepath.Join(dir, "trace-cache"))
	if err != nil {
		return nil, err
	}
	core.SetTraceCache(tc)
	b.tc = tc
	if _, err := core.RunSweep(ctx, b.w, b.scale, gc.NewCheney(0), cfgs[:1]); err != nil {
		return nil, err
	}
	if b.meta, err = readMeta(tc.Dir(), b.w, b.scale); err != nil {
		return nil, err
	}
	if b.blobs, err = castore.NewDir(filepath.Join(tc.Dir(), "blobs")); err != nil {
		return nil, err
	}
	b.traceBytes = b.meta.TraceBytes
	st := tc.Stats()
	b.hits, b.miss = st.Hits, st.Misses
	return b, nil
}

// sizeConfigs is every paper cache size with one block size.
func sizeConfigs(block int) []cache.Config {
	cfgs := make([]cache.Config, 0, len(cache.Sizes))
	for _, size := range cache.Sizes {
		cfgs = append(cfgs, cache.Config{SizeBytes: size, BlockBytes: block})
	}
	return cfgs
}

// seededPolicies gives each configuration a seed-chosen write policy.
func seededPolicies(rng *rand.Rand, cfgs []cache.Config) []cache.Config {
	for i := range cfgs {
		cfgs[i].Policy = cache.WriteValidate
		if rng.IntN(2) == 1 {
			cfgs[i].Policy = cache.FetchOnWrite
		}
	}
	return cfgs
}

// readMeta loads the sidecar a dir-backed trace cache wrote for w's
// Cheney trace at the given scale.
func readMeta(dir string, w *workloads.Workload, scale int) (*core.TraceMeta, error) {
	key := core.TraceKeyFor(w.Name, scale, gc.Identity(gc.NewCheney(0)))
	data, err := os.ReadFile(filepath.Join(dir, key+".json"))
	if err != nil {
		return nil, err
	}
	var meta core.TraceMeta
	if err := json.Unmarshal(data, &meta); err != nil {
		return nil, fmt.Errorf("%s.json: %w", key, err)
	}
	return &meta, nil
}

func (b *sweepBench) op(ctx context.Context, i int, lay layers) opResult {
	start := time.Now()
	var (
		out sweepOut
		err error
	)
	switch {
	case lay == nil:
		var sw *core.SweepResult
		sw, err = core.RunSweep(ctx, b.w, b.scale, gc.NewCheney(0), b.cfgs)
		if err == nil {
			out = sweepOut{head: headOf(sw.Run), stats: sw.Stats}
		}
	case b.tc == nil:
		out, err = b.liveTraced(ctx, lay)
	default:
		out, err = b.replayTraced(ctx, lay)
	}
	r := opResult{start: start, wall: time.Since(start), attempted: 1}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: sweep %d: %v\n", i, err)
		r.failed = 1
		return r
	}
	out.unit = i
	b.outs = append(b.outs, out)
	return r
}

func headOf(r *core.RunResult) runHead {
	return runHead{Checksum: r.Checksum, Insns: r.Insns, GCInsns: r.GCInsns, GCStats: r.GCStats}
}

func statsOf(caches []*cache.Cache) map[cache.Config]cache.Stats {
	m := make(map[cache.Config]cache.Stats, len(caches))
	for _, c := range caches {
		m[c.Config()] = c.S
	}
	return m
}

// liveTraced is core.RunSweep's live path with every layer timed. It
// builds the bank the way RunSweep does: the parallel bank when
// parallelism is above one, the fused bank otherwise.
func (b *sweepBench) liveTraced(ctx context.Context, lay layers) (sweepOut, error) {
	var (
		sink  batchTracer
		par   *cache.ParallelBank
		fused *cache.FusedBank
	)
	if core.Parallelism() > 1 && len(b.cfgs) > 1 {
		par = cache.NewParallelBank(b.cfgs)
		sink = par
	} else {
		fused = cache.NewFusedBank(b.cfgs)
		sink = fused
	}
	tt := &timedTracer{next: sink}
	col := &timedCheney{Cheney: gc.NewCheney(0), tracer: tt}
	r0 := time.Now()
	run, err := core.Run(ctx, core.RunSpec{Workload: b.w, Scale: b.scale, Collector: col, Tracer: tt})
	runWall := time.Since(r0)
	d0 := time.Now()
	var caches []*cache.Cache
	if par != nil {
		par.Drain()
		caches = par.Caches
	} else {
		caches = fused.Caches
	}
	drain := time.Since(d0)
	if err != nil {
		return sweepOut{}, err
	}
	lay["vm.interpret_s"] = seconds(int64(runWall) - tt.ns - col.ns)
	lay["cache.consume_s"] = seconds(tt.ns)
	lay["gc.collect_s"] = seconds(col.ns)
	lay["cache.drain_s"] = drain.Seconds()
	lay["mem.chunks"] = float64(tt.chunks)
	lay["gc.collections"] = float64(run.GCStats.Collections)
	lay["gc.copied_words"] = float64(run.GCStats.CopiedWords)
	return sweepOut{head: headOf(run), stats: statsOf(caches)}, nil
}

// replayTraced is the trace cache's fused replay path with every layer
// timed: a timing reader over castore.Open feeds a SharedReplayer, whose
// chunks reach the FusedBank through a timing sink.
func (b *sweepBench) replayTraced(ctx context.Context, lay layers) (sweepOut, error) {
	id, err := castore.ParseID(b.meta.SHA256)
	if err != nil {
		return sweepOut{}, err
	}
	f, err := castore.Open(ctx, b.blobs, id)
	if err != nil {
		return sweepOut{}, err
	}
	defer f.Close()
	tr := &timedReader{r: f}
	sr, err := traceio.NewSharedReplayer(tr)
	if err != nil {
		return sweepOut{}, err
	}
	sr.SetDecoders(core.Parallelism())
	fused := cache.NewFusedBank(b.cfgs)
	sink := &timedSink{next: fused}
	r0 := time.Now()
	n, err := sr.Run(ctx, sink)
	runWall := time.Since(r0)
	if err != nil {
		return sweepOut{}, err
	}
	if n != b.meta.Refs {
		return sweepOut{}, fmt.Errorf("replayed %d refs, sidecar says %d", n, b.meta.Refs)
	}
	simulate := seconds(sink.ns) - fused.MergeSeconds()
	lay["cache.simulate_s"] = simulate
	lay["cache.merge_s"] = fused.MergeSeconds()
	lay["traceio.stall_s"] = (runWall - time.Duration(sink.ns)).Seconds()
	lay["traceio.decode_s"] = sr.DecodeSeconds()
	lay["traceio.frames"] = float64(sr.Frames())
	lay["castore.get_s"] = seconds(tr.ns.Load())
	lay["castore.get_mb"] = float64(tr.bytes.Load()) / 1e6
	lay["traceio.bytes_per_ref"] = float64(tr.bytes.Load()) / float64(max(n, 1))
	lay["cache.ns_per_config_ref"] = simulate * 1e9 / (float64(len(b.cfgs)) * float64(max(n, 1)))
	m := b.meta
	head := runHead{Checksum: m.Checksum, Insns: m.Insns, GCInsns: m.GCInsns, GCStats: m.GCStats}
	return sweepOut{head: head, stats: statsOf(fused.Caches)}, nil
}

// check recomputes the checked configurations with the per-reference
// cache.Bank, fed one reference at a time by traceio.Replayer over a
// trace of the same run, and compares every unit's output with it.
func (b *sweepBench) check(ctx context.Context) (int, error) {
	var (
		rd   io.ReadCloser
		head runHead
		err  error
	)
	if b.tc == nil {
		rd, head, err = b.recordOracleTrace(ctx)
	} else {
		m := b.meta
		head = runHead{Checksum: m.Checksum, Insns: m.Insns, GCInsns: m.GCInsns, GCStats: m.GCStats}
		var id castore.ID
		if id, err = castore.ParseID(m.SHA256); err == nil {
			rd, err = castore.Open(ctx, b.blobs, id)
		}
	}
	if err != nil {
		return 0, err
	}
	defer rd.Close()
	want, err := oracleStats(ctx, rd, b.checked)
	if err != nil {
		return 0, err
	}
	failed := 0
	for _, out := range b.outs {
		if err := compareOut(out, head, want); err != nil {
			fmt.Fprintf(os.Stderr, "bench: sweep %d: %v\n", out.unit, err)
			failed++
		}
	}
	return failed, nil
}

// recordOracleTrace runs the sweep's program once more with a v2 trace
// writer attached, exactly as the trace cache records, and reopens the
// trace file.
func (b *sweepBench) recordOracleTrace(ctx context.Context) (io.ReadCloser, runHead, error) {
	path := filepath.Join(b.dir, "oracle.trace")
	f, err := os.Create(path)
	if err != nil {
		return nil, runHead{}, err
	}
	defer f.Close()
	bw, err := traceio.NewBatchWriter(f, traceio.WriterOpts{})
	if err != nil {
		return nil, runHead{}, err
	}
	run, err := core.Run(ctx, core.RunSpec{
		Workload: b.w, Scale: b.scale, Collector: gc.NewCheney(0), Tracer: bw,
		OnMachine: func(m *vm.Machine) { bw.SetClock(m.Insns) },
	})
	if err != nil {
		return nil, runHead{}, err
	}
	if err := bw.Close(); err != nil {
		return nil, runHead{}, err
	}
	if err := f.Close(); err != nil {
		return nil, runHead{}, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return nil, runHead{}, err
	}
	b.traceBytes = st.Size()
	rd, err := os.Open(path)
	return rd, headOf(run), err
}

// oracleStats replays a trace into a serial cache.Bank through its
// per-reference Ref method, independent of the fused and parallel
// kernels the sweeps use.
func oracleStats(ctx context.Context, rd io.Reader, cfgs []cache.Config) (map[cache.Config]cache.Stats, error) {
	rp, err := traceio.NewReplayer(rd)
	if err != nil {
		return nil, err
	}
	rp.SetDecoders(1)
	bank := cache.NewBank(cfgs)
	if _, err := rp.Run(ctx, mem.TracerFunc(bank.Ref)); err != nil {
		return nil, err
	}
	return statsOf(bank.Caches), nil
}

func compareOut(out sweepOut, head runHead, want map[cache.Config]cache.Stats) error {
	if out.head != head {
		return fmt.Errorf("run header %+v, oracle %+v", out.head, head)
	}
	for cfg, w := range want {
		if got, ok := out.stats[cfg]; !ok || got != w {
			return fmt.Errorf("%v: stats %+v, oracle %+v", cfg, got, w)
		}
	}
	return nil
}

func (b *sweepBench) traceMB() float64 { return float64(b.traceBytes) / 1e6 }

func (b *sweepBench) finishLayers(m map[string]float64) {
	if b.tc == nil {
		return
	}
	st := b.tc.Stats()
	if n := st.Hits - b.hits + st.Misses - b.miss; n > 0 {
		m["core.trace_hit_ratio"] = float64(st.Hits-b.hits) / float64(n)
	}
}

func (b *sweepBench) close() { core.SetTraceCache(nil) }
