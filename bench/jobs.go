package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"gcsim/internal/cache"
	"gcsim/internal/core"
	"gcsim/internal/gc"
	"gcsim/internal/report"
	"gcsim/internal/server"
	"gcsim/internal/telemetry"
	"gcsim/internal/workloads"
)

// gcsimd is one in-process standalone server: one worker, the shared
// dir-backed trace cache, net/http on a loopback port.
type gcsimd struct {
	srv    *server.Server
	hs     *http.Server
	served chan error
	cancel context.CancelFunc
	client *server.Client
}

func startGcsimd(stateDir string, tc *core.TraceCache, spans *telemetry.SpanRecorder, tr *http.Transport) (*gcsimd, error) {
	srv, err := server.New(server.Config{StateDir: stateDir, Workers: 1, TraceCache: tc, Spans: spans})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	srv.Start(ctx)
	g := &gcsimd{srv: srv, hs: &http.Server{Handler: srv.Handler()}, served: make(chan error, 1), cancel: cancel}
	go func() { g.served <- g.hs.Serve(ln) }()
	g.client = server.NewClient("http://" + ln.Addr().String())
	g.client.HTTPClient = &http.Client{Transport: tr}
	return g, nil
}

// stop drains the worker pool, shuts HTTP down and waits for the serving
// goroutine to return.
func (g *gcsimd) stop() {
	g.srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := g.hs.Shutdown(ctx); err != nil {
		g.hs.Close()
	}
	<-g.served
	g.cancel()
}

// jobsBench drives gcsimd with one closed-loop client: submit a job, follow
// its events to the end, fetch it and render its report, then the next.
// Traced units go to a second server whose span recorder is on, so the
// untraced units pay nothing for it. The client holds at most one
// connection: a switch between the two servers closes the idle one.
type jobsBench struct {
	p         *params
	tc        *core.TraceCache
	transport *http.Transport
	plain     *gcsimd
	traced    *gcsimd
	last      *gcsimd
	spans     *telemetry.SpanRecorder // the traced server's recorder

	hits, miss uint64
	traceBytes int64
	saved      []savedJob
	tracedJobs int
	configRefs float64 // configurations × references over traced jobs
}

// savedJob is a job whose report check compares with a local sweep.
type savedJob struct {
	unit   int
	spec   server.JobSpec
	report []byte
}

// reportEvery is how often a job's report is kept for the check.
const reportEvery = 20

// setupJobs starts the server(s) and primes the five SmallScale traces
// with one single-configuration job each.
func setupJobs(ctx context.Context, p *params, dir string) (bench, error) {
	core.SetTraceCache(nil)
	tc, err := core.NewTraceCache(filepath.Join(dir, "trace-cache"))
	if err != nil {
		return nil, err
	}
	b := &jobsBench{p: p, tc: tc, transport: &http.Transport{MaxConnsPerHost: 1}}
	if b.plain, err = startGcsimd(filepath.Join(dir, "state"), tc, nil, b.transport); err != nil {
		return nil, err
	}
	if p.traced {
		b.spans = telemetry.NewSpanRecorder(0)
		b.spans.SetJSONL(p.jsonl)
		if b.traced, err = startGcsimd(filepath.Join(dir, "state-traced"), tc, b.spans, b.transport); err != nil {
			b.close()
			return nil, err
		}
	}
	for _, w := range workloads.All() {
		spec := server.JobSpec{Workload: w.Name, Scale: w.SmallScale, GC: "cheney",
			Configs: []server.CacheConfig{server.ConfigFromCache(cache.Config{SizeBytes: 64 << 10, BlockBytes: 64})}}
		job, err := b.plain.client.Run(ctx, spec, nil)
		if err == nil && job.State != server.StateDone {
			err = fmt.Errorf("job %s ended %s: %s", job.ID, job.State, job.Error)
		}
		if err == nil {
			var meta *core.TraceMeta
			if meta, err = readMeta(tc.Dir(), w, w.SmallScale); err == nil {
				b.traceBytes += meta.TraceBytes
			}
		}
		if err != nil {
			b.close()
			return nil, fmt.Errorf("priming %s: %w", w.Name, err)
		}
	}
	b.last = b.plain
	st := tc.Stats()
	b.hits, b.miss = st.Hits, st.Misses
	return b, nil
}

// spec is job i's input. Each block of five jobs runs every program once,
// in a seed-shuffled order, so the mix is the same for every seed. Each
// job sweeps four seed-chosen cache sizes with 64-byte blocks and
// seed-chosen write policies; the block size is fixed because a 16-byte
// block multiplies a lane's memory by four.
func (b *jobsBench) spec(i int) server.JobSpec {
	progs := workloads.All()
	perm := b.p.rng(3<<32 | uint64(i/len(progs))).Perm(len(progs))
	w := progs[perm[i%len(progs)]]
	rng := b.p.rng(4<<32 | uint64(i))
	sizes := seededPolicies(rng, sizeConfigs(64))
	n := 4
	if b.p.small {
		n = 2
	}
	var cfgs []server.CacheConfig
	for _, k := range rng.Perm(len(sizes))[:n] {
		cfgs = append(cfgs, server.ConfigFromCache(sizes[k]))
	}
	return server.JobSpec{Workload: w.Name, Scale: w.SmallScale, GC: "cheney", Configs: cfgs}
}

// use makes node the one the next unit talks to.
func (b *jobsBench) use(node *gcsimd, spans *telemetry.SpanRecorder) *server.Client {
	if node != b.last {
		b.transport.CloseIdleConnections()
		b.last = node
	}
	core.SetSpans(spans)
	return node.client
}

func (b *jobsBench) op(ctx context.Context, i int, lay layers) opResult {
	spec := b.spec(i)
	r := opResult{start: time.Now(), attempted: 1}
	var (
		job *server.Job
		err error
		buf bytes.Buffer
	)
	if lay == nil {
		c := b.use(b.plain, nil)
		job, err = c.Run(ctx, spec, nil)
		if err == nil {
			err = job.RenderReport(&buf, false)
		}
	} else {
		job, err = b.tracedJob(ctx, spec, lay, &buf)
	}
	r.wall = time.Since(r.start)
	if err == nil && job.State != server.StateDone {
		err = fmt.Errorf("job %s ended %s: %s", job.ID, job.State, job.Error)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: job %d: %v\n", i, err)
		r.failed = 1
		return r
	}
	if lay == nil && i%reportEvery == 0 {
		b.saved = append(b.saved, savedJob{unit: i, spec: spec, report: buf.Bytes()})
	}
	return r
}

// tracedJob is Client.Run with each client-side call timed.
func (b *jobsBench) tracedJob(ctx context.Context, spec server.JobSpec, lay layers, buf *bytes.Buffer) (*server.Job, error) {
	c := b.use(b.traced, b.spans)
	t0 := time.Now()
	j, err := c.Submit(ctx, spec)
	if err != nil {
		return nil, err
	}
	lay["server.submit_s"] = time.Since(t0).Seconds()
	if _, err := c.Stream(ctx, j.ID, nil); err != nil {
		return nil, err
	}
	t1 := time.Now()
	job, err := c.Job(ctx, j.ID)
	if err != nil {
		return nil, err
	}
	lay["server.fetch_s"] = time.Since(t1).Seconds()
	t2 := time.Now()
	if err := job.RenderReport(buf, false); err != nil {
		return nil, err
	}
	lay["report.render_s"] = time.Since(t2).Seconds()
	b.tracedJobs++
	if len(job.Results) > 0 {
		s := job.Results[0].CacheStats
		b.configRefs += float64(len(job.Results)) * float64(s.Refs()+s.GCReads+s.GCWrites)
	}
	return job, nil
}

// check re-runs every kept job as a local core.RunSweep with no trace
// cache and compares the rendered reports byte for byte.
func (b *jobsBench) check(ctx context.Context) (int, error) {
	core.SetSpans(nil)
	failed := 0
	for _, s := range b.saved {
		local, err := localReport(ctx, s.spec)
		if err != nil {
			return failed, err
		}
		if !bytes.Equal(local, s.report) {
			fmt.Fprintf(os.Stderr, "bench: job %d: report differs from a local sweep:\n%s\nlocal:\n%s", s.unit, s.report, local)
			failed++
		}
	}
	return failed, nil
}

// localReport renders the report gcsim prints for the same sweep run
// in-process.
func localReport(ctx context.Context, spec server.JobSpec) ([]byte, error) {
	if core.ActiveTraceCache() != nil {
		return nil, errors.New("a trace cache is installed; the local sweep must run live")
	}
	w, err := workloads.ByName(spec.Workload)
	if err != nil {
		return nil, err
	}
	cfgs, err := spec.CacheConfigs()
	if err != nil {
		return nil, err
	}
	col, err := gc.New(spec.GC, spec.GCOptions.ToGC())
	if err != nil {
		return nil, err
	}
	sw, err := core.RunSweep(ctx, w, spec.Scale, col, cfgs)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	run := sw.Run
	report.Render(&buf, report.Run{
		Name: run.Workload, Collector: run.Collector, GCStats: run.GCStats,
		Checksum: run.Checksum, Insns: run.Insns, GCInsns: run.GCInsns,
	}, sw.Bank.Caches, false)
	return buf.Bytes(), nil
}

func (b *jobsBench) traceMB() float64 { return float64(b.traceBytes) / 1e6 }

// finishLayers reads the traced server's stage totals (per job) and the
// trace cache's hit ratio over the measured jobs.
func (b *jobsBench) finishLayers(m map[string]float64) {
	st := b.tc.Stats()
	if n := st.Hits - b.hits + st.Misses - b.miss; n > 0 {
		m["core.trace_hit_ratio"] = float64(st.Hits-b.hits) / float64(n)
	}
	if b.spans == nil || b.tracedJobs == 0 {
		return
	}
	totals := b.spans.StageTotals()
	perJob := func(stage string) float64 { return totals[stage].Seconds / float64(b.tracedJobs) }
	m["server.queue_s"] = perJob(telemetry.StageQueue)
	m["server.sweep_s"] = perJob(telemetry.StageSweep)
	m["server.report_s"] = perJob(telemetry.StageReport)
	m["traceio.decode_s"] = perJob(telemetry.StageDecode)
	m["cache.simulate_s"] = perJob(telemetry.StageSimulate)
	m["cache.merge_s"] = perJob(telemetry.StageMerge)
	if b.configRefs > 0 {
		m["cache.ns_per_config_ref"] = totals[telemetry.StageSimulate].Seconds * 1e9 / b.configRefs
	}
}

func (b *jobsBench) close() {
	core.SetSpans(nil)
	for _, g := range []*gcsimd{b.plain, b.traced} {
		if g != nil {
			g.stop()
		}
	}
	b.transport.CloseIdleConnections()
}
