package server_test

// End-to-end tests over the real HTTP API: a Server behind httptest, the
// same Client gcsim -remote uses, and real sweeps on the engine. They pin
// the three properties the service promises: remote reports are
// byte-identical to local runs, a drain lands in-flight jobs in resumable
// checkpoints a restarted server completes, and the shared trace cache
// shows up as a nonzero hit rate in /metrics.

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"gcsim/internal/cache"
	"gcsim/internal/core"
	"gcsim/internal/gc"
	"gcsim/internal/report"
	"gcsim/internal/server"
	"gcsim/internal/workloads"
)

// startServer builds and starts a server over stateDir and serves its API.
func startServer(t *testing.T, stateDir string, tc *core.TraceCache) (*server.Server, *server.Client) {
	t.Helper()
	srv, err := server.New(server.Config{StateDir: stateDir, Workers: 1, TraceCache: tc})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start(context.Background())
	t.Cleanup(srv.Drain)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return srv, server.NewClient(hs.URL)
}

// localReportBytes runs the sweep in-process — the exact path gcsim
// -workload takes — and renders it through internal/report.
func localReportBytes(t *testing.T, spec server.JobSpec) []byte {
	t.Helper()
	w, err := workloads.ByName(spec.Workload)
	if err != nil {
		t.Fatal(err)
	}
	cfgs, err := spec.CacheConfigs()
	if err != nil {
		t.Fatal(err)
	}
	col, err := gc.New(spec.GC, spec.GCOptions.ToGC())
	if err != nil {
		t.Fatal(err)
	}
	sweep, err := core.RunSweep(context.Background(), w, spec.Scale, col, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	run := sweep.Run
	report.Render(&buf, report.Run{
		Name:      run.Workload,
		Collector: run.Collector,
		GCStats:   run.GCStats,
		Checksum:  run.Checksum,
		Insns:     run.Insns,
		GCInsns:   run.GCInsns,
	}, sweep.Bank.Caches, false)
	return buf.Bytes()
}

// metricValue extracts one sample from a Prometheus text page.
func metricValue(t *testing.T, page, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(page, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("metric %s: bad value %q", name, rest)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, page)
	return 0
}

func TestE2EReportByteIdenticalAndTraceCacheHits(t *testing.T) {
	tc, err := core.NewTraceCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	core.SetTraceCache(tc)
	t.Cleanup(func() { core.SetTraceCache(nil) })
	_, cl := startServer(t, t.TempDir(), tc)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	spec := server.JobSpec{
		Workload: "nbody",
		Scale:    1,
		GC:       "cheney",
		Configs: []server.CacheConfig{
			{SizeBytes: 32 << 10, BlockBytes: 32, Policy: cache.WriteValidate},
			{SizeBytes: 16 << 10, BlockBytes: 16, Policy: cache.FetchOnWrite},
			{SizeBytes: 64 << 10, BlockBytes: 64, Policy: cache.WriteValidate},
		},
	}

	var events []server.Event
	job, err := cl.Run(ctx, spec, func(e server.Event) { events = append(events, e) })
	if err != nil {
		t.Fatal(err)
	}
	if job.State != server.StateDone {
		t.Fatalf("job state = %s (%s), want done", job.State, job.Error)
	}
	if job.ConfigsDone != len(spec.Configs) || len(job.Results) != len(spec.Configs) {
		t.Fatalf("job finished %d/%d results", job.ConfigsDone, len(job.Results))
	}
	for i, r := range job.Results {
		if r.Config != spec.Configs[i] {
			t.Errorf("result %d is %+v, want %+v (spec order)", i, r.Config, spec.Configs[i])
		}
	}
	var sawConfig, sawTerminal bool
	for _, e := range events {
		switch {
		case e.Type == "config":
			sawConfig = true
		case e.Type == "state" && e.State == server.StateDone:
			sawTerminal = true
		}
	}
	if !sawConfig || !sawTerminal {
		t.Errorf("stream missed events (config=%v terminal=%v): %+v", sawConfig, sawTerminal, events)
	}

	// The report rendered from the wire results must be byte-identical to
	// the same sweep run and rendered entirely locally.
	local := localReportBytes(t, spec)
	var remote bytes.Buffer
	if err := job.RenderReport(&remote, false); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(remote.Bytes(), local) {
		t.Errorf("client-rendered report differs from local run:\n--- remote ---\n%s--- local ---\n%s", remote.Bytes(), local)
	}

	// The server-side /report endpoint serves the same bytes.
	resp, err := http.Get(cl.BaseURL + "/v1/jobs/" + job.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	served, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(served, local) {
		t.Errorf("/report (%d) differs from local run:\n%s", resp.StatusCode, served)
	}

	// Re-submitting the same sweep replays the cached trace: same bytes
	// out, and the shared trace cache reports hits on /metrics.
	job2, err := cl.Run(ctx, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	var remote2 bytes.Buffer
	if err := job2.RenderReport(&remote2, false); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(remote2.Bytes(), local) {
		t.Error("repeated job's report differs from the first")
	}
	page, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if hits := metricValue(t, page, "gcsimd_trace_cache_hits_total"); hits <= 0 {
		t.Errorf("gcsimd_trace_cache_hits_total = %v after a repeated job, want > 0", hits)
	}
	if misses := metricValue(t, page, "gcsimd_trace_cache_misses_total"); misses < 1 {
		t.Errorf("gcsimd_trace_cache_misses_total = %v, want >= 1 (the recording run)", misses)
	}
	if n := metricValue(t, page, "gcsimd_jobs_completed_total"); n != 2 {
		t.Errorf("gcsimd_jobs_completed_total = %v, want 2", n)
	}
	if n := metricValue(t, page, "gcsimd_refs_replayed_total"); n <= 0 {
		t.Errorf("gcsimd_refs_replayed_total = %v, want > 0", n)
	}
}

func TestE2EDrainInterruptsAndRestartResumes(t *testing.T) {
	// Serial configs make the drain window deterministic: when the first
	// configuration's event arrives, the second (about a second of VM time
	// at this scale) has just started.
	oldPar := core.Parallelism()
	core.SetParallelism(1)
	t.Cleanup(func() { core.SetParallelism(oldPar) })

	stateDir := t.TempDir()
	srv1, cl1 := startServer(t, stateDir, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	spec := server.JobSpec{
		Workload: "tc",
		Scale:    1200,
		GC:       "cheney",
		Configs: []server.CacheConfig{
			{SizeBytes: 32 << 10, BlockBytes: 32, Policy: cache.WriteValidate},
			{SizeBytes: 16 << 10, BlockBytes: 32, Policy: cache.WriteValidate},
			{SizeBytes: 64 << 10, BlockBytes: 64, Policy: cache.FetchOnWrite},
		},
	}
	job, err := cl1.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}

	firstConfig := make(chan struct{})
	sctx, scancel := context.WithCancel(ctx)
	defer scancel()
	go func() {
		var once sync.Once
		// The stream has no terminal event to end on (interrupted is not
		// terminal); scancel tears it down after the drain.
		_, _ = cl1.Stream(sctx, job.ID, func(e server.Event) {
			if e.Type == "config" {
				once.Do(func() { close(firstConfig) })
			}
		})
	}()
	select {
	case <-firstConfig:
	case <-ctx.Done():
		t.Fatal("no configuration completed before the deadline")
	}

	// Drain while configuration two is in flight: the machine is
	// interrupted at a safepoint and the job persists as resumable.
	srv1.Drain()
	scancel()
	interrupted, err := cl1.Job(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if interrupted.State != server.StateInterrupted {
		t.Fatalf("after drain, job state = %s (%s), want interrupted", interrupted.State, interrupted.Error)
	}
	if interrupted.ConfigsDone < 1 || interrupted.ConfigsDone >= len(spec.Configs) {
		t.Fatalf("after drain, %d/%d configs done; want a partial job", interrupted.ConfigsDone, len(spec.Configs))
	}

	// The completed configurations are on disk in checkpoint files.
	st, err := server.OpenStore(stateDir)
	if err != nil {
		t.Fatal(err)
	}
	saved, err := filepath.Glob(filepath.Join(st.CheckpointDir(job.ID), "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(saved) != interrupted.ConfigsDone {
		t.Fatalf("%d checkpoint entries for %d completed configs: %v", len(saved), interrupted.ConfigsDone, saved)
	}

	// A fresh server over the same state re-enqueues the job and finishes
	// it, replaying the checkpointed configurations instead of re-running.
	_, cl2 := startServer(t, stateDir, nil)
	term, err := cl2.Stream(ctx, job.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if term.State != server.StateDone {
		t.Fatalf("resumed job ended %s (%s), want done", term.State, term.Error)
	}
	final, err := cl2.Job(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.ConfigsDone != len(spec.Configs) {
		t.Fatalf("resumed job finished %d/%d configs", final.ConfigsDone, len(spec.Configs))
	}
	fromCk, fresh := 0, 0
	for _, r := range final.Results {
		if r.FromCheckpoint {
			fromCk++
		} else {
			fresh++
		}
	}
	if fromCk != interrupted.ConfigsDone || fresh != len(spec.Configs)-interrupted.ConfigsDone {
		t.Errorf("resume replayed %d from checkpoint and ran %d fresh; drain left %d done", fromCk, fresh, interrupted.ConfigsDone)
	}

	// Interruption plus resume must not change a byte of the report.
	local := localReportBytes(t, spec)
	var remote bytes.Buffer
	if err := final.RenderReport(&remote, false); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(remote.Bytes(), local) {
		t.Errorf("resumed job's report differs from an uninterrupted local run:\n--- remote ---\n%s--- local ---\n%s", remote.Bytes(), local)
	}
}

func TestE2ECancelAndAPIErrors(t *testing.T) {
	// No Start(): the job sits queued, so the cancel takes the
	// queued-job path deterministically.
	srv, err := server.New(server.Config{StateDir: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	cl := server.NewClient(hs.URL)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	spec := server.JobSpec{
		Workload: "nbody",
		Scale:    1,
		GC:       "none",
		Configs:  []server.CacheConfig{{SizeBytes: 32 << 10, BlockBytes: 32, Policy: cache.WriteValidate}},
	}
	job, err := cl.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if job.State != server.StateQueued {
		t.Fatalf("submitted job state = %s, want queued", job.State)
	}
	got, err := cl.Cancel(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != server.StateCancelled {
		t.Fatalf("cancelled job state = %s, want cancelled", got.State)
	}
	// The stream ends on the cancellation, which is terminal.
	term, err := cl.Stream(ctx, job.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if term.State != server.StateCancelled {
		t.Errorf("stream terminal state = %s, want cancelled", term.State)
	}

	// A job with no results cannot render a report.
	resp, err := http.Get(cl.BaseURL + "/v1/jobs/" + job.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("/report on an empty job = %d, want %d", resp.StatusCode, http.StatusConflict)
	}

	if _, err := cl.Job(ctx, "jmissing"); err == nil || !strings.Contains(err.Error(), "no such job") {
		t.Errorf("fetching a missing job: %v, want a not-found error", err)
	}
	if _, err := cl.Submit(ctx, server.JobSpec{Workload: "tc"}); err == nil || !strings.Contains(err.Error(), "no cache configurations") {
		t.Errorf("submitting an invalid spec: %v, want a validation error", err)
	}
	if _, err := cl.Submit(ctx, server.JobSpec{Workload: "quux", Configs: spec.Configs}); err == nil {
		t.Error("submitting an unknown workload succeeded")
	}
	// An unknown policy is refused while the spec is decoded.
	resp, err = http.Post(cl.BaseURL+"/v1/jobs", "application/json", strings.NewReader(
		`{"workload":"nbody","scale":1,"gc":"none","configs":[{"size_bytes":32768,"block_bytes":32,"policy":"write-sometimes"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("submitting an unknown policy = %d, want %d", resp.StatusCode, http.StatusBadRequest)
	}
}
