package server_test

// Observability end-to-end tests: the span tree a job leaves behind, the
// Prometheus exposition (content type, HELP/TYPE, latency histograms),
// the /healthz probe, and the server-rendered dashboard.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"gcsim/internal/core"
	"gcsim/internal/server"
	"gcsim/internal/telemetry"
)

// startObservedServer is startServer plus a span recorder wired the way
// cmd/gcsimd wires it: the same recorder in the server config and in
// core.SetSpans, so server lifecycle spans and engine spans share a tree.
func startObservedServer(t *testing.T, tc *core.TraceCache) (*server.Client, *telemetry.SpanRecorder) {
	t.Helper()
	rec := telemetry.NewSpanRecorder(0)
	core.SetSpans(rec)
	t.Cleanup(func() { core.SetSpans(nil) })
	srv, err := server.New(server.Config{StateDir: t.TempDir(), Workers: 1, TraceCache: tc, Spans: rec})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start(context.Background())
	t.Cleanup(srv.Drain)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return server.NewClient(hs.URL), rec
}

func smallSpec() server.JobSpec {
	return server.JobSpec{
		Workload: "nbody",
		Scale:    1,
		GC:       "cheney",
		Configs: []server.CacheConfig{
			{SizeBytes: 32 << 10, BlockBytes: 32, Policy: "write-validate"},
		},
	}
}

func TestE2ESpanTreeAndMetricsHistograms(t *testing.T) {
	tc, err := core.NewTraceCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	core.SetTraceCache(tc)
	t.Cleanup(func() { core.SetTraceCache(nil) })
	cl, rec := startObservedServer(t, tc)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	job, err := cl.Run(ctx, smallSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if job.State != server.StateDone {
		t.Fatalf("job state = %s (%s)", job.State, job.Error)
	}

	// ---- span tree ----
	resp, err := http.Get(cl.BaseURL + "/v1/jobs/" + job.ID + "/spans")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/spans status = %d", resp.StatusCode)
	}
	var tree struct {
		Job   string           `json:"job"`
		Spans []telemetry.Span `json:"spans"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&tree); err != nil {
		t.Fatal(err)
	}
	if tree.Job != job.ID || len(tree.Spans) == 0 {
		t.Fatalf("span response: job=%q, %d spans", tree.Job, len(tree.Spans))
	}

	byName := map[string]telemetry.Span{}
	ids := map[uint64]telemetry.Span{}
	for _, sp := range tree.Spans {
		// Every span must satisfy the published schema.
		data, err := json.Marshal(sp)
		if err != nil {
			t.Fatal(err)
		}
		if err := telemetry.ValidateSpanJSON(data); err != nil {
			t.Errorf("span %s fails schema: %v\n%s", sp.Name, err, data)
		}
		if sp.Trace != job.ID {
			t.Errorf("span %s trace = %q, want job ID %q", sp.Name, sp.Trace, job.ID)
		}
		byName[sp.Name] = sp
		ids[sp.ID] = sp
	}
	for _, stage := range []string{
		telemetry.StageJob, telemetry.StageQueue, telemetry.StageSetup,
		telemetry.StageSweep, telemetry.StageReport,
		telemetry.StageTraceLookup, telemetry.StageReplay,
		telemetry.StageDecode, telemetry.StageSimulate, telemetry.StageMerge,
	} {
		if _, ok := byName[stage]; !ok {
			t.Errorf("span tree missing stage %q (have %v)", stage, names(tree.Spans))
		}
	}

	// Server stages hang off the job span; engine stages nest under sweep.
	root := byName[telemetry.StageJob]
	if root.Parent != 0 {
		t.Errorf("job span has parent %d", root.Parent)
	}
	for _, stage := range []string{telemetry.StageQueue, telemetry.StageSetup, telemetry.StageSweep, telemetry.StageReport} {
		if byName[stage].Parent != root.ID {
			t.Errorf("%s span parent = %d, want job span %d", stage, byName[stage].Parent, root.ID)
		}
	}
	for _, sp := range tree.Spans {
		if sp.Parent == 0 && sp.Name != telemetry.StageJob {
			t.Errorf("span %s is an orphan root", sp.Name)
		}
		if sp.Parent != 0 {
			if _, ok := ids[sp.Parent]; !ok {
				t.Errorf("span %s points at unknown parent %d", sp.Name, sp.Parent)
			}
		}
	}

	// The four lifecycle stages are contiguous, so their durations must sum
	// to the job span's wall time (within the 5% acceptance window).
	var stageSum int64
	for _, stage := range []string{telemetry.StageQueue, telemetry.StageSetup, telemetry.StageSweep, telemetry.StageReport} {
		stageSum += byName[stage].DurationNanos
	}
	jobDur := root.DurationNanos
	if jobDur <= 0 {
		t.Fatalf("job span duration = %d", jobDur)
	}
	if ratio := float64(stageSum) / float64(jobDur); ratio < 0.95 || ratio > 1.05 {
		t.Errorf("stage durations sum to %.1f%% of job wall time (stages %d ns, job %d ns)",
			ratio*100, stageSum, jobDur)
	}
	// Span recording must stay within 2% of the job it records.
	if over, wall := rec.OverheadSeconds(), float64(jobDur)/1e9; over > 0.02*wall {
		t.Errorf("span recording overhead %.6fs is %.2f%% of the %.3fs job, above the 2%% budget",
			over, over/wall*100, wall)
	}

	// ---- metrics exposition ----
	mresp, err := http.Get(cl.BaseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if ct := mresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("/metrics Content-Type = %q, want text/plain; version=0.0.4", ct)
	}
	page := string(body)
	for _, want := range []string{
		"# HELP gcsimd_job_seconds ",
		"# TYPE gcsimd_job_seconds histogram",
		"gcsimd_job_seconds_bucket{le=\"+Inf\"} ",
		"gcsimd_job_seconds_sum ",
		"gcsimd_job_seconds_count 1",
		"# TYPE gcsimd_queue_seconds histogram",
		"gcsimd_queue_seconds_count 1",
		"# TYPE gcsimd_stage_seconds histogram",
		`gcsimd_stage_seconds_bucket{stage="sweep",le="+Inf"} 1`,
		`gcsimd_stage_seconds_count{stage="setup"} 1`,
		`gcsimd_stage_seconds_count{stage="report"} 1`,
		"# TYPE gcsimd_fanout_seconds histogram",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("metrics page missing %q", want)
		}
	}
	if metricValue(t, page, "gcsimd_fanout_seconds_count") <= 0 {
		t.Error("event fan-out histogram never observed a publish")
	}
	// Every exposed series carries HELP and TYPE headers.
	assertHelpTypeComplete(t, page)

	// ---- spans endpoint error paths ----
	if resp, err := http.Get(cl.BaseURL + "/v1/jobs/jmissing/spans"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("/spans for a missing job = %d, want 404", resp.StatusCode)
		}
	}
}

func names(spans []telemetry.Span) []string {
	out := make([]string, len(spans))
	for i, sp := range spans {
		out[i] = sp.Name
	}
	return out
}

// assertHelpTypeComplete checks every sample family on the page is
// preceded by its # HELP and # TYPE lines.
func assertHelpTypeComplete(t *testing.T, page string) {
	t.Helper()
	help := map[string]bool{}
	typed := map[string]bool{}
	var families []string
	seen := map[string]bool{}
	for _, line := range strings.Split(page, "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			help[strings.Fields(line)[2]] = true
		case strings.HasPrefix(line, "# TYPE "):
			typed[strings.Fields(line)[2]] = true
		case line != "" && !strings.HasPrefix(line, "#"):
			name := line
			if i := strings.IndexAny(name, "{ "); i >= 0 {
				name = name[:i]
			}
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if base, ok := strings.CutSuffix(name, suffix); ok && typed[base] {
					name = base
					break
				}
			}
			if !seen[name] {
				seen[name] = true
				families = append(families, name)
			}
		}
	}
	for _, f := range families {
		if !help[f] || !typed[f] {
			t.Errorf("family %s lacks HELP/TYPE (help=%v type=%v)", f, help[f], typed[f])
		}
	}
}

func TestE2EHealthz(t *testing.T) {
	tcDir := t.TempDir()
	tc, err := core.NewTraceCache(tcDir)
	if err != nil {
		t.Fatal(err)
	}
	cl, _ := startObservedServer(t, tc)

	get := func() (int, server.Health) {
		t.Helper()
		resp, err := http.Get(cl.BaseURL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h server.Health
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, h
	}

	code, h := get()
	if code != http.StatusOK || h.Status != "ok" || h.Store != "ok" || h.TraceCache != "ok" {
		t.Fatalf("healthy server: code=%d health=%+v", code, h)
	}
	if h.Workers != 1 || h.QueueDepth != 0 {
		t.Errorf("pool state: %+v", h)
	}

	// Losing the trace-cache directory degrades the probe to 503.
	if err := os.RemoveAll(tc.Dir()); err != nil {
		t.Fatal(err)
	}
	code, h = get()
	if code != http.StatusServiceUnavailable || h.Status != "degraded" || h.TraceCache == "ok" {
		t.Errorf("after removing the trace cache: code=%d health=%+v", code, h)
	}
	if h.Store != "ok" {
		t.Errorf("store health dragged down by the trace cache: %+v", h)
	}
}

func TestE2EDashboard(t *testing.T) {
	cl, _ := startObservedServer(t, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	job, err := cl.Run(ctx, smallSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}

	// The page renders the job table and the finished job's report
	// server-side.
	presp, err := http.Get(cl.BaseURL + "/dashboard")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(presp.Body)
	presp.Body.Close()
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("/dashboard status = %d", presp.StatusCode)
	}
	if ct := presp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Errorf("/dashboard Content-Type = %q", ct)
	}
	html := string(page)
	for _, want := range []string{
		"id=\"jobs\"", "id=\"stages\"", `id="report"`, `http-equiv="refresh"`,
		"job-" + job.ID, // the finished job's table row
		"stage-sweep",   // one row per stage
	} {
		if !strings.Contains(html, want) {
			t.Errorf("dashboard page missing %q", want)
		}
	}
}
