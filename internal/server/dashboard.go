package server

import (
	"bytes"
	"fmt"
	"html/template"
	"net/http"
	"sort"

	"gcsim/internal/telemetry"
)

// The dashboard: one server-rendered HTML page at /dashboard that the
// browser reloads every 2 s. It reuses the rendering the API does — the
// job table comes from the store, the latest finished report from
// Job.RenderReport (internal/report, byte-identical to gcsim's own
// output) — and carries no script.

// dashboardJob is one row of the job table.
type dashboardJob struct {
	ID, Workload, GC, Tenant, Priority, State, Submitted string
	Done, Total                                          int
	Error                                                string
}

// dashboardStage is one row of the stage table: a latency histogram's
// count, total seconds and mean seconds.
type dashboardStage struct {
	Name      string
	Count     uint64
	Sum, Mean float64
}

func stageRow(name string, h *telemetry.Histogram) dashboardStage {
	snap := h.Snapshot()
	row := dashboardStage{Name: name, Count: snap.Count, Sum: snap.Sum}
	if snap.Count > 0 {
		row.Mean = snap.Sum / float64(snap.Count)
	}
	return row
}

var dashboardTmpl = template.Must(template.New("dashboard").Funcs(template.FuncMap{
	"pct":  func(f float64) string { return fmt.Sprintf("%.0f%%", f*100) },
	"secs": func(f float64) string { return fmt.Sprintf("%.3f", f) },
}).Parse(dashboardHTML))

// handleDashboard renders the page: stat tiles, the fleet table on a
// coordinator, the caller's jobs, one row per latency histogram, and the
// most recent finished job's report.
func (s *Server) handleDashboard(w http.ResponseWriter, r *http.Request) {
	var rows []dashboardJob
	var latestReport, latestReportJob string
	for _, j := range s.store.List() {
		// Tenant mode: the dashboard is authenticated per tenant, not an
		// operator view — each tenant sees its own jobs only.
		if !s.ownedBy(r, j) {
			continue
		}
		rows = append(rows, dashboardJob{
			ID: j.ID, Workload: j.Spec.Workload, GC: j.Spec.GC,
			Tenant: j.Tenant, Priority: j.Priority,
			State: j.State, Submitted: j.SubmittedAt,
			Done: j.ConfigsDone, Total: j.ConfigsTotal, Error: j.Error,
		})
		if latestReport == "" && j.State == StateDone {
			var buf bytes.Buffer
			if err := j.RenderReport(&buf, false); err == nil {
				latestReport, latestReportJob = buf.String(), j.ID
			}
		}
	}

	stages := []dashboardStage{
		stageRow(telemetry.StageJob, s.metrics.JobSeconds),
		stageRow(telemetry.StageQueue, s.metrics.QueueSeconds),
	}
	names := make([]string, 0, len(s.metrics.StageSeconds))
	for name := range s.metrics.StageSeconds {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		stages = append(stages, stageRow(name, s.metrics.StageSeconds[name]))
	}

	var hitRate float64
	if tc := s.cfg.TraceCache; tc != nil {
		if st := tc.Stats(); st.Hits+st.Misses > 0 {
			hitRate = float64(st.Hits) / float64(st.Hits+st.Misses)
		}
	}
	var fleet []WorkerView
	if s.cluster != nil {
		fleet = s.cluster.views()
	}
	data := map[string]any{
		"WorkersBusy":     s.metrics.WorkersBusy.Load(),
		"Workers":         s.metrics.Workers,
		"QueueDepth":      s.pool.depth(),
		"JobsRunning":     s.metrics.JobsRunning.Load(),
		"JobsCompleted":   s.metrics.JobsCompleted.Load(),
		"HitRate":         hitRate,
		"Shed":            s.metrics.ShedTotal.Load(),
		"Preemptions":     s.metrics.PreemptionsTotal.Load(),
		"SpansDropped":    s.cfg.Spans.Dropped(),
		"Fleet":           fleet,
		"Jobs":            rows,
		"Stages":          stages,
		"LatestReport":    latestReport,
		"LatestReportJob": latestReportJob,
	}
	var buf bytes.Buffer
	if err := dashboardTmpl.Execute(&buf, data); err != nil {
		httpError(w, http.StatusInternalServerError, "dashboard: %v", err)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = w.Write(buf.Bytes())
}

// dashboardHTML is the page template. Styling is inlined so the
// dashboard is a single self-contained document — easy to save as a
// snapshot artifact (server_smoke.sh does).
const dashboardHTML = `<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta http-equiv="refresh" content="2">
<title>gcsimd dashboard</title>
<style>
  :root { --bg:#11151a; --panel:#1a2028; --ink:#d8dee6; --dim:#7d8a99; --acc:#58a6ff; --ok:#3fb950; --bad:#f85149; --warn:#d29922; }
  body { background:var(--bg); color:var(--ink); font:14px/1.45 ui-monospace,Menlo,Consolas,monospace; margin:0; padding:1.2rem 1.6rem; }
  h1 { font-size:1.1rem; margin:0 0 1rem; color:var(--acc); }
  h2 { font-size:0.9rem; margin:1.4rem 0 0.5rem; color:var(--dim); text-transform:uppercase; letter-spacing:0.08em; }
  .tiles { display:flex; flex-wrap:wrap; gap:0.8rem; }
  .tile { background:var(--panel); border-radius:6px; padding:0.6rem 1rem; min-width:9rem; }
  .tile .v { font-size:1.4rem; } .tile .k { color:var(--dim); font-size:0.78rem; }
  table { border-collapse:collapse; width:100%; background:var(--panel); border-radius:6px; overflow:hidden; }
  th, td { text-align:left; padding:0.4rem 0.8rem; border-bottom:1px solid #232b35; }
  th { color:var(--dim); font-weight:normal; font-size:0.78rem; text-transform:uppercase; letter-spacing:0.06em; }
  td.state-done { color:var(--ok); } td.state-failed, td.state-cancelled { color:var(--bad); }
  td.state-running { color:var(--acc); } td.state-queued, td.state-interrupted, td.state-preempted { color:var(--warn); }
  pre { background:var(--panel); border-radius:6px; padding:0.8rem 1rem; overflow-x:auto; font-size:0.82rem; }
  .muted { color:var(--dim); }
</style>
</head>
<body>
<h1>gcsimd <span class="muted">dashboard</span></h1>

<div class="tiles">
  <div class="tile"><div class="v">{{.WorkersBusy}}/{{.Workers}}</div><div class="k">workers busy</div></div>
  <div class="tile"><div class="v">{{.QueueDepth}}</div><div class="k">jobs queued</div></div>
  <div class="tile"><div class="v">{{.JobsRunning}}</div><div class="k">jobs running</div></div>
  <div class="tile"><div class="v">{{.JobsCompleted}}</div><div class="k">jobs completed</div></div>
  <div class="tile"><div class="v">{{pct .HitRate}}</div><div class="k">trace-cache hit rate</div></div>
  <div class="tile"><div class="v">{{.Shed}}</div><div class="k">submissions shed</div></div>
  <div class="tile"><div class="v">{{.Preemptions}}</div><div class="k">preemptions</div></div>
  <div class="tile"><div class="v">{{.SpansDropped}}</div><div class="k">spans → counters-only</div></div>
</div>

{{if .Fleet}}
<h2>Fleet</h2>
<table id="fleet">
  <thead><tr><th>worker</th><th>url</th><th>alive</th><th>recorded</th><th>remote fetches</th><th>hits</th><th>running</th><th>last seen</th></tr></thead>
  <tbody>
  {{range .Fleet}}<tr id="fleet-{{.Name}}"><td>{{.Name}}</td><td>{{.URL}}</td><td class="{{if .Alive}}state-done{{else}}state-failed{{end}}">{{if .Alive}}alive{{else}}dead{{end}}</td><td>{{.Stats.TraceRecorded}}</td><td>{{.Stats.RemoteFetches}}</td><td>{{.Stats.TraceHits}}</td><td>{{.Stats.JobsRunning}}</td><td>{{.LastSeen}}</td></tr>
  {{end}}
  </tbody>
</table>
{{end}}

<h2>Jobs</h2>
<table id="jobs">
  <thead><tr><th>id</th><th>workload</th><th>gc</th><th>tenant</th><th>priority</th><th>state</th><th>configs</th><th>submitted</th><th>error</th></tr></thead>
  <tbody>
  {{range .Jobs}}<tr id="job-{{.ID}}"><td>{{.ID}}</td><td>{{.Workload}}</td><td>{{.GC}}</td><td>{{.Tenant}}</td><td>{{.Priority}}</td><td class="state-{{.State}}">{{.State}}</td><td>{{.Done}}/{{.Total}}</td><td>{{.Submitted}}</td><td>{{.Error}}</td></tr>
  {{end}}
  </tbody>
</table>

<h2>Stage latency</h2>
<table id="stages">
  <thead><tr><th>stage</th><th>count</th><th>total s</th><th>mean s</th></tr></thead>
  <tbody>
  {{range .Stages}}<tr id="stage-{{.Name}}"><td>{{.Name}}</td><td>{{.Count}}</td><td>{{secs .Sum}}</td><td>{{secs .Mean}}</td></tr>
  {{end}}
  </tbody>
</table>

{{if .LatestReport}}
<h2>Latest report <span class="muted">({{.LatestReportJob}})</span></h2>
<pre id="report">{{.LatestReport}}</pre>
{{end}}
</body>
</html>
`
