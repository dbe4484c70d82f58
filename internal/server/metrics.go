package server

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync/atomic"

	"gcsim/internal/core"
	"gcsim/internal/telemetry"
)

// Metrics is the service's metric set, exported at /metrics in Prometheus
// text exposition format. Counters are monotonically increasing totals
// since process start; gauges report instantaneous state; histograms are
// fixed-bucket latency distributions fed by the span recorder's OnEnd
// hook and the event hub's fan-out clock. The trace-cache hit counters
// come straight from the shared core.TraceCache, so a repeated job shows
// up as hits — the signal that record-once/replay-many is actually being
// shared across jobs.
type Metrics struct {
	JobsSubmitted    atomic.Uint64
	JobsCompleted    atomic.Uint64
	JobsFailed       atomic.Uint64
	JobsInterrupted  atomic.Uint64
	JobsCancelled    atomic.Uint64
	JobsRunning      atomic.Int64
	ConfigsCompleted atomic.Uint64
	RefsReplayed     atomic.Uint64
	WorkersBusy      atomic.Int64
	Workers          int

	// ShedTotal counts submissions rejected because the queue was past
	// its high-water mark; PreemptionsTotal counts running jobs stopped
	// to free a worker for higher-priority work.
	ShedTotal        atomic.Uint64
	PreemptionsTotal atomic.Uint64
	// SSEDropped counts events the hub dropped because a per-job
	// subscriber's buffer was full.
	SSEDropped atomic.Uint64

	// JobSeconds observes whole-job wall time (enqueue to terminal state
	// persisted) and QueueSeconds the enqueue-to-pickup wait — the two
	// ends of the latency story a counter can't tell.
	JobSeconds   *telemetry.Histogram
	QueueSeconds *telemetry.Histogram
	// StageSeconds breaks job time down by lifecycle stage, one series
	// per name in the span taxonomy (labelled {stage="..."}).
	StageSeconds map[string]*telemetry.Histogram
	// FanoutSeconds observes the event hub's per-publish fan-out lag:
	// how long delivering one event to every subscriber took. The hub
	// never blocks on a slow reader, so growth here means subscriber
	// count, not backpressure.
	FanoutSeconds *telemetry.Histogram
}

// fanoutBuckets suit the hub's microsecond-scale delivery loop; the
// default latency buckets would put every observation in the first one.
var fanoutBuckets = []float64{
	1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 1e-1,
}

// NewMetrics builds the metric set for a pool of the given size.
func NewMetrics(workers int) *Metrics {
	m := &Metrics{
		Workers:       workers,
		JobSeconds:    telemetry.NewHistogram(),
		QueueSeconds:  telemetry.NewHistogram(),
		StageSeconds:  make(map[string]*telemetry.Histogram, len(telemetry.Stages)),
		FanoutSeconds: telemetry.NewHistogram(fanoutBuckets...),
	}
	// One fixed series per stage, allocated up front: scrapes and the
	// OnEnd hook then only ever read the map, so no lock is needed.
	for _, stage := range telemetry.Stages {
		if stage == telemetry.StageJob || stage == telemetry.StageQueue {
			continue // already first-class families above
		}
		m.StageSeconds[stage] = telemetry.NewHistogram()
	}
	return m
}

// ObserveSpan routes one finished span into the matching histogram; it is
// the span recorder's OnEnd hook.
func (m *Metrics) ObserveSpan(sp telemetry.Span) {
	d := float64(sp.DurationNanos) / 1e9
	switch sp.Name {
	case telemetry.StageJob:
		m.JobSeconds.Observe(d)
	case telemetry.StageQueue:
		m.QueueSeconds.Observe(d)
	default:
		if h := m.StageSeconds[sp.Name]; h != nil {
			h.Observe(d)
		}
	}
}

// DropEvent is the event hub's drop hook: it counts n dropped events.
func (m *Metrics) DropEvent(n uint64) { m.SSEDropped.Add(n) }

// metricRow is one exposition line with its metadata.
type metricRow struct {
	name, help, kind string
	value            float64
}

// WriteText writes the exposition page. tc may be nil (trace cache
// disabled); queued is the current queue depth; tenants holds one entry
// per tenant for the per-tenant families (none when empty); cluster is
// non-nil only on a coordinator, which additionally exports the fleet
// families.
func (m *Metrics) WriteText(w io.Writer, tc *core.TraceCache, queued int, tenants []TenantStats, cluster *clusterState) {
	var hits, misses, recorded, remoteFetches uint64
	if tc != nil {
		st := tc.Stats()
		hits, misses = st.Hits, st.Misses
		recorded, remoteFetches = st.Recorded, st.RemoteFetches
	}
	fused := core.FusedStats()
	rows := []metricRow{
		{"gcsimd_jobs_submitted_total", "Jobs accepted by POST /v1/jobs.", "counter", float64(m.JobsSubmitted.Load())},
		{"gcsimd_jobs_completed_total", "Jobs that finished with every configuration done.", "counter", float64(m.JobsCompleted.Load())},
		{"gcsimd_jobs_failed_total", "Jobs that finished with an error or failed configurations.", "counter", float64(m.JobsFailed.Load())},
		{"gcsimd_jobs_interrupted_total", "Jobs drained into resumable checkpoints by shutdown or cancellation.", "counter", float64(m.JobsInterrupted.Load())},
		{"gcsimd_jobs_cancelled_total", "Jobs cancelled by DELETE /v1/jobs/{id}.", "counter", float64(m.JobsCancelled.Load())},
		{"gcsimd_jobs_running", "Jobs executing right now.", "gauge", float64(m.JobsRunning.Load())},
		{"gcsimd_jobs_queued", "Jobs waiting for a worker.", "gauge", float64(queued)},
		{"gcsimd_configs_completed_total", "Cache configurations simulated to completion.", "counter", float64(m.ConfigsCompleted.Load())},
		{"gcsimd_refs_replayed_total", "Memory references delivered to caches by completed configurations.", "counter", float64(m.RefsReplayed.Load())},
		{"gcsimd_workers", "Size of the worker pool.", "gauge", float64(m.Workers)},
		{"gcsimd_workers_busy", "Workers currently executing a job.", "gauge", float64(m.WorkersBusy.Load())},
		{"gcsimd_trace_cache_hits_total", "Sweep lookups served by replaying a cached trace.", "counter", float64(hits)},
		{"gcsimd_trace_cache_misses_total", "Sweep lookups that had to record a trace first.", "counter", float64(misses)},
		{"gcsimd_trace_recorded_total", "Traces recorded by this node.", "counter", float64(recorded)},
		{"gcsimd_trace_remote_fetches_total", "Trace misses resolved by fetching another node's recording by content hash.", "counter", float64(remoteFetches)},
		{"gcsimd_fused_sweeps_total", "Replayed sweeps that decoded the trace once and simulated all configurations in a single fused pass.", "counter", float64(fused.FusedSweeps)},
		{"gcsimd_decode_once_frames_total", "Trace frames decoded exactly once on the fused path, each serving every configuration of its sweep.", "counter", float64(fused.DecodeOnceFrames)},
		{"gcsimd_shed_total", "Submissions rejected with 429 because the queue was past its high-water mark.", "counter", float64(m.ShedTotal.Load())},
		{"gcsimd_preemptions_total", "Running jobs preempted to free a worker for higher-priority work.", "counter", float64(m.PreemptionsTotal.Load())},
	}
	for _, r := range rows {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %g\n", r.name, r.help, r.name, r.kind, r.name, r.value)
	}

	writeFamily(w, "gcsimd_sse_dropped_total", "counter",
		"Events dropped by the hub, by reason (slow_subscriber: a per-job reader's buffer was full).",
		series{`reason="slow_subscriber"`, m.SSEDropped.Load()})

	if len(tenants) > 0 {
		writeTenantMetrics(w, tenants)
	}
	if cluster != nil {
		writeClusterMetrics(w, cluster, recorded, remoteFetches)
	}

	writeHistogram(w, "gcsimd_job_seconds",
		"Job wall time from enqueue to terminal state persisted.", m.JobSeconds)
	writeHistogram(w, "gcsimd_queue_seconds",
		"Job wait from enqueue to worker pickup.", m.QueueSeconds)
	writeHistogram(w, "gcsimd_fanout_seconds",
		"Event hub per-publish fan-out delivery time.", m.FanoutSeconds)

	// The stage family: one labelled series per lifecycle stage, stages
	// in deterministic order.
	stages := make([]string, 0, len(m.StageSeconds))
	for stage := range m.StageSeconds {
		stages = append(stages, stage)
	}
	sort.Strings(stages)
	writeFamily(w, "gcsimd_stage_seconds", "histogram", "Per-stage duration of job lifecycle spans, by stage name.")
	for _, stage := range stages {
		writeHistogramSeries(w, "gcsimd_stage_seconds", `stage="`+stage+`"`, m.StageSeconds[stage])
	}
}

// writeClusterMetrics emits the coordinator's fleet families: registry
// and sharding counters, one labelled series per worker for the
// heartbeat-reported trace counters, and the fleet-wide sums (this
// node's own counters folded in — the coordinator records too when it
// runs standalone sweeps).
func writeClusterMetrics(w io.Writer, cs *clusterState, selfRecorded, selfFetches uint64) {
	alive, dead, fleet := cs.fleetStats()
	rows := []metricRow{
		{"gcsimd_cluster_workers", "Workers currently registered and heartbeating.", "gauge", float64(alive)},
		{"gcsimd_cluster_workers_dead", "Registered workers that stopped heartbeating or failed a dispatch.", "gauge", float64(dead)},
		{"gcsimd_cluster_shards_dispatched_total", "Config shards dispatched to workers.", "counter", float64(cs.shardsDispatched.Load())},
		{"gcsimd_cluster_reshards_total", "Shards re-dispatched after their worker died mid-sweep.", "counter", float64(cs.reshards.Load())},
		{"gcsimd_cluster_trace_claims_total", "Recording-lease claims arbitrated.", "counter", float64(cs.claims.Load())},
		{"gcsimd_cluster_trace_publishes_total", "Trace recordings published to the fleet table.", "counter", float64(cs.publishes.Load())},
		{"gcsimd_cluster_blob_replications_total", "Blobs replicated home from their recording worker at publish.", "counter", float64(cs.blobReplications.Load())},
		{"gcsimd_cluster_blob_fanout_total", "Blob requests answered by fetching from a worker's store.", "counter", float64(cs.blobFanout.Load())},
		{"gcsimd_fleet_trace_recorded_total", "Traces recorded fleet-wide (workers' heartbeat counters plus this node's).", "counter", float64(fleet.TraceRecorded + selfRecorded)},
		{"gcsimd_fleet_trace_remote_fetches_total", "Cross-node trace fetches fleet-wide (workers' heartbeat counters plus this node's).", "counter", float64(fleet.RemoteFetches + selfFetches)},
	}
	for _, r := range rows {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %g\n", r.name, r.help, r.name, r.kind, r.name, r.value)
	}
	var recorded, fetches []series
	for _, v := range cs.views() {
		node := fmt.Sprintf("node=%q", v.Name)
		recorded = append(recorded, series{node, v.Stats.TraceRecorded})
		fetches = append(fetches, series{node, v.Stats.RemoteFetches})
	}
	writeFamily(w, "gcsimd_cluster_node_trace_recorded_total", "counter", "Traces recorded per worker (heartbeat-reported).", recorded...)
	writeFamily(w, "gcsimd_cluster_node_remote_fetches_total", "counter", "Cross-node trace fetches per worker (heartbeat-reported).", fetches...)
}

// writeTenantMetrics emits the per-tenant families, one labelled series
// per tenant (and per rejection reason), tenants in name order so
// scrapes diff cleanly.
func writeTenantMetrics(w io.Writer, stats []TenantStats) {
	var submitted, rejected, queued, running []series
	for _, s := range stats {
		tenant := fmt.Sprintf("tenant=%q", s.Name)
		submitted = append(submitted, series{tenant, s.Submitted})
		for _, reason := range rejectReasons {
			rejected = append(rejected, series{fmt.Sprintf("%s,reason=%q", tenant, reason), s.Rejected[reason]})
		}
		queued = append(queued, series{tenant, uint64(s.Queued)})
		running = append(running, series{tenant, uint64(s.Running)})
	}
	writeFamily(w, "gcsimd_tenant_jobs_submitted_total", "counter", "Jobs accepted per tenant.", submitted...)
	writeFamily(w, "gcsimd_tenant_rejected_total", "counter", "Submissions rejected per tenant, by reason.", rejected...)
	writeFamily(w, "gcsimd_tenant_jobs_queued", "gauge", "Jobs waiting for a worker, per tenant.", queued...)
	writeFamily(w, "gcsimd_tenant_jobs_running", "gauge", "Jobs executing right now, per tenant.", running...)
}

// series is one sample of a labelled family.
type series struct {
	labels string // e.g. `tenant="acme",reason="quota"`
	value  uint64
}

// writeFamily writes a labelled family: HELP and TYPE once, then one
// sample per series. A histogram family passes no series and writes each
// of its own with writeHistogramSeries.
func writeFamily(w io.Writer, name, kind, help string, rows ...series) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
	for _, r := range rows {
		fmt.Fprintf(w, "%s{%s} %d\n", name, r.labels, r.value)
	}
}

// writeHistogram emits one complete unlabelled histogram family.
func writeHistogram(w io.Writer, name, help string, h *telemetry.Histogram) {
	writeFamily(w, name, "histogram", help)
	writeHistogramSeries(w, name, "", h)
}

// writeHistogramSeries emits the _bucket/_sum/_count rows of one series.
// extraLabels ("" or `stage="sweep"`) is merged with the le label.
func writeHistogramSeries(w io.Writer, name, extraLabels string, h *telemetry.Histogram) {
	snap := h.Snapshot()
	joint := func(le string) string {
		if extraLabels == "" {
			return `le="` + le + `"`
		}
		return extraLabels + `,le="` + le + `"`
	}
	var cum uint64
	for i, b := range snap.Bounds {
		cum += snap.Counts[i]
		fmt.Fprintf(w, "%s_bucket{%s} %d\n", name, joint(strconv.FormatFloat(b, 'g', -1, 64)), cum)
	}
	cum += snap.Counts[len(snap.Counts)-1]
	fmt.Fprintf(w, "%s_bucket{%s} %d\n", name, joint("+Inf"), cum)
	if extraLabels == "" {
		fmt.Fprintf(w, "%s_sum %g\n%s_count %d\n", name, snap.Sum, name, snap.Count)
		return
	}
	fmt.Fprintf(w, "%s_sum{%s} %g\n%s_count{%s} %d\n", name, extraLabels, snap.Sum, name, extraLabels, snap.Count)
}
