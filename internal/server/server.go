package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"gcsim/internal/castore"
	"gcsim/internal/core"
	"gcsim/internal/gc"
	"gcsim/internal/telemetry"
	"gcsim/internal/workloads"
)

// Config configures a Server.
type Config struct {
	// StateDir is where jobs (and their checkpoints) persist. Required.
	StateDir string
	// Workers bounds concurrently executing jobs (default 1). Each job's
	// own per-config parallelism is the engine-wide core.Parallelism().
	Workers int
	// TraceCache, if non-nil, is shared by every job: the first sweep over
	// a (workload, scale, collector) triple records the reference trace,
	// every later one — in the same job or any other — replays it. The
	// caller is responsible for having installed it with
	// core.SetTraceCache; the server only reads its hit-rate counters.
	TraceCache *core.TraceCache
	// Progress, if non-nil, receives job lifecycle log lines.
	Progress *telemetry.Progress
	// Spans, if non-nil, records each job's lifecycle span tree
	// (enqueue→report, plus the engine stages under the sweep). The
	// caller is responsible for having installed the same recorder with
	// core.SetSpans so engine spans land in the same tree; the server
	// claims the recorder's OnEnd hook to feed its latency histograms.
	Spans *telemetry.SpanRecorder
	// Tenants authenticates every /v1 request and holds each tenant's
	// queued-job quota. Nil runs the server open: no API keys, one
	// unlimited anonymous tenant.
	Tenants *TenantRegistry
	// QueueHighWater is the backlog depth at which submissions start
	// being shed with 429 + Retry-After (default defaultHighWater,
	// clamped to the hard queue capacity).
	QueueHighWater int

	// Role selects the node's cluster role: RoleStandalone (the default,
	// everything above and nothing more), RoleCoordinator (shard jobs
	// across registered workers, arbitrate fleet-wide trace recording),
	// or RoleWorker (register with a coordinator, resolve trace misses
	// through it). Both cluster roles require a TraceCache.
	Role string
	// Coordinator is the coordinator's base URL (workers only).
	Coordinator string
	// NodeName identifies this node in the cluster (default: the
	// advertise URL).
	NodeName string
	// AdvertiseURL is the URL peers reach this node at (workers only).
	AdvertiseURL string
	// HeartbeatEvery paces worker heartbeats (default 1s).
	HeartbeatEvery time.Duration
	// WorkerDeadAfter is how long the coordinator waits past a worker's
	// last heartbeat before treating it as dead (default 5s; must
	// comfortably exceed the workers' HeartbeatEvery).
	WorkerDeadAfter time.Duration
}

// defaultHighWater is the default shedding threshold: deep enough that a
// burst of cheap replay jobs rides through, well short of the hard
// queueCap so shedding (a 429 with advice) engages before rejection (a
// 503 without).
const defaultHighWater = 256

// Server is the gcsimd service: a job store, a worker pool, an event hub,
// and the HTTP API tying them together.
type Server struct {
	cfg     Config
	store   *Store
	hub     *eventHub
	pool    *pool
	metrics *Metrics
	tenants *TenantRegistry
	mux     *http.ServeMux

	// cluster is the coordinator's registry and fleet trace table (nil
	// off the coordinator); worker is this node's coordinator handle
	// (nil off workers). stopHeartbeat ends the worker's heartbeat loop.
	cluster       *clusterState
	worker        *clusterClient
	stopHeartbeat chan struct{}
	stopOnce      sync.Once

	mu        sync.Mutex
	running   map[string]*runningJob
	cancelled map[string]bool // jobs cancelled via the API (vs drained)
}

// runningJob tracks one executing job for the cancel and preempt paths
// and its tenant's running count.
type runningJob struct {
	tenant     string
	class      int
	since      time.Time
	preempt    context.CancelCauseFunc
	preempting bool
}

// New opens the state directory and builds the server. Call Start to
// launch the workers (and re-enqueue unfinished jobs), then serve
// Handler(); call Drain to stop.
func New(cfg Config) (*Server, error) {
	if cfg.StateDir == "" {
		return nil, fmt.Errorf("server: no state directory configured")
	}
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.QueueHighWater <= 0 {
		cfg.QueueHighWater = defaultHighWater
	}
	if cfg.QueueHighWater > queueCap {
		cfg.QueueHighWater = queueCap
	}
	if cfg.Tenants == nil {
		cfg.Tenants = newOpenRegistry()
	}
	switch cfg.Role {
	case RoleStandalone:
	case RoleCoordinator:
		if cfg.TraceCache == nil {
			return nil, fmt.Errorf("server: a coordinator needs a trace cache (it is the fleet's blob home)")
		}
	case RoleWorker:
		if cfg.TraceCache == nil {
			return nil, fmt.Errorf("server: a cluster worker needs a trace cache")
		}
		if cfg.Coordinator == "" || cfg.AdvertiseURL == "" {
			return nil, fmt.Errorf("server: a cluster worker needs a coordinator URL and an advertise URL")
		}
		if !cfg.Tenants.Open() {
			return nil, fmt.Errorf("server: cluster workers run open; configure tenants on the coordinator")
		}
		if cfg.NodeName == "" {
			cfg.NodeName = cfg.AdvertiseURL
		}
	default:
		return nil, fmt.Errorf("server: unknown role %q (want %q, %q, or empty)", cfg.Role, RoleCoordinator, RoleWorker)
	}
	store, err := OpenStore(cfg.StateDir)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:       cfg,
		store:     store,
		metrics:   NewMetrics(cfg.Workers),
		tenants:   cfg.Tenants,
		running:   make(map[string]*runningJob),
		cancelled: make(map[string]bool),
	}
	s.hub = newEventHub(func(d time.Duration) {
		s.metrics.FanoutSeconds.Observe(d.Seconds())
	}, s.metrics.DropEvent)
	// Every ended span — the server's lifecycle stages and the engine's
	// sweep-internal ones alike — feeds the per-stage histograms.
	cfg.Spans.SetOnEnd(s.metrics.ObserveSpan)
	s.pool = newPool(s.runJob)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/jobs/{id}/report", s.handleReport)
	s.mux.HandleFunc("GET /v1/jobs/{id}/spans", s.handleSpans)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /dashboard", s.handleDashboard)
	if cfg.TraceCache != nil {
		// Every node (standalone included) serves its local blob layer
		// read-only so peers can fetch any recorded trace by content hash.
		s.mux.Handle("GET /castore/v1/blobs/{id}", http.StripPrefix("/castore/v1/blobs", castore.Handler(cfg.TraceCache.LocalBlobs())))
	}
	switch cfg.Role {
	case RoleCoordinator:
		s.cluster = newClusterState(cfg.WorkerDeadAfter)
		s.registerClusterRoutes()
	case RoleWorker:
		s.worker = &clusterClient{api: NewClient(cfg.Coordinator), node: cfg.NodeName, url: cfg.AdvertiseURL}
		s.stopHeartbeat = make(chan struct{})
		// From here on, this node's trace misses go through the fleet:
		// claim before recording, fetch by hash when someone already did.
		cfg.TraceCache.JoinCluster(castore.NewHTTPStore(s.worker.api.BaseURL+"/cluster/v1/blobs", nil), s.worker)
	}
	return s, nil
}

// Handler returns the HTTP API: the /v1 routes behind tenant
// authentication — and, in tenant mode, the dashboard too, which shows
// the caller's own jobs — with /metrics and /healthz always open:
// probes and scrapers don't carry tenant keys.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.needsAuth(r.URL.Path) {
			t, ok := s.tenants.Authenticate(apiKey(r))
			if !ok {
				w.Header().Set("WWW-Authenticate", `Bearer realm="gcsimd"`)
				httpError(w, http.StatusUnauthorized, "missing or unknown API key")
				return
			}
			r = r.WithContext(context.WithValue(r.Context(), tenantCtxKey{}, t))
		}
		s.mux.ServeHTTP(w, r)
	})
}

// needsAuth reports whether a path authenticates. /v1 always does; the
// dashboard joins it once the registry is closed — anonymous visitors
// must not watch any tenant's jobs.
func (s *Server) needsAuth(path string) bool {
	if strings.HasPrefix(path, "/v1/") {
		return true
	}
	return !s.tenants.Open() && path == "/dashboard"
}

// tenantCtxKey carries the authenticated *Tenant through the request
// context.
type tenantCtxKey struct{}

// tenantFrom returns the request's authenticated tenant.
func tenantFrom(ctx context.Context) *Tenant {
	t, _ := ctx.Value(tenantCtxKey{}).(*Tenant)
	return t
}

// apiKey extracts the request's API key: "Authorization: Bearer <key>",
// the X-API-Key header, or, on /dashboard only, a ?key= query parameter
// for a browser, which cannot set headers. Keys in URLs land in access
// logs and shell history, so no other route reads one.
func apiKey(r *http.Request) string {
	if auth := r.Header.Get("Authorization"); auth != "" {
		if key, ok := strings.CutPrefix(auth, "Bearer "); ok {
			return strings.TrimSpace(key)
		}
	}
	if key := r.Header.Get("X-API-Key"); key != "" {
		return key
	}
	if r.URL.Path == "/dashboard" {
		return r.URL.Query().Get("key")
	}
	return ""
}

// ownedBy reports whether the request's tenant may see and act on job j.
// Open mode keeps the pre-tenancy behaviour (everything visible); in
// tenant mode a job belongs to the tenant that submitted it.
func (s *Server) ownedBy(r *http.Request, j *Job) bool {
	if s.tenants.Open() {
		return true
	}
	return j.Tenant == tenantFrom(r.Context()).Name()
}

// getAuthorized fetches a job and enforces ownership, answering 404 for
// a foreign tenant's job exactly as for an absent one — job IDs must not
// leak across tenants.
func (s *Server) getAuthorized(w http.ResponseWriter, r *http.Request, id string) (*Job, bool) {
	j, ok := s.store.Get(id)
	if !ok || !s.ownedBy(r, j) {
		httpError(w, http.StatusNotFound, "no such job %s", id)
		return nil, false
	}
	return j, true
}

// Start launches the worker pool under ctx and re-enqueues every
// resumable job a previous process left behind (their completed
// configurations replay from the per-job checkpoints, not recompute).
func (s *Server) Start(ctx context.Context) {
	for _, id := range s.store.Resumable() {
		j, err := s.store.Update(id, func(j *Job) {
			if j.State != StateQueued {
				s.logf("resuming job %s (%s, %d/%d configs checkpointed)", j.ID, j.State, j.ConfigsDone, j.ConfigsTotal)
				j.State = StateQueued
			}
		})
		if err != nil {
			s.logf("resume %s: %v", id, err)
			continue
		}
		s.hub.seed(j)
		class, _ := PriorityClass(j.Priority) // old jobs have no priority: batch
		s.enqueue(id, j.Tenant, class)
	}
	s.pool.start(ctx, s.cfg.Workers)
	if s.worker != nil {
		go s.heartbeatLoop(ctx, s.cfg.HeartbeatEvery)
	}
}

// enqueue puts a resumable job back in the backlog at its class, where
// it counts against its tenant's quota. A pool that refuses it (draining,
// or full) leaves the job persisted as queued for the next process.
func (s *Server) enqueue(id, tenant string, class int) {
	if err := s.pool.submit(id, tenant, class, time.Now()); err != nil {
		s.logf("re-enqueue job %s: %v", id, err)
	}
}

// Drain stops the service: the pool's run context is cancelled, in-flight
// jobs are interrupted at their machines' next safepoint and land in
// resumable checkpoints, and Drain returns once every worker has
// persisted its job. Queued jobs stay queued for the next process.
func (s *Server) Drain() {
	if s.stopHeartbeat != nil {
		s.stopOnce.Do(func() { close(s.stopHeartbeat) })
	}
	s.pool.drain()
}

// logf writes one server log line via the configured progress reporter.
func (s *Server) logf(format string, args ...any) {
	if s.cfg.Progress != nil {
		s.cfg.Progress.Printf(format, args...)
	}
}

func nowRFC3339() string { return time.Now().UTC().Format(time.RFC3339) }

// ---- job execution -------------------------------------------------------

// runJob executes one job on a pool worker, in every role through one
// jobRun. Interruption semantics: a drain (pool context
// cancelled) marks the job interrupted — resumable, its finished
// configurations checkpointed; an API cancellation marks it cancelled —
// terminal; a preemption (cancellation with cause core.ErrPreempted) or
// a worker lost mid-shard re-queues it, checkpoints intact, to resume
// when a worker frees up. The re-queue happens only once the run has
// left s.running, so an idle worker that pops the entry at once runs it
// rather than dropping it as a duplicate. Failed configurations (after
// the retry budget) fail the job but keep every completed result.
//
// Span accounting: the job span starts at enqueue time and its children
// — queue, setup, sweep, report — are contiguous (each stage ends where
// the next begins, sharing the boundary timestamp), so the four stage
// durations sum exactly to the job's wall time by construction.
func (s *Server) runJob(ctx context.Context, id string, queuedAt time.Time, class int) {
	j, ok := s.store.Get(id)
	if !ok || j.Terminal() {
		return // cancelled while queued, or stale queue entry
	}
	requeue := false
	defer func() {
		if requeue {
			s.enqueue(id, j.Tenant, class)
		}
	}()
	spec := j.Spec

	jctx, cancel := context.WithCancelCause(ctx)
	s.mu.Lock()
	if _, already := s.running[id]; already {
		// A duplicate backlog entry (re-enqueued by Start while the
		// original was still queued) must not run the job twice at once.
		s.mu.Unlock()
		cancel(nil)
		return
	}
	s.running[id] = &runningJob{tenant: j.Tenant, class: class, since: time.Now(), preempt: cancel}
	s.mu.Unlock()
	defer func() {
		cancel(nil)
		s.mu.Lock()
		delete(s.running, id)
		delete(s.cancelled, id) // a cancel that raced with completion
		s.mu.Unlock()
	}()

	rec := s.cfg.Spans
	pickup := time.Now()
	sctx := telemetry.ContextWithTrace(context.Background(), id)
	sctx, jobSpan := rec.StartSpanAt(sctx, telemetry.StageJob, queuedAt)
	jobSpan.SetAttr("workload", spec.Workload)
	_, queueSpan := rec.StartSpanAt(sctx, telemetry.StageQueue, queuedAt)
	queueSpan.EndAt(pickup)
	_, setupSpan := rec.StartSpanAt(sctx, telemetry.StageSetup, pickup)
	// finishStaged ends the currently open stage, runs finishJob inside
	// the report stage, and closes the job span at the same instant.
	finishStaged := func(open *telemetry.ActiveSpan, sweep *core.PerConfigSweep, err error) {
		at := time.Now()
		open.EndAt(at)
		_, reportSpan := rec.StartSpanAt(sctx, telemetry.StageReport, at)
		requeue = s.finishJob(id, sweep, err)
		end := time.Now()
		reportSpan.EndAt(end)
		jobSpan.EndAt(end)
	}

	w, err := workloads.ByName(spec.Workload)
	if err != nil {
		finishStaged(setupSpan, nil, err)
		return
	}
	cfgs, err := spec.CacheConfigs()
	if err != nil {
		finishStaged(setupSpan, nil, err)
		return
	}
	gcName := spec.GC
	if gcName == "" {
		gcName = "none"
	}
	mkCol := func() gc.Collector {
		col, err := gc.New(gcName, spec.GCOptions.ToGC())
		if err != nil {
			panic(err) // spec was validated at submission
		}
		return col
	}
	col := mkCol()
	colName, identity := col.Name(), gc.Identity(col)

	s.metrics.JobsRunning.Add(1)
	s.metrics.WorkersBusy.Add(1)
	defer s.metrics.JobsRunning.Add(-1)
	defer s.metrics.WorkersBusy.Add(-1)

	if _, err := s.store.Update(id, func(j *Job) {
		j.State = StateRunning
		j.Collector = colName
		j.QueueSeconds = pickup.Sub(queuedAt).Seconds()
	}); err != nil {
		s.logf("job %s: %v", id, err)
		return
	}
	s.hub.publish(Event{Type: "state", Job: id, State: StateRunning, Total: len(cfgs), Tenant: j.Tenant, Priority: j.Priority})
	s.logf("job %s started: %s/s%d gc=%s, %d configs", id, spec.Workload, spec.Scale, colName, len(cfgs))

	ck, err := core.NewCheckpoint(s.store.CheckpointDir(id))
	if err != nil {
		finishStaged(setupSpan, nil, err)
		return
	}

	// Setup ends where the sweep begins; graft the span lineage onto the
	// cancellable job context so the engine's spans (trace.lookup, replay,
	// run.vm, …) nest under this job's sweep span.
	sweepStart := time.Now()
	setupSpan.EndAt(sweepStart)
	sweepCtx, sweepSpan := rec.StartSpanAt(telemetry.ContextWithSpan(jctx, telemetry.SpanFromContext(sctx)), telemetry.StageSweep, sweepStart)
	sweepSpan.SetAttr("configs", fmt.Sprint(len(cfgs)))

	jr := &jobRun{s: s, id: id, spec: spec, w: w, mkCol: mkCol, colName: colName, identity: identity, cfgs: cfgs, ck: ck}
	sweep, err := jr.run(sweepCtx)
	finishStaged(sweepSpan, sweep, err)
}

// finishJob persists a job's terminal (or interrupted) state and
// announces it. A preempted job, or one whose run lost a worker, is
// instead persisted as queued with its results so far, and finishJob
// reports true: the caller re-enqueues it, and the next run resumes from
// the checkpoints with a report byte-identical to an uninterrupted run.
// sweep may be nil when the job never started a sweep.
func (s *Server) finishJob(id string, sweep *core.PerConfigSweep, err error) (requeue bool) {
	s.mu.Lock()
	apiCancelled := s.cancelled[id]
	delete(s.cancelled, id)
	s.mu.Unlock()

	preempted := !apiCancelled && errors.Is(err, core.ErrPreempted)
	requeue = preempted || (!apiCancelled && errors.Is(err, errWorkerLost))
	state := StateDone
	var errText string
	switch {
	case requeue:
		state = StateQueued
	case err != nil && apiCancelled:
		state = StateCancelled
		errText = "cancelled"
	case err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)):
		state = StateInterrupted // drained; resumable from its checkpoints
		errText = err.Error()
	case err != nil:
		state = StateFailed
		errText = err.Error()
	case sweep != nil && len(sweep.Failures) > 0:
		state = StateFailed
		errText = fmt.Sprintf("%d of %d configurations failed", len(sweep.Failures), len(sweep.Results)+len(sweep.Failures))
	}

	switch state {
	case StateDone:
		s.metrics.JobsCompleted.Add(1)
	case StateFailed:
		s.metrics.JobsFailed.Add(1)
	case StateInterrupted:
		s.metrics.JobsInterrupted.Add(1)
	case StateCancelled:
		s.metrics.JobsCancelled.Add(1)
	}
	if preempted {
		s.metrics.PreemptionsTotal.Add(1)
	}

	j, uerr := s.store.Update(id, func(j *Job) {
		j.State = state
		j.Error = errText
		if TerminalState(state) {
			j.FinishedAt = nowRFC3339()
		}
		if preempted {
			j.Preemptions++
		}
		if sweep != nil {
			j.Collector = sweep.Collector
			j.Results = append(j.Results[:0], sweep.Results...)
			j.Failures = j.Failures[:0]
			for _, f := range sweep.Failures {
				j.Failures = append(j.Failures, JobFailure{Config: f.Config, Attempts: f.Attempts, Error: f.Err.Error()})
			}
			j.ConfigsDone = len(j.Results)
		}
	})
	if uerr != nil {
		s.logf("job %s: %v", id, uerr)
		return false
	}
	if preempted {
		s.hub.publish(Event{Type: "state", Job: id, State: StatePreempted, Done: j.ConfigsDone, Total: j.ConfigsTotal, Tenant: j.Tenant, Priority: j.Priority})
	}
	s.hub.publish(Event{Type: "state", Job: id, State: state, Done: j.ConfigsDone, Total: j.ConfigsTotal, Error: errText, Tenant: j.Tenant, Priority: j.Priority})
	if requeue {
		errText = err.Error() + ", re-queued"
	}
	s.logf("job %s %s: %d/%d configs%s", id, state, j.ConfigsDone, j.ConfigsTotal, suffixIf(errText))
	return requeue
}

func suffixIf(errText string) string {
	if errText == "" {
		return ""
	}
	return ": " + errText
}

// ---- HTTP handlers -------------------------------------------------------

// maxSpecBytes bounds a job submission body.
const maxSpecBytes = 1 << 20

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	tenant := tenantFrom(r.Context())
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		httpError(w, http.StatusBadRequest, "bad job spec: %v", err)
		return
	}
	if err := spec.Validate(); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	class, _ := PriorityClass(spec.Priority) // Validate checked it

	// Global load shedding: past the high-water mark every submission is
	// shed with 429 plus a Retry-After projected from the observed job
	// latencies — degrade with advice instead of queueing unboundedly.
	if depth := s.pool.depth(); depth >= s.cfg.QueueHighWater {
		tenant.reject(RejectOverload)
		s.metrics.ShedTotal.Add(1)
		setRetryAfter(w, s.estimateRetryAfter())
		httpError(w, http.StatusTooManyRequests,
			"server overloaded: %d jobs queued (high-water mark %d)", depth, s.cfg.QueueHighWater)
		return
	}

	j, code, err := s.admit(tenant, spec, class)
	if err != nil {
		if code == http.StatusTooManyRequests {
			setRetryAfter(w, s.estimateRetryAfter())
		}
		httpError(w, code, "%v", err)
		return
	}
	s.maybePreempt(class)
	s.logf("job %s submitted by %s: %s gc=%s, %d configs, %s priority",
		j.ID, j.Tenant, spec.Workload, spec.GC, len(spec.Configs), j.Priority)
	writeJSON(w, http.StatusAccepted, j)
}

// admit enforces the tenant's queued-job quota, then creates the job and
// puts it in the backlog; on failure it returns the HTTP status to
// answer. With a quota, the tenant's lock is held from the count until
// the job is in the backlog, so concurrent submissions cannot both take
// the last slot; it is released before the caller writes the response.
func (s *Server) admit(t *Tenant, spec JobSpec, class int) (*Job, int, error) {
	if t.maxQueued > 0 {
		t.mu.Lock()
		defer t.mu.Unlock()
		if n := s.pool.queuedFor(t.name); n >= t.maxQueued {
			t.reject(RejectQuota)
			return nil, http.StatusTooManyRequests, fmt.Errorf("tenant %s has %d jobs queued (quota %d)", t.name, n, t.maxQueued)
		}
	}
	j, err := s.store.Create(spec, t.name, nowRFC3339())
	if err != nil {
		return nil, http.StatusInternalServerError, err
	}
	s.metrics.JobsSubmitted.Add(1)
	t.submitted.Add(1)
	s.hub.publish(Event{Type: "state", Job: j.ID, State: StateQueued, Total: j.ConfigsTotal, Tenant: j.Tenant, Priority: j.Priority})
	if err := s.pool.submit(j.ID, j.Tenant, class, time.Now()); err != nil {
		j, _ = s.store.Update(j.ID, func(j *Job) {
			j.State = StateFailed
			j.Error = err.Error()
			j.FinishedAt = nowRFC3339()
		})
		s.metrics.JobsFailed.Add(1)
		s.hub.publish(Event{Type: "state", Job: j.ID, State: StateFailed, Error: j.Error, Tenant: j.Tenant, Priority: j.Priority})
		return nil, http.StatusServiceUnavailable, err
	}
	return j, http.StatusAccepted, nil
}

// runningFor counts the tenant's jobs in the running set.
func (s *Server) runningFor(tenant string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, rj := range s.running {
		if rj.tenant == tenant {
			n++
		}
	}
	return n
}

// maybePreempt frees a worker for an arriving interactive job by
// preempting a running bulk sweep — the lowest class only, so batch work
// is never churned (the prioritized-GC policy: high-priority work evicts
// low-priority work rather than waiting behind it). The youngest victim
// is chosen — it has the least checkpointed progress to protect and the
// most still to lose to a later preemption anyway.
func (s *Server) maybePreempt(class int) {
	if class != ClassInteractive || s.pool.idleWorkers() > 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var victimID string
	var victim *runningJob
	for id, rj := range s.running {
		if rj.class != ClassBulk || rj.preempting {
			continue
		}
		if victim == nil || rj.since.After(victim.since) {
			victimID, victim = id, rj
		}
	}
	if victim == nil {
		return
	}
	victim.preempting = true
	s.logf("preempting bulk job %s for an interactive arrival", victimID)
	victim.preempt(core.ErrPreempted)
}

// estimateRetryAfter projects how long a shed client should wait before
// retrying: the backlog spread over the worker pool at the observed
// median per-job service time. The sweep-stage histogram is the signal,
// not JobSeconds — that one measures enqueue-to-terminal wall time, so
// under sustained overload the queue wait would feed its own delay back
// into the advice. Before any sweep has completed, the job-minus-queue
// medians approximate it. Clamped to [1s, 5m]; with no data the floor
// applies.
func (s *Server) estimateRetryAfter() time.Duration {
	var p50 float64
	if h := s.metrics.StageSeconds[telemetry.StageSweep]; h != nil {
		if snap := h.Snapshot(); snap.Count > 0 {
			p50 = snap.Quantile(0.5)
		}
	}
	if p50 == 0 {
		p50 = math.Max(0, s.metrics.JobSeconds.Snapshot().Quantile(0.5)-s.metrics.QueueSeconds.Snapshot().Quantile(0.5))
	}
	perWorker := math.Ceil(float64(s.pool.depth()) / math.Max(1, float64(s.metrics.Workers)))
	est := time.Duration(p50 * (perWorker + 1) * float64(time.Second))
	if est < time.Second {
		est = time.Second
	}
	if est > 5*time.Minute {
		est = 5 * time.Minute
	}
	return est
}

// setRetryAfter writes the Retry-After header, in whole seconds (the
// delay-seconds form), never less than 1.
func setRetryAfter(w http.ResponseWriter, d time.Duration) {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.store.List()
	if !s.tenants.Open() {
		// Tenant mode: each tenant lists only its own jobs.
		name := tenantFrom(r.Context()).Name()
		visible := jobs[:0]
		for _, j := range jobs {
			if j.Tenant == name {
				visible = append(visible, j)
			}
		}
		jobs = visible
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": jobs})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.getAuthorized(w, r, r.PathValue("id"))
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, j)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.getAuthorized(w, r, id)
	if !ok {
		return
	}
	if j.Terminal() {
		writeJSON(w, http.StatusOK, j) // already finished; cancelling is a no-op
		return
	}
	s.mu.Lock()
	rj := s.running[id]
	if rj != nil {
		s.cancelled[id] = true
	}
	s.mu.Unlock()
	if rj != nil {
		// Running: interrupt the machines; the worker persists the
		// cancelled state once the sweep drains.
		rj.preempt(nil) // plain cancellation, cause context.Canceled
		j, _ = s.store.Get(id)
		writeJSON(w, http.StatusOK, j)
		return
	}
	// Queued: flip it to cancelled and drop its backlog entries, which
	// frees the tenant's queued slot. An entry a worker already popped is
	// skipped when the worker sees the job terminal.
	s.pool.remove(id)
	j, err := s.store.Update(id, func(j *Job) {
		if !j.Terminal() {
			j.State = StateCancelled
			j.Error = "cancelled"
			j.FinishedAt = nowRFC3339()
		}
	})
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.metrics.JobsCancelled.Add(1)
	s.hub.publish(Event{Type: "state", Job: id, State: StateCancelled, Error: "cancelled"})
	writeJSON(w, http.StatusOK, j)
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.getAuthorized(w, r, id)
	if !ok {
		return
	}
	s.hub.seed(j) // restarted server: make the stream coherent again
	replay, ch, cancel := s.hub.subscribe(id)
	defer cancel()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	enc := json.NewEncoder(w)
	sawTerminal := false
	emit := func(e Event) bool {
		if err := enc.Encode(e); err != nil {
			return false
		}
		_ = rc.Flush()
		if e.Type == "state" && TerminalState(e.State) {
			sawTerminal = true
		}
		return true
	}
	for _, e := range replay {
		if !emit(e) {
			return
		}
	}
	if ch != nil {
		for !sawTerminal {
			select {
			case <-r.Context().Done():
				return
			case e, chOpen := <-ch:
				if !chOpen {
					// Stream closed; the terminal event may have been dropped
					// on a full buffer, so synthesize it from the store below.
					goto drained
				}
				if !emit(e) {
					return
				}
			}
		}
	}
drained:
	if !sawTerminal {
		if j, ok := s.store.Get(id); ok && j.Terminal() {
			emit(Event{Type: "state", Job: id, State: j.State, Done: j.ConfigsDone, Total: j.ConfigsTotal, Error: j.Error, Tenant: j.Tenant, Priority: j.Priority})
		}
	}
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.getAuthorized(w, r, id)
	if !ok {
		return
	}
	var buf bytes.Buffer
	if err := j.RenderReport(&buf, r.URL.Query().Get("verbose") == "1"); err != nil {
		httpError(w, http.StatusConflict, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write(buf.Bytes())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WriteText(w, s.cfg.TraceCache, s.pool.depth(), s.tenantStats(), s.cluster)
}

// Health is the /healthz body: instantaneous serving state plus the
// liveness of the two disk dependencies (job store, trace cache).
type Health struct {
	Status      string `json:"status"` // "ok", "degraded:overloaded", or "degraded"
	QueueDepth  int    `json:"queue_depth"`
	HighWater   int    `json:"queue_high_water"`
	Workers     int    `json:"workers"`
	WorkersBusy int64  `json:"workers_busy"`
	JobsRunning int64  `json:"jobs_running"`
	Store       string `json:"store"`                 // "ok" or the probe error
	TraceCache  string `json:"trace_cache,omitempty"` // "ok", the stat error, or absent when disabled
}

// handleHealthz reports service health: 200 with status "ok" when the
// store accepts writes and the trace-cache directory (if configured) is
// statable, 503 otherwise — "degraded:overloaded" when the backlog is
// past the high-water mark and submissions are being shed, "degraded"
// when a disk dependency failed (the graver signal, so it wins when
// both hold). The body carries the pool's instantaneous state either
// way, so probes double as a cheap saturation check.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := Health{
		Status:      "ok",
		QueueDepth:  s.pool.depth(),
		HighWater:   s.cfg.QueueHighWater,
		Workers:     s.metrics.Workers,
		WorkersBusy: s.metrics.WorkersBusy.Load(),
		JobsRunning: s.metrics.JobsRunning.Load(),
		Store:       "ok",
	}
	if h.QueueDepth >= h.HighWater {
		h.Status = "degraded:overloaded"
	}
	if err := s.store.ProbeWritable(); err != nil {
		h.Status = "degraded"
		h.Store = err.Error()
	}
	if tc := s.cfg.TraceCache; tc != nil {
		h.TraceCache = "ok"
		// Store-backed caches (dir == "") have no directory to stat; the
		// store probe happens implicitly on first use.
		if dir := tc.Dir(); dir != "" {
			if st, err := os.Stat(dir); err != nil {
				h.Status = "degraded"
				h.TraceCache = err.Error()
			} else if !st.IsDir() {
				h.Status = "degraded"
				h.TraceCache = fmt.Sprintf("%s is not a directory", dir)
			}
		}
	}
	code := http.StatusOK
	if h.Status != "ok" {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}

// handleSpans returns one job's recorded span tree (the job ID is the
// trace ID). An empty list means the recorder is disabled, the job has
// not run yet, or its spans have aged out of the bounded ring.
func (s *Server) handleSpans(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.getAuthorized(w, r, id); !ok {
		return
	}
	spans := s.cfg.Spans.SpansFor(id)
	if spans == nil {
		spans = []telemetry.Span{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"job": id, "spans": spans})
}
