package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gcsim/internal/cache"
	"gcsim/internal/castore"
	"gcsim/internal/core"
	"gcsim/internal/gc"
	"gcsim/internal/workloads"
)

// The cluster fabric, coordinator side, and the shard loop every job
// runs through. A coordinator is a normal gcsimd that additionally: keeps
// a registry of workers (registered and kept alive over POST
// /cluster/v1/workers heartbeats), sends each job's shards to the live
// workers rather than to its own process (a worker lost mid-shard
// re-queues the job, whose next run re-shards what the checkpoint does
// not hold), arbitrates trace recording fleet-wide (claim/publish, so
// every reference stream is recorded exactly once no matter which node
// needed it first), and serves any recorded trace by content hash — from
// its own store when the publish replication already pulled it home, by
// asking the live workers otherwise. Workers never talk to each other;
// every cross-node byte moves through the coordinator, which keeps the
// fetch graph loop-free (nodes serve only their local layer, see
// TraceCache.LocalBlobs).

// Cluster roles for Config.Role.
const (
	RoleStandalone  = ""
	RoleCoordinator = "coordinator"
	RoleWorker      = "worker"
)

// Cluster timing defaults.
const (
	defaultHeartbeatEvery  = time.Second
	defaultWorkerDeadAfter = 5 * time.Second
	// recordLeaseTTL is the backstop on a recording lease: liveness of
	// the leaseholder (heartbeats) is the primary signal, this bounds the
	// wedge when a node stops sweeping but keeps heartbeating.
	recordLeaseTTL = 10 * time.Minute
	// workerWaitMax bounds how long a cluster sweep waits for the first
	// worker to register before failing the job.
	workerWaitMax = 15 * time.Second
)

// workerStats is the node-local telemetry a worker reports with every
// heartbeat; the coordinator aggregates it into the fleet metrics.
type workerStats struct {
	TraceRecorded uint64 `json:"trace_recorded"`
	RemoteFetches uint64 `json:"remote_fetches"`
	TraceHits     uint64 `json:"trace_hits"`
	TraceMisses   uint64 `json:"trace_misses"`
	JobsRunning   int64  `json:"jobs_running"`
}

// workerHello is the register/heartbeat body. The first hello registers;
// every later one refreshes liveness and stats. Re-registering after a
// transport failure resurrects a worker the coordinator marked dead.
type workerHello struct {
	Name  string      `json:"name"`
	URL   string      `json:"url"`
	Stats workerStats `json:"stats"`
}

// WorkerView is one row of GET /cluster/v1/workers (and the dashboard's
// fleet table).
type WorkerView struct {
	Name     string      `json:"name"`
	URL      string      `json:"url"`
	Alive    bool        `json:"alive"`
	LastSeen string      `json:"last_seen"` // RFC 3339
	Stats    workerStats `json:"stats"`
}

// claimRequest asks for the recording lease on a trace key.
type claimRequest struct {
	Key  string `json:"key"`
	Node string `json:"node"`
}

// claimResponse carries the arbitration outcome: "recorded" with the
// meta when the trace exists somewhere, "granted" when the caller should
// record, "pending" while another live node holds the lease.
type claimResponse struct {
	Status string          `json:"status"` // "granted", "recorded", or "pending"
	Meta   *core.TraceMeta `json:"meta,omitempty"`
}

// publishRequest announces a finished recording. The coordinator
// replicates the blob home from the holder before acknowledging, so a
// published trace is always fetchable even after its recorder dies.
type publishRequest struct {
	Key  string          `json:"key"`
	Node string          `json:"node"`
	Meta *core.TraceMeta `json:"meta"`
}

// clusterWorker is the coordinator's view of one registered worker.
type clusterWorker struct {
	name     string
	url      string
	lastSeen time.Time
	dead     bool // marked on dispatch transport failure; a heartbeat revives
	stats    workerStats
	client   *Client            // job dispatch
	blobs    *castore.HTTPStore // the worker's /castore/v1/blobs
}

// clusterState is the coordinator's registry and trace table plus the
// fleet counters /metrics exports.
type clusterState struct {
	deadAfter time.Duration

	mu      sync.Mutex
	workers map[string]*clusterWorker
	traces  map[string]*traceEntry

	shardsDispatched atomic.Uint64
	reshards         atomic.Uint64
	claims           atomic.Uint64
	publishes        atomic.Uint64
	blobReplications atomic.Uint64 // blobs copied home from a worker at publish
	blobFanout       atomic.Uint64 // blob requests answered by asking a worker
}

// traceEntry is one row of the fleet trace table: published meta, or an
// outstanding recording lease.
type traceEntry struct {
	meta       *core.TraceMeta
	holder     string // node that recorded it
	leaseOwner string
	leaseAt    time.Time
}

func newClusterState(deadAfter time.Duration) *clusterState {
	if deadAfter <= 0 {
		deadAfter = defaultWorkerDeadAfter
	}
	return &clusterState{
		deadAfter: deadAfter,
		workers:   make(map[string]*clusterWorker),
		traces:    make(map[string]*traceEntry),
	}
}

// hello registers or refreshes a worker, reporting whether the name is
// new to the registry.
func (cs *clusterState) hello(h workerHello) (registered bool) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	w := cs.workers[h.Name]
	registered = w == nil
	if w == nil || w.url != h.URL {
		w = &clusterWorker{
			name:   h.Name,
			url:    h.URL,
			client: NewClient(h.URL),
			blobs:  castore.NewHTTPStore(h.URL+"/castore/v1/blobs", nil),
		}
		w.client.MaxRetries = 4
		cs.workers[h.Name] = w
	}
	w.lastSeen = time.Now()
	w.dead = false
	w.stats = h.Stats
	return registered
}

// markDead records a dispatch transport failure. The worker stays dead
// until its next heartbeat.
func (cs *clusterState) markDead(name string) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if w := cs.workers[name]; w != nil {
		w.dead = true
	}
}

// alive reports liveness under the registry lock.
func (cs *clusterState) aliveLocked(w *clusterWorker, now time.Time) bool {
	return !w.dead && now.Sub(w.lastSeen) <= cs.deadAfter
}

// aliveWorkers snapshots the live workers in name order, so shard
// assignment is deterministic for a given fleet.
func (cs *clusterState) aliveWorkers() []*clusterWorker {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	now := time.Now()
	var out []*clusterWorker
	for _, w := range cs.workers {
		if cs.aliveLocked(w, now) {
			out = append(out, w)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// blobs is the union of the live workers' blob stores.
func (cs *clusterState) blobs() castore.Union {
	var u castore.Union
	for _, w := range cs.aliveWorkers() {
		u = append(u, w.blobs)
	}
	return u
}

// views snapshots every registered worker for the API and dashboard.
func (cs *clusterState) views() []WorkerView {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	now := time.Now()
	out := make([]WorkerView, 0, len(cs.workers))
	for _, w := range cs.workers {
		out = append(out, WorkerView{
			Name:     w.name,
			URL:      w.url,
			Alive:    cs.aliveLocked(w, now),
			LastSeen: w.lastSeen.UTC().Format(time.RFC3339),
			Stats:    w.stats,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// fleetStats sums the workers' heartbeat-reported trace counters.
func (cs *clusterState) fleetStats() (alive, dead int, sum workerStats) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	now := time.Now()
	for _, w := range cs.workers {
		if cs.aliveLocked(w, now) {
			alive++
		} else {
			dead++
		}
		sum.TraceRecorded += w.stats.TraceRecorded
		sum.RemoteFetches += w.stats.RemoteFetches
		sum.TraceHits += w.stats.TraceHits
		sum.TraceMisses += w.stats.TraceMisses
	}
	return alive, dead, sum
}

// claim arbitrates the recording lease for key. Exactly one "granted"
// is outstanding per key at a time; a lease breaks when its owner stops
// heartbeating (or after the TTL backstop), so a recorder that dies
// mid-run does not wedge the key.
func (cs *clusterState) claim(key, node string) claimResponse {
	cs.claims.Add(1)
	cs.mu.Lock()
	defer cs.mu.Unlock()
	e := cs.traces[key]
	if e == nil {
		e = &traceEntry{}
		cs.traces[key] = e
	}
	if e.meta != nil {
		return claimResponse{Status: "recorded", Meta: e.meta}
	}
	if e.leaseOwner != "" && e.leaseOwner != node {
		owner := cs.workers[e.leaseOwner]
		ownerAlive := owner != nil && cs.aliveLocked(owner, time.Now())
		if ownerAlive && time.Since(e.leaseAt) < recordLeaseTTL {
			return claimResponse{Status: "pending"}
		}
		// The leaseholder is gone (or wedged): break the lease and hand
		// it to the caller.
	}
	e.leaseOwner = node
	e.leaseAt = time.Now()
	return claimResponse{Status: "granted"}
}

// ---- coordinator HTTP surface -------------------------------------------

// registerClusterRoutes mounts the /cluster/v1 API on the coordinator.
// These routes are intra-cluster plumbing and stay outside tenant auth,
// like /metrics: a cluster binds them to a trusted network.
func (s *Server) registerClusterRoutes() {
	s.mux.HandleFunc("POST /cluster/v1/workers", s.handleWorkerHello)
	s.mux.HandleFunc("GET /cluster/v1/workers", s.handleWorkerList)
	s.mux.HandleFunc("POST /cluster/v1/traces/claim", s.handleTraceClaim)
	s.mux.HandleFunc("POST /cluster/v1/traces/publish", s.handleTracePublish)
	s.mux.Handle("GET /cluster/v1/blobs/{id}", http.StripPrefix("/cluster/v1/blobs", http.HandlerFunc(s.handleClusterBlob)))
}

func (s *Server) handleWorkerHello(w http.ResponseWriter, r *http.Request) {
	var h workerHello
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes)).Decode(&h); err != nil {
		httpError(w, http.StatusBadRequest, "bad worker hello: %v", err)
		return
	}
	if h.Name == "" || h.URL == "" {
		httpError(w, http.StatusBadRequest, "worker hello needs name and url")
		return
	}
	if s.cluster.hello(h) {
		s.logf("cluster: worker %s registered at %s", h.Name, h.URL)
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleWorkerList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"workers": s.cluster.views()})
}

func (s *Server) handleTraceClaim(w http.ResponseWriter, r *http.Request) {
	var req claimRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad claim: %v", err)
		return
	}
	if req.Key == "" || req.Node == "" {
		httpError(w, http.StatusBadRequest, "claim needs key and node")
		return
	}
	writeJSON(w, http.StatusOK, s.cluster.claim(req.Key, req.Node))
}

// handleTracePublish commits a finished recording to the fleet table.
// The blob is replicated home from the holder before the entry goes
// live: once a publish is acknowledged, the trace is fetchable from the
// coordinator no matter what happens to the node that recorded it.
func (s *Server) handleTracePublish(w http.ResponseWriter, r *http.Request) {
	var req publishRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad publish: %v", err)
		return
	}
	if req.Key == "" || req.Node == "" || req.Meta == nil {
		httpError(w, http.StatusBadRequest, "publish needs key, node, and meta")
		return
	}
	id, err := castore.ParseID(req.Meta.SHA256)
	if err != nil {
		httpError(w, http.StatusBadRequest, "publish meta has a bad blob address: %v", err)
		return
	}
	if err := s.replicateBlob(r.Context(), id, req.Node); err != nil {
		httpError(w, http.StatusBadGateway, "replicating %s from %s: %v", id, req.Node, err)
		return
	}
	s.cluster.mu.Lock()
	e := s.cluster.traces[req.Key]
	if e == nil {
		e = &traceEntry{}
		s.cluster.traces[req.Key] = e
	}
	e.meta, e.holder = req.Meta, req.Node
	e.leaseOwner, e.leaseAt = "", time.Time{}
	s.cluster.mu.Unlock()
	s.cluster.publishes.Add(1)
	s.logf("cluster: trace %s published by %s (%s, %d bytes)", req.Key, req.Node, req.Meta.SHA256, req.Meta.TraceBytes)
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// replicateBlob pulls id home from the named worker: a copy-on-write
// read over the coordinator's store, so a blob already home is a no-op
// and re-publishes are idempotent.
func (s *Server) replicateBlob(ctx context.Context, id castore.ID, node string) error {
	s.cluster.mu.Lock()
	w := s.cluster.workers[node]
	s.cluster.mu.Unlock()
	if w == nil {
		return fmt.Errorf("unknown worker %q", node)
	}
	home := castore.NewCOW(s.cfg.TraceCache.LocalBlobs(), w.blobs)
	rc, err := home.Open(ctx, id) // pulls the blob through when it is not home yet
	if err != nil {
		return err
	}
	s.cluster.blobReplications.Add(home.Pulls())
	return rc.Close()
}

// handleClusterBlob serves GET /cluster/v1/blobs/{id}: castore's handler
// over the coordinator's store, copy-on-write over the union of the live
// workers. A blob found remotely is pulled home before it is served, so
// each fleet blob crosses the network to the coordinator at most once.
func (s *Server) handleClusterBlob(w http.ResponseWriter, r *http.Request) {
	fleet := castore.NewCOW(s.cfg.TraceCache.LocalBlobs(), s.cluster.blobs())
	castore.Handler(fleet).ServeHTTP(w, r)
	s.cluster.blobFanout.Add(fleet.Pulls())
}

// ---- sharded execution ---------------------------------------------------

// errWorkerLost ends a run whose shard was lost in transport. finishJob
// treats it like core.ErrPreempted: the job re-queues, and its next run
// re-shards whatever the checkpoint does not hold.
var errWorkerLost = errors.New("server: worker lost mid-shard")

// jobRun is one run of a job's sweep, the one execution path for every
// role: the job's identity plus the outcome slots, in input order, that
// every node's shard fills through one commit path.
type jobRun struct {
	s        *Server
	id       string
	spec     JobSpec
	w        *workloads.Workload
	mkCol    func() gc.Collector
	colName  string
	identity string // gc.Identity, the checkpoint's collector key
	cfgs     []cache.Config
	ck       *core.Checkpoint

	scale    int
	mu       sync.Mutex
	done     int // results committed by this run
	results  []*core.ConfigResult
	failures []*core.RunFailure
}

// run executes the sweep. Configurations the job's checkpoint holds
// reload with FromCheckpoint set; the pending rest is split contiguously
// across the nodes — this process on a standalone or worker node (a
// one-node cluster), the live registered workers on a coordinator.
// Every result commits through jobRun.commit, and the assembled sweep
// keeps input order and passes the engine's consistency check, so the
// report is byte-identical whichever nodes ran it. A lost worker ends
// the run with errWorkerLost.
func (jr *jobRun) run(ctx context.Context) (*core.PerConfigSweep, error) {
	if jr.scale = jr.spec.Scale; jr.scale == 0 {
		jr.scale = jr.w.DefaultScale
	}
	jr.results = make([]*core.ConfigResult, len(jr.cfgs))
	jr.failures = make([]*core.RunFailure, len(jr.cfgs))
	sweep := &core.PerConfigSweep{Workload: jr.w.Name, Scale: jr.scale, Collector: jr.colName}
	var pending []int
	for i, cfg := range jr.cfgs {
		res, ok, err := jr.ck.Load(jr.w.Name, jr.scale, jr.identity, cfg)
		if err != nil {
			return sweep, err
		}
		if ok {
			jr.results[i] = &res
		} else {
			pending = append(pending, i)
		}
	}

	err := jr.dispatch(ctx, pending)
	for i := range jr.cfgs {
		if r := jr.results[i]; r != nil {
			sweep.Results = append(sweep.Results, *r)
		}
		if f := jr.failures[i]; f != nil {
			sweep.Failures = append(sweep.Failures, f)
		}
	}
	if err != nil {
		return sweep, err
	}
	return sweep, sweep.CheckConsistency()
}

// dispatch runs the pending configurations, one shard per node, and
// joins the shards' errors once every shard is back.
func (jr *jobRun) dispatch(ctx context.Context, pending []int) error {
	nodes := []*clusterWorker{nil} // nil: this process
	if jr.s.cluster != nil && len(pending) > 0 {
		alive, err := jr.s.waitForWorkers(ctx)
		if err != nil {
			return err
		}
		nodes = alive
	}
	shards := splitShards(pending, len(nodes))
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for k, shard := range shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if nodes[k] == nil {
				errs[k] = jr.runLocal(ctx, shard)
			} else {
				errs[k] = jr.runRemote(ctx, k, shard, nodes[k])
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// runLocal runs a shard in this process through the engine's resilient
// per-config sweep. The engine gets no checkpoint: run already loaded it
// and commit saves each result, so the checkpoint I/O is one Load per
// configuration and one Save per computed result.
func (jr *jobRun) runLocal(ctx context.Context, shard []int) error {
	sub := make([]cache.Config, len(shard))
	for k, i := range shard {
		sub[k] = jr.cfgs[i]
	}
	var commitErr error
	var once sync.Once
	sw, err := core.RunSweepPerConfig(ctx, jr.w, jr.scale, sub, core.PerConfigSweepOpts{
		MakeCollector: jr.mkCol,
		Retries:       jr.spec.Retries,
		OnResult: func(r core.ConfigResult) {
			if err := jr.commit(shard, r); err != nil {
				once.Do(func() { commitErr = err })
			}
		},
		// This node's own cache, not the process global: several
		// cluster nodes can share one process (tests do), each with
		// its own store. Nil falls back to the global, as before.
		TraceCache: jr.s.cfg.TraceCache,
	})
	for _, f := range sw.Failures {
		err = errors.Join(err, jr.fail(shard, f))
	}
	return errors.Join(commitErr, err)
}

// runRemote dispatches a shard to a worker as a sub-job and commits what
// it returns through the same path as a local shard. A transport failure
// marks the worker dead and ends the run with errWorkerLost. A shard the
// worker failed without accounting for every configuration fails the
// job: it would fail anywhere.
func (jr *jobRun) runRemote(ctx context.Context, k int, shard []int, wk *clusterWorker) error {
	cs, sub := jr.s.cluster, jr.spec
	sub.Label = fmt.Sprintf("%s/shard-%d", sub.Label, k)
	sub.Configs = nil
	for _, i := range shard {
		sub.Configs = append(sub.Configs, jr.spec.Configs[i])
	}
	cs.shardsDispatched.Add(1)
	job, err := wk.client.Run(ctx, sub, nil)
	switch {
	case err != nil && ctx.Err() != nil:
		// Cancellation (drain, API cancel, preemption): surface it with
		// the cause so finishJob classifies it as it would a local one.
		return core.WithCause(ctx, err)
	case err != nil:
		cs.markDead(wk.name)
		cs.reshards.Add(1)
		jr.s.logf("cluster: worker %s lost mid-shard (%v), re-queueing job %s to re-shard %d configs", wk.name, err, jr.id, len(shard))
		return fmt.Errorf("%w: %s: %v", errWorkerLost, wk.name, err)
	}
	for _, r := range job.Results {
		if err := jr.commit(shard, r); err != nil {
			return fmt.Errorf("server: shard on %s: %w", wk.name, err)
		}
	}
	for _, f := range job.Failures {
		rf := &core.RunFailure{Workload: jr.w.Name, Collector: jr.colName, Config: f.Config, Attempts: f.Attempts, Err: errors.New(f.Error)}
		if err := jr.fail(shard, rf); err != nil {
			return fmt.Errorf("server: shard on %s: %w", wk.name, err)
		}
	}
	if len(job.Results)+len(job.Failures) < len(shard) {
		return fmt.Errorf("server: shard on %s %s: %s", wk.name, job.State, job.Error)
	}
	return nil
}

// commit is the one path a computed result takes, whichever node ran it:
// checkpointed, placed in its input-order slot, and announced.
func (jr *jobRun) commit(shard []int, r core.ConfigResult) error {
	jr.mu.Lock()
	defer jr.mu.Unlock()
	i, ok := jr.slot(shard, r.Config.String())
	if !ok {
		return fmt.Errorf("returned %s, which was not dispatched", r.Config)
	}
	r.FromCheckpoint = false
	if err := jr.ck.Save(jr.w.Name, jr.scale, jr.identity, r); err != nil {
		return err
	}
	jr.results[i] = &r
	jr.done++
	jr.s.metrics.ConfigsCompleted.Add(1)
	jr.s.metrics.RefsReplayed.Add(r.CacheStats.Refs() + r.CacheStats.GCReads + r.CacheStats.GCWrites)
	jr.s.hub.publish(Event{Type: "config", Job: jr.id, Config: r.Config.String(), Done: jr.done, Total: len(jr.cfgs)})
	return nil
}

// fail records a configuration that exhausted its retry budget.
func (jr *jobRun) fail(shard []int, f *core.RunFailure) error {
	jr.mu.Lock()
	defer jr.mu.Unlock()
	i, ok := jr.slot(shard, f.Config)
	if !ok {
		return fmt.Errorf("reported %s failed, which was not dispatched", f.Config)
	}
	jr.failures[i] = f
	return nil
}

// slot finds the first configuration of shard named cfg that has no
// outcome yet, so duplicate configurations each get their own slot.
func (jr *jobRun) slot(shard []int, cfg string) (int, bool) {
	for _, i := range shard {
		if jr.results[i] == nil && jr.failures[i] == nil && jr.cfgs[i].String() == cfg {
			return i, true
		}
	}
	return 0, false
}

// waitForWorkers returns the live workers, waiting (bounded) for the
// first registration so a job submitted right after boot does not fail
// before the fleet has checked in.
func (s *Server) waitForWorkers(ctx context.Context) ([]*clusterWorker, error) {
	deadline := time.Now().Add(workerWaitMax)
	for {
		if alive := s.cluster.aliveWorkers(); len(alive) > 0 {
			return alive, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("server: no live workers registered with the coordinator")
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(250 * time.Millisecond):
		}
	}
}

// splitShards cuts indices into n contiguous shards (fewer when there
// are fewer indices than workers), sizes differing by at most one.
func splitShards(indices []int, n int) [][]int {
	if n > len(indices) {
		n = len(indices)
	}
	shards := make([][]int, 0, n)
	for k := 0; k < n; k++ {
		lo, hi := k*len(indices)/n, (k+1)*len(indices)/n
		shards = append(shards, indices[lo:hi])
	}
	return shards
}
