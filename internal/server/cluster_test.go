package server_test

// End-to-end cluster tests: a coordinator and two workers in one
// process, each node a real Server behind a real HTTP listener with its
// own state directory and its own trace cache (no shared process
// globals). They pin the fabric's contract: a sharded sweep's report is
// byte-identical to a single-node run, every trace is recorded exactly
// once fleet-wide and fetched by content hash everywhere else, and a
// worker lost mid-sweep is re-sharded over the survivors with the
// coordinator's checkpoints carrying the finished configurations.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"gcsim/internal/cache"
	"gcsim/internal/core"
	"gcsim/internal/server"
)

// clusterNode is one in-process gcsimd node.
type clusterNode struct {
	srv *server.Server
	tc  *core.TraceCache
	url string
	hs  *http.Server

	mu     sync.Mutex
	closed bool
}

// kill simulates the node dying: open connections are severed, new ones
// refused, heartbeats stop. Idempotent.
func (n *clusterNode) kill() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	n.mu.Unlock()
	n.hs.Close()
	n.srv.Drain()
}

// startNode boots one node. middleware (optional) wraps the handler.
func startNode(t *testing.T, cfg server.Config, middleware func(http.Handler) http.Handler) *clusterNode {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + ln.Addr().String()
	if cfg.Role == server.RoleWorker {
		cfg.AdvertiseURL = url
	}
	tc, err := core.NewTraceCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg.TraceCache = tc
	cfg.StateDir = t.TempDir()
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start(context.Background())
	h := srv.Handler()
	if middleware != nil {
		h = middleware(h)
	}
	n := &clusterNode{srv: srv, tc: tc, url: url, hs: &http.Server{Handler: h}}
	go n.hs.Serve(ln)
	t.Cleanup(n.kill)
	return n
}

// startCluster boots a coordinator with a one-worker pool and workers
// (worker i wrapped by middlewares[i] when given), then waits until
// every worker has registered.
func startCluster(t *testing.T, nWorkers int, middlewares map[int]func(http.Handler) http.Handler) (*clusterNode, []*clusterNode) {
	t.Helper()
	return startClusterPool(t, 1, nWorkers, middlewares)
}

// startClusterPool is startCluster with coordPool pool workers on the
// coordinator.
func startClusterPool(t *testing.T, coordPool, nWorkers int, middlewares map[int]func(http.Handler) http.Handler) (*clusterNode, []*clusterNode) {
	t.Helper()
	coord := startNode(t, server.Config{
		Workers:         coordPool,
		Role:            server.RoleCoordinator,
		WorkerDeadAfter: 500 * time.Millisecond,
	}, nil)
	workers := make([]*clusterNode, nWorkers)
	for i := range workers {
		workers[i] = startNode(t, server.Config{
			Workers:        1,
			Role:           server.RoleWorker,
			Coordinator:    coord.url,
			NodeName:       fmt.Sprintf("w%d", i),
			HeartbeatEvery: 50 * time.Millisecond,
		}, middlewares[i])
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		page := httpGetBody(t, coord.url+"/metrics")
		if metricValue(t, page, "gcsimd_cluster_workers") == float64(nWorkers) {
			return coord, workers
		}
		if time.Now().After(deadline) {
			t.Fatalf("workers never registered:\n%s", page)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

func httpGetBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func clusterSpec() server.JobSpec {
	return server.JobSpec{
		Workload: "nbody",
		Scale:    1,
		GC:       "cheney",
		Configs: []server.CacheConfig{
			{SizeBytes: 16 << 10, BlockBytes: 16, Policy: cache.WriteValidate},
			{SizeBytes: 16 << 10, BlockBytes: 32, Policy: cache.FetchOnWrite},
			{SizeBytes: 32 << 10, BlockBytes: 32, Policy: cache.WriteValidate},
			{SizeBytes: 32 << 10, BlockBytes: 64, Policy: cache.FetchOnWrite},
			{SizeBytes: 64 << 10, BlockBytes: 32, Policy: cache.WriteValidate},
			{SizeBytes: 64 << 10, BlockBytes: 64, Policy: cache.WriteValidate},
		},
	}
}

// waitMetric polls the coordinator's /metrics until name satisfies ok
// (heartbeats deliver worker counters asynchronously).
func waitMetric(t *testing.T, url, name string, ok func(float64) bool) float64 {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		v := metricValue(t, httpGetBody(t, url+"/metrics"), name)
		if ok(v) {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("metric %s never converged (last %g)", name, v)
			return v
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func TestClusterSweepByteIdenticalAndRecordsOnce(t *testing.T) {
	coord, workers := startCluster(t, 2, nil)
	spec := clusterSpec()

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	job, err := server.NewClient(coord.url).Run(ctx, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if job.State != server.StateDone {
		t.Fatalf("cluster job %s: %s", job.State, job.Error)
	}
	if job.ConfigsDone != len(spec.Configs) {
		t.Fatalf("cluster job finished %d/%d configs", job.ConfigsDone, len(spec.Configs))
	}

	// Byte-identical to the same job on a standalone single node.
	clusterReport := httpGetBody(t, coord.url+"/v1/jobs/"+job.ID+"/report")
	soloTC, err := core.NewTraceCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, soloClient := startServer(t, t.TempDir(), soloTC)
	soloJob, err := soloClient.Run(ctx, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	var soloReport bytes.Buffer
	if err := soloJob.RenderReport(&soloReport, false); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal([]byte(clusterReport), soloReport.Bytes()) {
		t.Errorf("cluster report differs from single-node report:\n--- cluster ---\n%s\n--- solo ---\n%s", clusterReport, soloReport.String())
	}

	// Exactly one recording fleet-wide; the other worker fetched by hash.
	var recorded, fetched uint64
	for _, w := range workers {
		st := w.tc.Stats()
		recorded += st.Recorded
		fetched += st.RemoteFetches
	}
	recorded += coord.tc.Stats().Recorded
	if recorded != 1 {
		t.Errorf("fleet recorded %d traces, want exactly 1", recorded)
	}
	if fetched == 0 {
		t.Error("no cross-node trace fetches — both workers recorded?")
	}

	// The fleet counters surface on the coordinator's /metrics once the
	// heartbeats deliver them, and the publish replication moved the blob
	// home.
	waitMetric(t, coord.url, "gcsimd_fleet_trace_recorded_total", func(v float64) bool { return v == 1 })
	waitMetric(t, coord.url, "gcsimd_fleet_trace_remote_fetches_total", func(v float64) bool { return v >= 1 })
	page := httpGetBody(t, coord.url+"/metrics")
	if v := metricValue(t, page, "gcsimd_cluster_blob_replications_total"); v < 1 {
		t.Errorf("gcsimd_cluster_blob_replications_total = %g, want >= 1 (publish must replicate the blob home)", v)
	}
	if v := metricValue(t, page, "gcsimd_cluster_shards_dispatched_total"); v < 2 {
		t.Errorf("gcsimd_cluster_shards_dispatched_total = %g, want >= 2", v)
	}

	// The fleet table shows both workers alive.
	list := httpGetBody(t, coord.url+"/cluster/v1/workers")
	for _, name := range []string{"w0", "w1"} {
		if !strings.Contains(list, fmt.Sprintf("%q", name)) {
			t.Errorf("worker %s missing from /cluster/v1/workers:\n%s", name, list)
		}
	}
}

func TestClusterWorkerDeathReshardsFromCheckpoint(t *testing.T) {
	workerDeathReshards(t, 1)
}

// TestClusterWorkerDeathTwoPoolWorkers runs the worker-death scenario
// with the coordinator's default pool of two: the job re-queued after the
// loss is picked up at once by the idle pool worker, which must run it.
func TestClusterWorkerDeathTwoPoolWorkers(t *testing.T) {
	workerDeathReshards(t, 2)
}

// workerDeathReshards: worker 1 dies the moment it accepts its shard:
// the submit is served, then every connection is severed and heartbeats
// stop. The coordinator (coordPool pool workers) must mark it dead,
// re-shard its configurations onto worker 0, and resume the finished
// ones from its own checkpoints.
func workerDeathReshards(t *testing.T, coordPool int) {
	killed := make(chan struct{})
	var once sync.Once
	var victim *clusterNode
	middleware := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			next.ServeHTTP(w, r)
			if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
				once.Do(func() { close(killed) })
			}
		})
	}
	coord, workers := startClusterPool(t, coordPool, 2, map[int]func(http.Handler) http.Handler{1: middleware})
	victim = workers[1]
	go func() {
		<-killed
		victim.kill()
	}()

	spec := clusterSpec()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	job, err := server.NewClient(coord.url).Run(ctx, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-killed:
	default:
		t.Fatal("worker 1 never received a shard; the kill scenario did not engage")
	}
	if job.State != server.StateDone {
		t.Fatalf("job after worker death: %s: %s", job.State, job.Error)
	}
	if job.Schema != server.JobSchema {
		t.Fatalf("job schema %q, want %q", job.Schema, server.JobSchema)
	}
	if len(job.Results) != len(spec.Configs) {
		t.Fatalf("job has %d results, want %d", len(job.Results), len(spec.Configs))
	}
	fromCheckpoint := 0
	for _, r := range job.Results {
		if r.FromCheckpoint {
			fromCheckpoint++
		}
	}
	if fromCheckpoint == 0 {
		t.Error("no result carries from_checkpoint — the re-shard did not resume from the coordinator's checkpoints")
	}
	if v := metricValue(t, httpGetBody(t, coord.url+"/metrics"), "gcsimd_cluster_reshards_total"); v < 1 {
		t.Errorf("gcsimd_cluster_reshards_total = %g, want >= 1", v)
	}

	// Order and bytes survive the death: the report still matches a
	// clean single-node run.
	clusterReport := httpGetBody(t, coord.url+"/v1/jobs/"+job.ID+"/report")
	soloTC, err := core.NewTraceCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, soloClient := startServer(t, t.TempDir(), soloTC)
	soloJob, err := soloClient.Run(ctx, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	var soloReport bytes.Buffer
	if err := soloJob.RenderReport(&soloReport, false); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal([]byte(clusterReport), soloReport.Bytes()) {
		t.Errorf("post-reshard report differs from single-node report:\n--- cluster ---\n%s\n--- solo ---\n%s", clusterReport, soloReport.String())
	}
}
