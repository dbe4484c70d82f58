package server

// Unit tests for the coordinator's cluster state machine — the lease
// arbitration, liveness bookkeeping, shard splitting, and blob fan-out
// paths the in-process e2e tests exercise only along their happy route.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gcsim/internal/cache"
	"gcsim/internal/castore"
	"gcsim/internal/core"
)

func helloWorker(cs *clusterState, name string) {
	cs.hello(workerHello{Name: name, URL: "http://" + name + ".invalid:1"})
}

func TestClaimLeaseStateMachine(t *testing.T) {
	cs := newClusterState(time.Minute)
	helloWorker(cs, "a")
	helloWorker(cs, "b")

	if got := cs.claim("k", "a"); got.Status != "granted" {
		t.Fatalf("first claim: %q, want granted", got.Status)
	}
	if got := cs.claim("k", "b"); got.Status != "pending" {
		t.Fatalf("claim against a live leaseholder: %q, want pending", got.Status)
	}
	// The leaseholder itself re-claims (e.g. after a retry): still granted.
	if got := cs.claim("k", "a"); got.Status != "granted" {
		t.Fatalf("leaseholder re-claim: %q, want granted", got.Status)
	}

	// The leaseholder dies: the lease breaks and hands over.
	cs.markDead("a")
	if got := cs.claim("k", "b"); got.Status != "granted" {
		t.Fatalf("claim after leaseholder death: %q, want granted", got.Status)
	}

	// A heartbeat resurrects a; but b holds the lease now.
	helloWorker(cs, "a")
	if got := cs.claim("k", "a"); got.Status != "pending" {
		t.Fatalf("claim against the new leaseholder: %q, want pending", got.Status)
	}

	// The TTL backstop: a live-but-wedged leaseholder loses the lease.
	cs.mu.Lock()
	cs.traces["k"].leaseAt = time.Now().Add(-recordLeaseTTL - time.Minute)
	cs.mu.Unlock()
	if got := cs.claim("k", "a"); got.Status != "granted" {
		t.Fatalf("claim after lease TTL expiry: %q, want granted", got.Status)
	}

	// Once published, everyone gets the meta.
	meta := &core.TraceMeta{Workload: "tc", SHA256: strings.Repeat("ab", 32)}
	cs.mu.Lock()
	cs.traces["k"].meta, cs.traces["k"].holder = meta, "a"
	cs.mu.Unlock()
	for _, node := range []string{"a", "b", "c"} {
		got := cs.claim("k", node)
		if got.Status != "recorded" || got.Meta != meta {
			t.Fatalf("claim(%s) after publish: %q meta=%v, want recorded with meta", node, got.Status, got.Meta)
		}
	}
	if cs.claims.Load() == 0 {
		t.Error("claims counter never advanced")
	}
}

func TestLivenessBookkeeping(t *testing.T) {
	cs := newClusterState(time.Minute)
	helloWorker(cs, "b")
	helloWorker(cs, "a")
	cs.markDead("b")
	cs.markDead("nonexistent") // must not panic or register anything

	alive := cs.aliveWorkers()
	if len(alive) != 1 || alive[0].name != "a" {
		t.Fatalf("aliveWorkers after markDead(b) = %v, want [a]", alive)
	}

	views := cs.views()
	if len(views) != 2 || views[0].Name != "a" || views[1].Name != "b" {
		t.Fatalf("views = %+v, want name-sorted [a b]", views)
	}
	if !views[0].Alive || views[1].Alive {
		t.Fatalf("views liveness = %v/%v, want a alive, b dead", views[0].Alive, views[1].Alive)
	}

	// A heartbeat revives the dead worker and refreshes its stats.
	cs.hello(workerHello{Name: "b", URL: "http://b.invalid:1", Stats: workerStats{TraceRecorded: 3, RemoteFetches: 2}})
	if got := cs.aliveWorkers(); len(got) != 2 {
		t.Fatalf("aliveWorkers after revival = %d workers, want 2", len(got))
	}
	aliveN, deadN, sum := cs.fleetStats()
	if aliveN != 2 || deadN != 0 {
		t.Fatalf("fleetStats = %d alive / %d dead, want 2/0", aliveN, deadN)
	}
	if sum.TraceRecorded != 3 || sum.RemoteFetches != 2 {
		t.Fatalf("fleetStats sum = %+v, want the heartbeat's counters", sum)
	}

	// Liveness decays without heartbeats.
	fast := newClusterState(10 * time.Millisecond)
	helloWorker(fast, "c")
	time.Sleep(30 * time.Millisecond)
	if got := fast.aliveWorkers(); len(got) != 0 {
		t.Fatalf("worker still alive %v after missing heartbeats", got)
	}
}

func TestSplitShards(t *testing.T) {
	cases := []struct {
		n       int
		indices []int
		want    [][]int
	}{
		{2, []int{0, 1, 2, 3, 4, 5}, [][]int{{0, 1, 2}, {3, 4, 5}}},
		{2, []int{3, 5, 9, 2, 7}, [][]int{{3, 5}, {9, 2, 7}}},
		{5, []int{1, 2, 3}, [][]int{{1}, {2}, {3}}},
		{1, []int{4, 2}, [][]int{{4, 2}}},
		{3, nil, [][]int{}},
	}
	for _, c := range cases {
		got := splitShards(c.indices, c.n)
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("splitShards(%v, %d) = %v, want %v", c.indices, c.n, got, c.want)
		}
	}
}

// TestResultToCoreRoundTrip checks that a per-config result crosses the
// wire (worker shard to coordinator) as core.ConfigResult's own JSON,
// byte for byte, and that a result naming an unknown policy is refused.
func TestResultToCoreRoundTrip(t *testing.T) {
	in := core.ConfigResult{
		Config:   cache.Config{SizeBytes: 32 << 10, BlockBytes: 32, Policy: cache.WriteValidate},
		Checksum: 42, Insns: 100, GCInsns: 7, FromCheckpoint: true,
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"config":{"size_bytes":32768,"block_bytes":32,"policy":"write-validate"},` +
		`"cache_stats":{"Reads":0,"Writes":0,"ReadMisses":0,"WriteMisses":0,"WriteAllocs":0,` +
		`"GCReads":0,"GCWrites":0,"GCReadMisses":0,"GCWriteMisses":0,"Writebacks":0,"GCWritebacks":0},` +
		`"checksum":42,"insns":100,"gc_insns":7,"gc_stats":{` +
		`"Collections":0,"MajorCollections":0,"CopiedObjects":0,"CopiedWords":0,` +
		`"ScannedSlots":0,"BarrierChecks":0,"BarrierHits":0,"LiveAfterLast":0},"from_checkpoint":true}`
	if string(data) != want {
		t.Errorf("wire result:\n%s\nwant:\n%s", data, want)
	}
	var out core.ConfigResult
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip changed the result: %+v != %+v", out, in)
	}

	bad := strings.Replace(string(data), "write-validate", "no-such-policy", 1)
	if err := json.Unmarshal([]byte(bad), &out); err == nil {
		t.Fatal("decoding accepted an invalid wire config")
	}
}

// newCoordinator builds a coordinator Server (not Started — handler
// tests only) with its own trace cache.
func newCoordinator(t *testing.T) *Server {
	t.Helper()
	tc, err := core.NewTraceCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		StateDir:   t.TempDir(),
		Workers:    1,
		TraceCache: tc,
		Role:       RoleCoordinator,
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func TestClusterBlobFanout(t *testing.T) {
	srv := newCoordinator(t)
	coord := httptest.NewServer(srv.Handler())
	defer coord.Close()

	// A worker that holds one blob in its local store.
	workerBlobs := castore.NewMem()
	blob := []byte("the recorded reference stream")
	id, err := workerBlobs.Post(context.Background(), blob)
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.Handle("/castore/v1/blobs/", http.StripPrefix("/castore/v1/blobs", castore.Handler(workerBlobs)))
	worker := httptest.NewServer(mux)
	defer worker.Close()
	srv.cluster.hello(workerHello{Name: "w", URL: worker.URL})

	get := func(path string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Get(coord.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, string(body)
	}

	// First fetch fans out to the worker and pulls the blob home.
	resp, body := get("/cluster/v1/blobs/" + id.String())
	if resp.StatusCode != http.StatusOK || body != string(blob) {
		t.Fatalf("fan-out fetch: %d %q", resp.StatusCode, body)
	}
	if got := srv.cluster.blobFanout.Load(); got != 1 {
		t.Fatalf("blobFanout = %d, want 1", got)
	}

	// Second fetch is served from the coordinator's own store.
	if resp, body = get("/cluster/v1/blobs/" + id.String()); resp.StatusCode != http.StatusOK || body != string(blob) {
		t.Fatalf("local re-fetch: %d %q", resp.StatusCode, body)
	}
	if got := srv.cluster.blobFanout.Load(); got != 1 {
		t.Fatalf("blobFanout after local re-fetch = %d, want still 1", got)
	}

	// The blob now appears in the coordinator's own /castore/v1 surface.
	if resp, body = get("/castore/v1/blobs/" + id.String()); resp.StatusCode != http.StatusOK || body != string(blob) {
		t.Fatalf("node blob fetch: %d %q", resp.StatusCode, body)
	}

	// A blob nobody has is a 404; a malformed id is a 400.
	missing := castore.Sum([]byte("never recorded"))
	if resp, _ = get("/cluster/v1/blobs/" + missing.String()); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing blob: %d, want 404", resp.StatusCode)
	}
	if resp, _ = get("/cluster/v1/blobs/zz"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad blob id: %d, want 400", resp.StatusCode)
	}
	if resp, _ = get("/castore/v1/blobs/" + missing.String()); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing node blob: %d, want 404", resp.StatusCode)
	}

	// HEAD mirrors GET on both surfaces.
	head, err := http.Head(coord.URL + "/castore/v1/blobs/" + id.String())
	if err != nil {
		t.Fatal(err)
	}
	head.Body.Close()
	if head.StatusCode != http.StatusOK {
		t.Fatalf("HEAD present blob: %d, want 200", head.StatusCode)
	}
	head, err = http.Head(coord.URL + "/castore/v1/blobs/" + missing.String())
	if err != nil {
		t.Fatal(err)
	}
	head.Body.Close()
	if head.StatusCode != http.StatusNotFound {
		t.Fatalf("HEAD missing blob: %d, want 404", head.StatusCode)
	}
}

func TestClusterShardFailuresReachTheJob(t *testing.T) {
	srv := newCoordinator(t)
	srv.Start(context.Background())
	t.Cleanup(srv.Drain)
	coord := httptest.NewServer(srv.Handler())
	defer coord.Close()

	spec := JobSpec{Workload: "nbody", Scale: 1, GC: "none", Configs: []CacheConfig{
		{SizeBytes: 32 << 10, BlockBytes: 32, Policy: cache.WriteValidate},
		{SizeBytes: 64 << 10, BlockBytes: 64, Policy: cache.FetchOnWrite},
	}}
	cfgs, err := spec.CacheConfigs()
	if err != nil {
		t.Fatal(err)
	}
	// A stub worker whose shard ends failed the way a standalone job
	// does: the first configuration completed, the second exhausted its
	// retry budget.
	shard := Job{
		Schema: JobSchema, ID: "jshard", State: StateFailed, Error: "1 of 2 configurations failed",
		Collector: "none", ConfigsDone: 1, ConfigsTotal: 2,
		Results:  []core.ConfigResult{{Config: cfgs[0], Checksum: 7, Insns: 1000}},
		Failures: []JobFailure{{Config: cfgs[1].String(), Attempts: 1, Error: "simulator crashed"}},
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusAccepted, Job{Schema: JobSchema, ID: shard.ID, State: StateQueued})
	})
	mux.HandleFunc("GET /v1/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(Event{Type: "state", Job: shard.ID, State: shard.State, Error: shard.Error})
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, shard)
	})
	worker := httptest.NewServer(mux)
	defer worker.Close()
	srv.cluster.hello(workerHello{Name: "w", URL: worker.URL})

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	job, err := NewClient(coord.URL).Run(ctx, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if job.State != StateFailed || job.Error != "1 of 2 configurations failed" {
		t.Fatalf("coordinator job %s: %q, want failed: 1 of 2 configurations failed", job.State, job.Error)
	}
	if len(job.Results) != 1 || job.Results[0].Config != spec.Configs[0] || job.Results[0].Checksum != 7 {
		t.Errorf("coordinator job results = %+v, want the shard's one result", job.Results)
	}
	if len(job.Failures) != 1 || job.Failures[0] != shard.Failures[0] {
		t.Errorf("coordinator job failures = %+v, want %+v", job.Failures, shard.Failures)
	}
}

func TestWaitForWorkersGivesUp(t *testing.T) {
	srv := newCoordinator(t)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := srv.waitForWorkers(ctx); err == nil {
		t.Fatal("waitForWorkers returned without workers on a cancelled context")
	}

	// With a live worker it returns immediately.
	srv.cluster.hello(workerHello{Name: "w", URL: "http://w.invalid:1"})
	alive, err := srv.waitForWorkers(context.Background())
	if err != nil || len(alive) != 1 {
		t.Fatalf("waitForWorkers = %v, %v; want the one registered worker", alive, err)
	}
}

func TestWorkerHelloValidation(t *testing.T) {
	srv := newCoordinator(t)
	h := httptest.NewServer(srv.Handler())
	defer h.Close()

	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(h.URL+"/cluster/v1/workers", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(`{"name":"w"}`); code != http.StatusBadRequest {
		t.Fatalf("hello without url: %d, want 400", code)
	}
	if code := post(`not json`); code != http.StatusBadRequest {
		t.Fatalf("malformed hello: %d, want 400", code)
	}
	if code := post(`{"name":"w","url":"http://w.invalid:1"}`); code != http.StatusOK {
		t.Fatalf("valid hello: %d, want 200", code)
	}

	resp, err := http.Get(h.URL + "/cluster/v1/workers")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), `"w"`) {
		t.Fatalf("worker list %q misses the registered worker", body)
	}

	// claim/publish validation.
	for path, bad := range map[string]string{
		"/cluster/v1/traces/claim":   `{"key":"k"}`,
		"/cluster/v1/traces/publish": `{"key":"k","node":"w"}`,
	} {
		resp, err := http.Post(h.URL+path, "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST %s with %q: %d, want 400", path, bad, resp.StatusCode)
		}
	}

	// A publish whose meta points at a blob the named worker cannot serve
	// must not commit the entry.
	pub := fmt.Sprintf(`{"key":"k","node":"w","meta":{"sha256":"%s"}}`, strings.Repeat("ab", 32))
	resp, err = http.Post(h.URL+"/cluster/v1/traces/publish", "application/json", strings.NewReader(pub))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("publish with an unfetchable blob: %d, want 502", resp.StatusCode)
	}
	if got := srv.cluster.claim("k", "x"); got.Status != "granted" {
		t.Fatalf("claim after failed publish: %q, want granted (entry must not commit)", got.Status)
	}
}
