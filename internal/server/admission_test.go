package server_test

// HTTP-level tests for the admission layer: API-key authentication,
// per-tenant queued-job quotas (with Retry-After advice), global load
// shedding past the high-water mark, and the client's retry/backoff
// behaviour against 429/503 responses.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"gcsim/internal/server"
)

// newTenantServer builds an unstarted server behind the given tenants
// config (submitted jobs sit queued forever, making admission outcomes
// deterministic) and serves its handler.
func newTenantServer(t *testing.T, tenantsJSON string, highWater int) (*server.Server, *httptest.Server) {
	t.Helper()
	return newTenantServerAt(t, t.TempDir(), tenantsJSON, highWater)
}

// newTenantServerAt is newTenantServer over a given state directory.
func newTenantServerAt(t *testing.T, stateDir, tenantsJSON string, highWater int) (*server.Server, *httptest.Server) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tenants.json")
	if err := os.WriteFile(path, []byte(tenantsJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	reg, err := server.LoadTenants(path)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{
		StateDir:       stateDir,
		Workers:        1,
		Tenants:        reg,
		QueueHighWater: highWater,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return srv, hs
}

func quickSpec(priority string) server.JobSpec {
	return server.JobSpec{
		Workload: "nbody",
		Scale:    1,
		GC:       "none",
		Priority: priority,
		Configs:  []server.CacheConfig{{SizeBytes: 32 << 10, BlockBytes: 32, Policy: "write-validate"}},
	}
}

// rawSubmit posts a spec with the key and returns the raw response; the
// body is decoded into errMsg ({"error": ...}) or job (202).
func rawSubmit(t *testing.T, base, key string, spec server.JobSpec) (*http.Response, string, *server.Job) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if key != "" {
		req.Header.Set("X-API-Key", key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusAccepted {
		var j server.Job
		if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
			t.Fatal(err)
		}
		return resp, "", &j
	}
	var e struct {
		Error string `json:"error"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&e)
	return resp, e.Error, nil
}

func retryAfterSeconds(t *testing.T, resp *http.Response) int {
	t.Helper()
	v := resp.Header.Get("Retry-After")
	if v == "" {
		t.Fatalf("%s response carries no Retry-After header", resp.Status)
	}
	secs, err := strconv.Atoi(v)
	if err != nil {
		t.Fatalf("Retry-After %q is not delay-seconds", v)
	}
	return secs
}

func TestAdmissionAuthAndLimits(t *testing.T) {
	_, hs := newTenantServer(t, `{"tenants": [
		{"name": "capped", "key": "k-capped", "max_queued": 1}
	]}`, 0)

	// No key, a wrong key, and a malformed bearer value are all 401; the
	// operational endpoints stay open.
	for _, key := range []string{"", "k-wrong"} {
		resp, msg, _ := rawSubmit(t, hs.URL, key, quickSpec(""))
		if resp.StatusCode != http.StatusUnauthorized || !strings.Contains(msg, "API key") {
			t.Errorf("key %q: status=%d msg=%q, want 401", key, resp.StatusCode, msg)
		}
		if resp.Header.Get("WWW-Authenticate") == "" {
			t.Errorf("key %q: 401 without WWW-Authenticate", key)
		}
	}
	if resp, err := http.Get(hs.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz without a key: %v %v, want 200", resp.StatusCode, err)
	} else {
		resp.Body.Close()
	}

	// Quota: the first job queues, the second trips max_queued with a 429
	// carrying Retry-After advice.
	resp, _, job := rawSubmit(t, hs.URL, "k-capped", quickSpec("batch"))
	if resp.StatusCode != http.StatusAccepted || job == nil {
		t.Fatalf("first submit: status=%d", resp.StatusCode)
	}
	if job.Tenant != "capped" || job.Priority != "batch" {
		t.Errorf("accepted job tenant/priority = %q/%q", job.Tenant, job.Priority)
	}
	resp, msg, _ := rawSubmit(t, hs.URL, "k-capped", quickSpec("batch"))
	if resp.StatusCode != http.StatusTooManyRequests || !strings.Contains(msg, "quota") {
		t.Errorf("over-quota submit: status=%d msg=%q, want 429", resp.StatusCode, msg)
	}
	if secs := retryAfterSeconds(t, resp); secs < 1 {
		t.Errorf("quota Retry-After = %d, want >= 1", secs)
	}

	// The per-tenant metric families carry the accounting.
	mresp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if _, err := fmt.Fprint(&sb, readBody(t, mresp)); err != nil {
		t.Fatal(err)
	}
	page := sb.String()
	for metric, want := range map[string]float64{
		`gcsimd_tenant_jobs_submitted_total{tenant="capped"}`:          1,
		`gcsimd_tenant_rejected_total{tenant="capped",reason="quota"}`: 1,
		`gcsimd_tenant_jobs_queued{tenant="capped"}`:                   1,
	} {
		if got := metricValue(t, page, metric); got != want {
			t.Errorf("%s = %v, want %v", metric, got, want)
		}
	}
}

// doKeyed performs one request with the given API key and drains the
// body headers-first (event streams return after the 200 header).
func doKeyed(t *testing.T, method, url, key string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if key != "" {
		req.Header.Set("X-API-Key", key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

func TestTenantIsolationOnJobRoutes(t *testing.T) {
	_, hs := newTenantServer(t, `{"tenants": [
		{"name": "alpha", "key": "k-alpha"},
		{"name": "beta", "key": "k-beta"}
	]}`, 0)

	resp, _, job := rawSubmit(t, hs.URL, "k-alpha", quickSpec(""))
	if resp.StatusCode != http.StatusAccepted || job == nil {
		t.Fatalf("submit: status=%d", resp.StatusCode)
	}

	// Every job-scoped route answers 404 for another tenant's job — the
	// same as for an absent one, so IDs don't leak — while the owner
	// still reaches it.
	for _, path := range []string{
		"/v1/jobs/" + job.ID,
		"/v1/jobs/" + job.ID + "/report",
		"/v1/jobs/" + job.ID + "/events",
		"/v1/jobs/" + job.ID + "/spans",
	} {
		if got := doKeyed(t, http.MethodGet, hs.URL+path, "k-beta"); got.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s as beta: status=%d, want 404", path, got.StatusCode)
		}
		if got := doKeyed(t, http.MethodGet, hs.URL+path, "k-alpha"); got.StatusCode == http.StatusNotFound {
			t.Errorf("GET %s as alpha (the owner): 404", path)
		}
	}
	if got := doKeyed(t, http.MethodDelete, hs.URL+"/v1/jobs/"+job.ID, "k-beta"); got.StatusCode != http.StatusNotFound {
		t.Errorf("DELETE as beta: status=%d, want 404", got.StatusCode)
	}

	// Listing is filtered to the caller's own jobs.
	for key, want := range map[string]int{"k-alpha": 1, "k-beta": 0} {
		req, err := http.NewRequest(http.MethodGet, hs.URL+"/v1/jobs", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-API-Key", key)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var list struct {
			Jobs []server.Job `json:"jobs"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if len(list.Jobs) != want {
			t.Errorf("list as %s: %d jobs, want %d", key, len(list.Jobs), want)
		}
	}

	// In tenant mode the dashboard authenticates too: anonymous is 401,
	// a tenant key works via header or the ?key= query (a browser cannot
	// set headers). The owner then cancels its own job fine.
	if got := doKeyed(t, http.MethodGet, hs.URL+"/dashboard", ""); got.StatusCode != http.StatusUnauthorized {
		t.Errorf("GET /dashboard anonymously: status=%d, want 401", got.StatusCode)
	}
	if got := doKeyed(t, http.MethodGet, hs.URL+"/dashboard", "k-beta"); got.StatusCode != http.StatusOK {
		t.Errorf("GET /dashboard as beta: status=%d, want 200", got.StatusCode)
	}
	if got := doKeyed(t, http.MethodGet, hs.URL+"/dashboard?key=k-alpha", ""); got.StatusCode != http.StatusOK {
		t.Errorf("GET /dashboard?key=: status=%d, want 200", got.StatusCode)
	}
	if got := doKeyed(t, http.MethodDelete, hs.URL+"/v1/jobs/"+job.ID, "k-alpha"); got.StatusCode != http.StatusOK {
		t.Errorf("DELETE as alpha (the owner): status=%d, want 200", got.StatusCode)
	}
}

// TestAPIKeyQueryParameterOnlyOnDashboard: a key in the URL ends up in
// access logs and shell history, so only the dashboard, which a browser
// opens without headers, reads one.
func TestAPIKeyQueryParameterOnlyOnDashboard(t *testing.T) {
	_, hs := newTenantServer(t, `{"tenants": [{"name": "alpha", "key": "k-alpha"}]}`, 0)
	if got := doKeyed(t, http.MethodGet, hs.URL+"/v1/jobs?key=k-alpha", ""); got.StatusCode != http.StatusUnauthorized {
		t.Errorf("GET /v1/jobs?key=: status=%d, want 401", got.StatusCode)
	}
	if got := doKeyed(t, http.MethodGet, hs.URL+"/dashboard?key=k-alpha", ""); got.StatusCode != http.StatusOK {
		t.Errorf("GET /dashboard?key=: status=%d, want 200", got.StatusCode)
	}
}

// TestQuotaHoldsUnderConcurrentSubmissions: concurrent submissions cannot
// both take a tenant's last queued slot, and another tenant's queued job
// does not count against it.
func TestQuotaHoldsUnderConcurrentSubmissions(t *testing.T) {
	_, hs := newTenantServer(t, `{"tenants": [
		{"name": "lab", "key": "k-lab", "max_queued": 1},
		{"name": "ops", "key": "k-ops"}
	]}`, 0)
	if resp, msg, _ := rawSubmit(t, hs.URL, "k-ops", quickSpec("")); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ops submit: status=%d msg=%q, want 202", resp.StatusCode, msg)
	}

	const n = 16
	codes := make(chan int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, err := json.Marshal(quickSpec(""))
			if err != nil {
				t.Error(err)
				return
			}
			req, err := http.NewRequest(http.MethodPost, hs.URL+"/v1/jobs", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			req.Header.Set("X-API-Key", "k-lab")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	wg.Wait()
	close(codes)
	got := map[int]int{}
	for code := range codes {
		got[code]++
	}
	if got[http.StatusAccepted] != 1 || got[http.StatusTooManyRequests] != n-1 {
		t.Errorf("%d concurrent submissions at max_queued 1: status counts %v, want one 202 and %d 429s", n, got, n-1)
	}
}

// TestQueuedJobHoldsQuotaAcrossRestart: a job left queued on disk is
// re-enqueued with its tenant, so it still holds the tenant's quota.
func TestQueuedJobHoldsQuotaAcrossRestart(t *testing.T) {
	const tenants = `{"tenants": [{"name": "lab", "key": "k-lab", "max_queued": 1}]}`
	stateDir := t.TempDir()
	_, hs1 := newTenantServerAt(t, stateDir, tenants, 0)
	if resp, msg, _ := rawSubmit(t, hs1.URL, "k-lab", quickSpec("")); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: status=%d msg=%q, want 202", resp.StatusCode, msg)
	}
	hs1.Close()

	// Start under a cancelled context: the backlog is rebuilt but no
	// worker runs, so the resumed job stays queued.
	srv2, hs2 := newTenantServerAt(t, stateDir, tenants, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	srv2.Start(ctx)
	t.Cleanup(srv2.Drain)
	resp, msg, _ := rawSubmit(t, hs2.URL, "k-lab", quickSpec(""))
	if resp.StatusCode != http.StatusTooManyRequests || !strings.Contains(msg, "quota") {
		t.Errorf("submit after restart: status=%d msg=%q, want a 429 quota rejection", resp.StatusCode, msg)
	}
}

// TestDashboardShowsOnlyTheCallersJobs: in tenant mode the dashboard's
// job table lists the caller's jobs and no other tenant's.
func TestDashboardShowsOnlyTheCallersJobs(t *testing.T) {
	_, hs := newTenantServer(t, `{"tenants": [
		{"name": "alpha", "key": "k-alpha"},
		{"name": "beta", "key": "k-beta"}
	]}`, 0)
	_, _, mine := rawSubmit(t, hs.URL, "k-alpha", quickSpec(""))
	_, _, theirs := rawSubmit(t, hs.URL, "k-beta", quickSpec(""))
	if mine == nil || theirs == nil {
		t.Fatal("setup submissions were not accepted")
	}
	req, err := http.NewRequest(http.MethodGet, hs.URL+"/dashboard", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-API-Key", "k-alpha")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	page := readBody(t, resp)
	if !strings.Contains(page, `id="job-`+mine.ID+`"`) {
		t.Errorf("dashboard misses the caller's job %s", mine.ID)
	}
	if strings.Contains(page, theirs.ID) {
		t.Errorf("dashboard shows another tenant's job %s", theirs.ID)
	}
}

func readBody(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			return sb.String()
		}
	}
}

func TestLoadSheddingAndOverloadedHealth(t *testing.T) {
	_, hs := newTenantServer(t, `{"tenants": [{"name": "acme", "key": "k"}]}`, 1)

	// Below the mark the server is healthy and accepts.
	if resp, _, _ := rawSubmit(t, hs.URL, "k", quickSpec("")); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: status=%d", resp.StatusCode)
	}

	// Depth 1 >= high-water 1: submissions shed with 429 + Retry-After and
	// /healthz flips to degraded:overloaded with a 503.
	resp, msg, _ := rawSubmit(t, hs.URL, "k", quickSpec(""))
	if resp.StatusCode != http.StatusTooManyRequests || !strings.Contains(msg, "overloaded") {
		t.Fatalf("shed submit: status=%d msg=%q, want 429 overloaded", resp.StatusCode, msg)
	}
	if secs := retryAfterSeconds(t, resp); secs < 1 {
		t.Errorf("shed Retry-After = %d, want >= 1", secs)
	}

	hresp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h server.Health
	if err := json.NewDecoder(hresp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable || h.Status != "degraded:overloaded" {
		t.Errorf("/healthz = %d %q, want 503 degraded:overloaded", hresp.StatusCode, h.Status)
	}
	if h.QueueDepth != 1 || h.HighWater != 1 {
		t.Errorf("healthz depth/high-water = %d/%d, want 1/1", h.QueueDepth, h.HighWater)
	}

	mresp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page := readBody(t, mresp)
	if got := metricValue(t, page, "gcsimd_shed_total"); got != 1 {
		t.Errorf("gcsimd_shed_total = %v, want 1", got)
	}
	if got := metricValue(t, page, `gcsimd_tenant_rejected_total{tenant="acme",reason="overload"}`); got != 1 {
		t.Errorf("overload rejection not charged to the tenant: %v", got)
	}
}

// cancelQueued submits a job that stays queued (the server is never
// started) and cancels it.
func cancelQueued(t *testing.T, base, key string) {
	t.Helper()
	resp, msg, job := rawSubmit(t, base, key, quickSpec(""))
	if resp.StatusCode != http.StatusAccepted || job == nil {
		t.Fatalf("submit: status=%d msg=%q, want 202", resp.StatusCode, msg)
	}
	if got := doKeyed(t, http.MethodDelete, base+"/v1/jobs/"+job.ID, key); got.StatusCode != http.StatusOK {
		t.Fatalf("cancel %s: status=%d, want 200", job.ID, got.StatusCode)
	}
}

func TestCancelledQueuedJobReleasesTenantQuota(t *testing.T) {
	_, hs := newTenantServer(t, `{"tenants": [{"name": "lab", "key": "k", "max_queued": 1}]}`, 0)
	cancelQueued(t, hs.URL, "k")

	// The cancelled job left the backlog, so the quota has room again.
	resp, msg, _ := rawSubmit(t, hs.URL, "k", quickSpec(""))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit after cancelling the queued job: status=%d msg=%q, want 202", resp.StatusCode, msg)
	}
	page := readBody(t, mustGet(t, hs.URL+"/metrics"))
	if got := metricValue(t, page, `gcsimd_tenant_jobs_queued{tenant="lab"}`); got != 1 {
		t.Errorf(`gcsimd_tenant_jobs_queued{tenant="lab"} = %v, want 1 (the live job only)`, got)
	}
}

func TestCancelledQueuedJobsLeaveTheHighWaterMark(t *testing.T) {
	_, hs := newTenantServer(t, `{"tenants": [{"name": "lab", "key": "k"}]}`, 2)
	cancelQueued(t, hs.URL, "k")
	cancelQueued(t, hs.URL, "k")

	// Two cancelled jobs are no backlog: the next submission is not shed.
	resp, msg, _ := rawSubmit(t, hs.URL, "k", quickSpec(""))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit after cancelling two queued jobs: status=%d msg=%q, want 202", resp.StatusCode, msg)
	}
	var h server.Health
	hresp := mustGet(t, hs.URL+"/healthz")
	if err := json.NewDecoder(hresp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if h.QueueDepth != 1 || h.Status != "ok" {
		t.Errorf("/healthz status=%q queue_depth=%d, want ok with depth 1", h.Status, h.QueueDepth)
	}
	if got := metricValue(t, readBody(t, mustGet(t, hs.URL+"/metrics")), "gcsimd_jobs_queued"); got != 1 {
		t.Errorf("gcsimd_jobs_queued = %v, want 1", got)
	}
}

func mustGet(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestClientRetriesWithRetryAfter(t *testing.T) {
	job := server.Job{Schema: server.JobSchema, ID: "j123", State: server.StateQueued}
	var attempts, sawKey int
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts++
		if r.Header.Get("Authorization") == "Bearer sekrit" {
			sawKey++
		}
		if attempts <= 2 {
			w.Header().Set("Retry-After", "0")
			http.Error(w, `{"error": "server overloaded"}`, http.StatusTooManyRequests)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		_ = json.NewEncoder(w).Encode(job)
	}))
	t.Cleanup(fake.Close)

	cl := server.NewClient(fake.URL)
	cl.APIKey = "sekrit"
	cl.MaxRetries = 4
	cl.RetryBase = time.Millisecond
	var retries []int
	cl.OnRetry = func(attempt int, status string, delay time.Duration) {
		retries = append(retries, attempt)
		if !strings.Contains(status, "429") {
			t.Errorf("OnRetry status = %q, want 429", status)
		}
	}
	got, err := cl.Submit(context.Background(), quickSpec(""))
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != job.ID {
		t.Errorf("job = %+v", got)
	}
	if attempts != 3 || len(retries) != 2 {
		t.Errorf("attempts = %d, retries = %v; want 3 attempts, 2 retries", attempts, retries)
	}
	if sawKey != attempts {
		t.Errorf("API key sent on %d of %d attempts", sawKey, attempts)
	}

	// MaxRetries 0 surfaces the first 429 as an error, without retrying.
	attempts = 0
	cl0 := server.NewClient(fake.URL)
	if _, err := cl0.Submit(context.Background(), quickSpec("")); err == nil || !strings.Contains(err.Error(), "429") {
		t.Errorf("zero-retry submit: %v, want a 429 error", err)
	}
	if attempts != 1 {
		t.Errorf("zero-retry client made %d attempts, want 1", attempts)
	}
}

func TestClientRetryBudgetExhaustedAndNonRetryable(t *testing.T) {
	var attempts int
	always429 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts++
		w.Header().Set("Retry-After", "0")
		http.Error(w, `{"error": "still overloaded"}`, http.StatusTooManyRequests)
	}))
	t.Cleanup(always429.Close)
	cl := server.NewClient(always429.URL)
	cl.MaxRetries = 3
	cl.RetryBase = time.Millisecond
	if _, err := cl.Submit(context.Background(), quickSpec("")); err == nil || !strings.Contains(err.Error(), "overloaded") {
		t.Errorf("exhausted retries: %v, want the server's error", err)
	}
	if attempts != 4 { // 1 initial + 3 retries
		t.Errorf("attempts = %d, want 4", attempts)
	}

	// A 400 is the client's fault; retrying it would be wrong.
	attempts = 0
	always400 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts++
		http.Error(w, `{"error": "bad spec"}`, http.StatusBadRequest)
	}))
	t.Cleanup(always400.Close)
	cl400 := server.NewClient(always400.URL)
	cl400.MaxRetries = 3
	cl400.RetryBase = time.Millisecond
	if _, err := cl400.Submit(context.Background(), quickSpec("")); err == nil {
		t.Error("400 submit succeeded")
	}
	if attempts != 1 {
		t.Errorf("400 retried: %d attempts, want 1", attempts)
	}

	// 503 (draining) is retryable too.
	attempts = 0
	flip503 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts++
		if attempts == 1 {
			http.Error(w, `{"error": "draining"}`, http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		_ = json.NewEncoder(w).Encode(server.Job{Schema: server.JobSchema, ID: "j1", State: server.StateQueued})
	}))
	t.Cleanup(flip503.Close)
	cl503 := server.NewClient(flip503.URL)
	cl503.MaxRetries = 2
	cl503.RetryBase = time.Millisecond
	if _, err := cl503.Submit(context.Background(), quickSpec("")); err != nil {
		t.Errorf("503-then-202 submit failed: %v", err)
	}
	if attempts != 2 {
		t.Errorf("attempts = %d, want 2", attempts)
	}
}
