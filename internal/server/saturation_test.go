package server_test

// Saturation and preemption end-to-end tests: an interactive arrival
// preempts a running bulk sweep whose resumed report stays byte-identical,
// and a three-tenant storm at many times the pool's capacity sheds
// cleanly, completes everything it accepted, keeps interactive queue
// latency under bulk's, and leaks no goroutines.

import (
	"bytes"
	"context"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"gcsim/internal/cache"
	"gcsim/internal/core"
	"gcsim/internal/server"
)

func TestE2EPreemptionResumesByteIdentical(t *testing.T) {
	// Serial configs and no trace cache force the incremental per-config
	// path, so the preempted sweep has real checkpoints to resume from
	// (the fused replay pass only commits results at sweep end).
	oldPar := core.Parallelism()
	core.SetParallelism(1)
	t.Cleanup(func() { core.SetParallelism(oldPar) })

	srv, cl := startServer(t, t.TempDir(), nil)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	bulkSpec := server.JobSpec{
		Workload: "tc",
		Scale:    1200,
		GC:       "cheney",
		Priority: server.PriorityBulk,
		Configs: []server.CacheConfig{
			{SizeBytes: 32 << 10, BlockBytes: 32, Policy: cache.WriteValidate},
			{SizeBytes: 16 << 10, BlockBytes: 32, Policy: cache.WriteValidate},
			{SizeBytes: 64 << 10, BlockBytes: 64, Policy: cache.FetchOnWrite},
		},
	}
	bulk, err := cl.Submit(ctx, bulkSpec)
	if err != nil {
		t.Fatal(err)
	}

	// Watch the bulk job; once its first configuration checkpoints, the
	// interactive arrival preempts it mid-sweep.
	firstConfig := make(chan struct{})
	events := make(chan server.Event, 256)
	streamDone := make(chan struct{})
	go func() {
		defer close(streamDone)
		var once sync.Once
		_, _ = cl.Stream(ctx, bulk.ID, func(e server.Event) {
			select {
			case events <- e:
			default:
			}
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

	interSpec := server.JobSpec{
		Workload: "nbody",
		Scale:    1,
		GC:       "none",
		Priority: server.PriorityInteractive,
		Configs:  []server.CacheConfig{{SizeBytes: 32 << 10, BlockBytes: 32, Policy: cache.WriteValidate}},
	}
	inter, err := cl.Submit(ctx, interSpec)
	if err != nil {
		t.Fatal(err)
	}

	// The single worker is preempted, runs the interactive job, then
	// resumes the bulk sweep from its checkpoints; both finish done.
	select {
	case <-streamDone:
	case <-ctx.Done():
		t.Fatal("bulk job did not reach a terminal state before the deadline")
	}
	var sawPreempted, sawRequeue bool
drain:
	for {
		select {
		case e := <-events:
			if e.Type == "state" && e.State == server.StatePreempted {
				sawPreempted = true
			}
			if sawPreempted && e.Type == "state" && e.State == server.StateQueued {
				sawRequeue = true
			}
		default:
			break drain
		}
	}
	if !sawPreempted || !sawRequeue {
		t.Errorf("bulk stream missed the preemption (preempted=%v requeued=%v)", sawPreempted, sawRequeue)
	}

	final, err := cl.Job(ctx, bulk.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != server.StateDone {
		t.Fatalf("bulk job ended %s (%s), want done", final.State, final.Error)
	}
	if final.Preemptions < 1 {
		t.Errorf("bulk job records %d preemptions, want >= 1", final.Preemptions)
	}
	fromCk := 0
	for _, r := range final.Results {
		if r.FromCheckpoint {
			fromCk++
		}
	}
	if fromCk < 1 {
		t.Errorf("no result replayed from checkpoint after preemption: %+v", final.Results)
	}
	if ij, err := cl.Job(ctx, inter.ID); err != nil || ij.State != server.StateDone {
		t.Fatalf("interactive job = %+v (%v), want done", ij, err)
	}

	// Preemption must not change a byte of the bulk report.
	local := localReportBytes(t, bulkSpec)
	var remote bytes.Buffer
	if err := final.RenderReport(&remote, false); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(remote.Bytes(), local) {
		t.Errorf("preempted job's report differs from an uninterrupted local run:\n--- remote ---\n%s--- local ---\n%s", remote.Bytes(), local)
	}

	page, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n := metricValue(t, page, "gcsimd_preemptions_total"); n < 1 {
		t.Errorf("gcsimd_preemptions_total = %v, want >= 1", n)
	}
	srv.Drain()
}

func TestE2ESaturationThreeTenants(t *testing.T) {
	before := runtime.NumGoroutine()

	const (
		highWater = 50
		submitted = 100 // 100x the single worker's capacity
	)
	srvCfgJSON := `{"tenants": [
		{"name": "alpha", "key": "k-alpha"},
		{"name": "beta", "key": "k-beta"},
		{"name": "gamma", "key": "k-gamma"}
	]}`
	srv, hs := newTenantServer(t, srvCfgJSON, highWater)

	// Submit the whole storm before the workers start: admission is then a
	// pure function of queue depth — exactly highWater jobs are accepted
	// and the rest shed with 429 + Retry-After.
	tenants := []struct{ key, priority string }{
		{"k-alpha", server.PriorityInteractive},
		{"k-beta", server.PriorityBatch},
		{"k-gamma", server.PriorityBulk},
	}
	// One client per tenant: each tenant may only see its own jobs, so
	// the poll below must use the submitting tenant's key.
	clients := make(map[string]*server.Client, len(tenants))
	for _, tn := range tenants {
		c := server.NewClient(hs.URL)
		c.APIKey = tn.key
		clients[tn.priority] = c
	}
	accepted := make(map[string]string) // job ID -> priority
	var shed int
	for i := 0; i < submitted; i++ {
		tn := tenants[i%len(tenants)]
		resp, msg, job := rawSubmit(t, hs.URL, tn.key, quickSpec(tn.priority))
		switch resp.StatusCode {
		case http.StatusAccepted:
			accepted[job.ID] = tn.priority
		case http.StatusTooManyRequests:
			shed++
			if secs := retryAfterSeconds(t, resp); secs < 1 {
				t.Fatalf("shed response %d: Retry-After = %d, want >= 1", i, secs)
			}
		default:
			t.Fatalf("submission %d: status=%d msg=%q", i, resp.StatusCode, msg)
		}
	}
	if len(accepted) != highWater || shed != submitted-highWater {
		t.Fatalf("accepted %d and shed %d of %d, want %d/%d", len(accepted), shed, submitted, highWater, submitted-highWater)
	}

	// Run the backlog down and wait for every accepted job to finish.
	srv.Start(context.Background())
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	queueSecs := make(map[string][]float64) // priority -> per-job queue wait
	for id, priority := range accepted {
		cl := clients[priority]
		var final *server.Job
		for {
			j, err := cl.Job(ctx, id)
			if err != nil {
				t.Fatal(err)
			}
			if j.Terminal() {
				final = j
				break
			}
			select {
			case <-ctx.Done():
				t.Fatalf("job %s (%s) not terminal before the deadline: %s", id, priority, j.State)
			case <-time.After(50 * time.Millisecond):
			}
		}
		if final.State != server.StateDone {
			t.Fatalf("job %s (%s) ended %s: %s", id, priority, final.State, final.Error)
		}
		queueSecs[priority] = append(queueSecs[priority], final.QueueSeconds)
	}

	// With one worker and strict priority dispatch, every interactive job
	// ran before any bulk job: interactive p99 queue latency must sit
	// below bulk's p50.
	interP99 := quantileOf(queueSecs[server.PriorityInteractive], 0.99)
	bulkP50 := quantileOf(queueSecs[server.PriorityBulk], 0.50)
	if interP99 >= bulkP50 {
		t.Errorf("interactive p99 queue latency %.4fs >= bulk p50 %.4fs", interP99, bulkP50)
	}

	page, err := clients[server.PriorityInteractive].Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n := metricValue(t, page, "gcsimd_shed_total"); n != float64(shed) {
		t.Errorf("gcsimd_shed_total = %v, want %d", n, shed)
	}
	if n := metricValue(t, page, "gcsimd_jobs_completed_total"); n != float64(len(accepted)) {
		t.Errorf("gcsimd_jobs_completed_total = %v, want %d", n, len(accepted))
	}

	// Shut everything down and verify the storm leaked no goroutines.
	srv.Drain()
	hs.Close()
	deadline := time.Now().Add(15 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before+3 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines: %d before, %d after shutdown\n%s", before, runtime.NumGoroutine(), buf[:n])
		}
		runtime.Gosched()
		time.Sleep(50 * time.Millisecond)
	}
}

// quantileOf computes an exact sample quantile (nearest-rank).
func quantileOf(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}
