package server

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gcsim/internal/cache"
	"gcsim/internal/core"
	"gcsim/internal/gc"
	"gcsim/internal/telemetry"
)

func validSpec() JobSpec {
	return JobSpec{
		Workload: "nbody",
		Scale:    1,
		GC:       "cheney",
		Configs: []CacheConfig{
			{SizeBytes: 32 << 10, BlockBytes: 32, Policy: cache.WriteValidate},
		},
	}
}

func TestJobSpecValidate(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*JobSpec)
		wantErr string
	}{
		{"valid", func(s *JobSpec) {}, ""},
		{"empty gc means none", func(s *JobSpec) { s.GC = "" }, ""},
		{"no workload", func(s *JobSpec) { s.Workload = "" }, "no workload"},
		{"unknown workload", func(s *JobSpec) { s.Workload = "quux" }, "unknown workload"},
		{"unknown collector", func(s *JobSpec) { s.GC = "epsilon" }, "unknown collector"},
		{"no configs", func(s *JobSpec) { s.Configs = nil }, "no cache configurations"},
		{"bad geometry", func(s *JobSpec) { s.Configs[0].SizeBytes = 3000 }, "not a positive power of two"},
		{"negative retries", func(s *JobSpec) { s.Retries = -1 }, "retries"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := validSpec()
			tc.mutate(&spec)
			err := spec.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %v, want error mentioning %q", err, tc.wantErr)
			}
		})
	}
}

// TestCacheConfigRoundTrip pins a configuration's wire bytes, which name
// the policy, and requires decoding to refuse an unknown policy.
func TestCacheConfigRoundTrip(t *testing.T) {
	for _, c := range []struct {
		cfg  cache.Config
		wire string
	}{
		{cache.Config{SizeBytes: 64 << 10, BlockBytes: 64, Policy: cache.WriteValidate},
			`{"size_bytes":65536,"block_bytes":64,"policy":"write-validate"}`},
		{cache.Config{SizeBytes: 1 << 20, BlockBytes: 16, Policy: cache.FetchOnWrite},
			`{"size_bytes":1048576,"block_bytes":16,"policy":"fetch-on-write"}`},
	} {
		data, err := json.Marshal(c.cfg)
		if err != nil || string(data) != c.wire {
			t.Errorf("encoding %v: %s (err %v), want %s", c.cfg, data, err, c.wire)
		}
		var back cache.Config
		if err := json.Unmarshal([]byte(c.wire), &back); err != nil || back != c.cfg {
			t.Errorf("decoding %s: %+v (err %v), want %+v", c.wire, back, err, c.cfg)
		}
	}
	var bad cache.Config
	err := json.Unmarshal([]byte(`{"size_bytes":32768,"block_bytes":32,"policy":"write-sometimes"}`), &bad)
	if err == nil || !strings.Contains(err.Error(), "unknown policy") {
		t.Errorf("decoding an unknown policy: %v, want an unknown-policy error", err)
	}
}

// TestJobWireForm pins a job's JSON: its results are core.ConfigResult,
// with the policy by name, from_checkpoint present when set, and no
// config_name.
func TestJobWireForm(t *testing.T) {
	cfg := cache.Config{SizeBytes: 32 << 10, BlockBytes: 32, Policy: cache.FetchOnWrite}
	j := Job{
		Schema: JobSchema, ID: "j1", State: StateDone, Collector: "cheney",
		Spec:        JobSpec{Workload: "nbody", Scale: 1, GC: "cheney", Configs: []cache.Config{cfg}},
		ConfigsDone: 1, ConfigsTotal: 1,
		Results: []core.ConfigResult{{
			Config:         cfg,
			CacheStats:     cache.Stats{Reads: 10, Writes: 4, ReadMisses: 3, GCReads: 2},
			Checksum:       -5,
			Insns:          100,
			GCInsns:        7,
			GCStats:        gc.Stats{Collections: 1, CopiedWords: 9},
			FromCheckpoint: true,
		}},
	}
	data, err := json.Marshal(&j)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"schema":"gcsimd-job/v1","id":"j1",` +
		`"spec":{"workload":"nbody","scale":1,"gc":"cheney","gc_options":{},` +
		`"configs":[{"size_bytes":32768,"block_bytes":32,"policy":"fetch-on-write"}]},` +
		`"state":"done","collector":"cheney","configs_done":1,"configs_total":1,` +
		`"results":[{"config":{"size_bytes":32768,"block_bytes":32,"policy":"fetch-on-write"},` +
		`"cache_stats":{"Reads":10,"Writes":4,"ReadMisses":3,"WriteMisses":0,"WriteAllocs":0,` +
		`"GCReads":2,"GCWrites":0,"GCReadMisses":0,"GCWriteMisses":0,"Writebacks":0,"GCWritebacks":0},` +
		`"checksum":-5,"insns":100,"gc_insns":7,` +
		`"gc_stats":{"Collections":1,"MajorCollections":0,"CopiedObjects":0,"CopiedWords":9,` +
		`"ScannedSlots":0,"BarrierChecks":0,"BarrierHits":0,"LiveAfterLast":0},` +
		`"from_checkpoint":true}]}`
	if string(data) != want {
		t.Errorf("job JSON:\n%s\nwant:\n%s", data, want)
	}
	var back Job
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Results) != 1 || back.Results[0] != j.Results[0] || back.Spec.Configs[0] != cfg {
		t.Errorf("decoded job = %+v, want %+v", back, j)
	}
}

func TestStorePersistReload(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	j1, err := st.Create(validSpec(), "acme", "2026-01-01T00:00:01Z")
	if err != nil {
		t.Fatal(err)
	}
	j2, err := st.Create(validSpec(), "acme", "2026-01-01T00:00:02Z")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Update(j2.ID, func(j *Job) {
		j.State = StateDone
		j.Collector = "cheney"
		j.ConfigsDone = 1
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Update(j1.ID, func(j *Job) { j.State = StateInterrupted }); err != nil {
		t.Fatal(err)
	}

	// Reload from disk: the same jobs come back, and only the
	// non-terminal one is resumable.
	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := st2.Get(j2.ID)
	if !ok {
		t.Fatalf("job %s lost on reload", j2.ID)
	}
	if got.State != StateDone || got.Collector != "cheney" || got.ConfigsDone != 1 {
		t.Errorf("reloaded job = %+v", got)
	}
	if got.Spec.Workload != "nbody" || len(got.Spec.Configs) != 1 {
		t.Errorf("reloaded spec = %+v", got.Spec)
	}
	if got.Tenant != "acme" || got.Priority != PriorityBatch {
		t.Errorf("reloaded tenant/priority = %q/%q, want acme/batch", got.Tenant, got.Priority)
	}
	res := st2.Resumable()
	if len(res) != 1 || res[0] != j1.ID {
		t.Errorf("Resumable() = %v, want [%s]", res, j1.ID)
	}
	if n := len(st2.List()); n != 2 {
		t.Errorf("List() returned %d jobs, want 2", n)
	}

	// Mutating a returned copy must not leak into the store.
	got.Spec.Configs[0].SizeBytes = 12345
	fresh, _ := st2.Get(j2.ID)
	if fresh.Spec.Configs[0].SizeBytes == 12345 {
		t.Error("Get returned a shallow copy: caller mutation reached the store")
	}
}

func TestEventHubReplayAndTerminal(t *testing.T) {
	h := newEventHub(nil, nil)
	h.publish(Event{Type: "state", Job: "j1", State: StateQueued})
	h.publish(Event{Type: "config", Job: "j1", Config: "64k/64b/write-validate", Done: 1, Total: 2})

	replay, ch, cancel := h.subscribe("j1")
	defer cancel()
	if len(replay) != 2 || ch == nil {
		t.Fatalf("subscribe: %d replayed events, ch=%v", len(replay), ch)
	}

	h.publish(Event{Type: "config", Job: "j1", Config: "32k/32b/write-validate", Done: 2, Total: 2})
	h.publish(Event{Type: "state", Job: "j1", State: StateDone})
	var live []Event
	for e := range ch { // closed by the terminal event
		live = append(live, e)
	}
	if len(live) != 2 || live[1].State != StateDone {
		t.Fatalf("live events = %+v", live)
	}

	// A late subscriber gets history only, and nothing may follow the
	// terminal event.
	h.publish(Event{Type: "config", Job: "j1", Config: "late"})
	replay, ch, cancel = h.subscribe("j1")
	defer cancel()
	if ch != nil {
		t.Error("subscribe after terminal returned a live channel")
	}
	if len(replay) != 4 || replay[3].State != StateDone {
		t.Fatalf("replay after terminal = %+v", replay)
	}
}

func TestEventHubSeed(t *testing.T) {
	h := newEventHub(nil, nil)
	h.seed(&Job{ID: "j9", State: StateDone, ConfigsDone: 3, ConfigsTotal: 3})
	replay, ch, cancel := h.subscribe("j9")
	defer cancel()
	if ch != nil || len(replay) != 1 || replay[0].State != StateDone {
		t.Fatalf("seeded stream: ch=%v replay=%+v", ch, replay)
	}
	// Seeding an already-populated job is a no-op.
	h.seed(&Job{ID: "j9", State: StateQueued})
	replay, _, cancel2 := h.subscribe("j9")
	defer cancel2()
	if len(replay) != 1 {
		t.Fatalf("re-seed added events: %+v", replay)
	}
}

func TestMetricsText(t *testing.T) {
	m := NewMetrics(3)
	m.JobsSubmitted.Add(5)
	m.JobsCompleted.Add(4)
	m.RefsReplayed.Add(1_000_000)
	tc, err := core.NewTraceCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	m.WriteText(&sb, tc, 2, []TenantStats{{Name: "default"}}, nil)
	text := sb.String()
	for _, want := range []string{
		"# TYPE gcsimd_jobs_submitted_total counter",
		"gcsimd_jobs_submitted_total 5",
		"gcsimd_jobs_completed_total 4",
		"gcsimd_refs_replayed_total 1e+06",
		"gcsimd_jobs_queued 2",
		"gcsimd_workers 3",
		"gcsimd_trace_cache_hits_total 0",
		"gcsimd_trace_cache_misses_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics page missing %q:\n%s", want, text)
		}
	}
	// A nil trace cache must not panic and still reports zero counters,
	// and no tenants must not panic either.
	sb.Reset()
	m.WriteText(&sb, nil, 0, nil, nil)
	if !strings.Contains(sb.String(), "gcsimd_trace_cache_hits_total 0") {
		t.Error("nil trace cache dropped the hit counter")
	}
}

// TestRequeuedJobRunsOnAnIdleWorker: a re-queued job enters the backlog
// only after its run has left s.running, so an idle pool worker that pops
// the entry at once runs it rather than dropping it as a duplicate. The
// report span's end hook stalls the finishing run to widen that window.
func TestRequeuedJobRunsOnAnIdleWorker(t *testing.T) {
	rec := telemetry.NewSpanRecorder(1024)
	srv, err := New(Config{StateDir: t.TempDir(), Workers: 2, Spans: rec})
	if err != nil {
		t.Fatal(err)
	}
	rec.SetOnEnd(func(sp telemetry.Span) {
		srv.metrics.ObserveSpan(sp)
		if sp.Name == telemetry.StageReport {
			time.Sleep(100 * time.Millisecond)
		}
	})
	srv.Start(context.Background())
	t.Cleanup(srv.Drain)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	cl := NewClient(hs.URL)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// Two configurations and no trace cache: the resumed run commits them
	// from two engine goroutines at once.
	spec := validSpec()
	spec.Workload, spec.Scale = "tc", 1200
	spec.Configs = append(spec.Configs, CacheConfig{SizeBytes: 64 << 10, BlockBytes: 64, Policy: cache.FetchOnWrite})
	job, err := cl.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	// With a pool worker idle no arrival preempts, so pull the trigger
	// directly as soon as the run starts.
	for preempted := false; !preempted; time.Sleep(time.Millisecond) {
		srv.mu.Lock()
		if rj := srv.running[job.ID]; rj != nil {
			rj.preempt(core.ErrPreempted)
			preempted = true
		}
		srv.mu.Unlock()
	}
	term, err := cl.Stream(ctx, job.ID, nil)
	if err != nil {
		t.Fatalf("re-queued job never finished: %v", err)
	}
	final, err := cl.Job(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if term.State != StateDone || final.Preemptions != 1 || len(final.Results) != len(spec.Configs) {
		t.Fatalf("job ended %s with %d results after %d preemptions, want done with %d after 1",
			term.State, len(final.Results), final.Preemptions, len(spec.Configs))
	}
}
