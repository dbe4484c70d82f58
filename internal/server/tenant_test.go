package server

// Unit tests for the admission layer's internals: tenants-config
// validation, the pool's priority dispatch, the event hub's
// per-subscriber drop accounting, and the sharded store under
// concurrent creates and a reopen.

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func writeTenantsFile(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tenants.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadTenants(t *testing.T) {
	valid := `{"tenants": [
		{"name": "acme", "key": "k-acme", "max_queued": 4},
		{"name": "zen", "key": "k-zen"}
	]}`
	reg, err := LoadTenants(writeTenantsFile(t, valid))
	if err != nil {
		t.Fatal(err)
	}
	if reg.Open() {
		t.Error("a loaded registry must not be open")
	}
	if tn, ok := reg.Authenticate("k-acme"); !ok || tn.Name() != "acme" {
		t.Errorf("Authenticate(k-acme) = %v, %v", tn.Name(), ok)
	}
	if _, ok := reg.Authenticate("nope"); ok {
		t.Error("unknown key authenticated")
	}
	if tn, ok := reg.Authenticate("k-zen"); !ok || tn.Name() != "zen" {
		t.Errorf("Authenticate(k-zen) = %v, %v", tn.Name(), ok)
	}

	bad := []struct {
		name, body, wantErr string
	}{
		{"empty", `{"tenants": []}`, "no tenants"},
		{"no name", `{"tenants": [{"key": "k"}]}`, "no name"},
		{"no key", `{"tenants": [{"name": "a"}]}`, "no key"},
		{"dup name", `{"tenants": [{"name": "a", "key": "k1"}, {"name": "a", "key": "k2"}]}`, "duplicate tenant name"},
		{"dup key", `{"tenants": [{"name": "a", "key": "k"}, {"name": "b", "key": "k"}]}`, "key"},
		{"removed field", `{"tenants": [{"name": "a", "key": "k", "max_priority": "urgent"}]}`, "unknown field"},
		{"negative limit", `{"tenants": [{"name": "a", "key": "k", "max_queued": -1}]}`, "negative"},
		{"unknown field", `{"tenants": [{"name": "a", "key": "k", "quota": 3}]}`, "unknown field"},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			_, err := LoadTenants(writeTenantsFile(t, tc.body))
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("LoadTenants = %v, want error mentioning %q", err, tc.wantErr)
			}
		})
	}
}

func TestNilTenantIsUnlimited(t *testing.T) {
	var tn *Tenant
	if tn.Name() != "" {
		t.Errorf("nil tenant name = %q", tn.Name())
	}
}

func TestPoolPriorityOrderAndConcurrencyGate(t *testing.T) {
	var mu sync.Mutex
	var order []string
	done := make(chan struct{}, 16)
	run := func(ctx context.Context, id string, queuedAt time.Time, class int) {
		mu.Lock()
		order = append(order, id)
		mu.Unlock()
		done <- struct{}{}
	}
	p := newPool(run)
	now := time.Now()
	// Submitted in inverse priority order before any worker starts; the
	// heap must dispatch interactive first, bulk last, FIFO within class.
	for _, sub := range []struct {
		id    string
		class int
	}{
		{"bulk-1", ClassBulk}, {"batch-1", ClassBatch}, {"bulk-2", ClassBulk},
		{"int-1", ClassInteractive}, {"batch-2", ClassBatch}, {"int-2", ClassInteractive},
	} {
		if err := p.submit(sub.id, "", sub.class, now); err != nil {
			t.Fatal(err)
		}
	}
	if d := p.depth(); d != 6 {
		t.Fatalf("depth = %d, want 6", d)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p.start(ctx, 1)
	for i := 0; i < 6; i++ {
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("pool stalled")
		}
	}
	p.drain()
	want := []string{"int-1", "int-2", "batch-1", "batch-2", "bulk-1", "bulk-2"}
	mu.Lock()
	defer mu.Unlock()
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("dispatch order = %v, want %v", order, want)
		}
	}
}

func TestEventHubSlowSubscriberDrops(t *testing.T) {
	var slow atomic.Uint64
	h := newEventHub(nil, func(n uint64) { slow.Add(n) })
	_, ch, cancel := h.subscribe("j1")
	defer cancel()
	const extra = 10
	for i := 0; i < subChanCap+extra; i++ {
		h.publish(Event{Type: "config", Job: "j1", Done: i})
	}
	if got := slow.Load(); got != extra {
		t.Errorf("slow_subscriber drops = %d, want %d", got, extra)
	}
	if len(ch) != subChanCap {
		t.Errorf("subscriber buffer holds %d events, want %d", len(ch), subChanCap)
	}
}

func TestStoreConcurrentCreateAndReopen(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	j, err := st.Create(validSpec(), "acme", "2026-01-01T00:00:01Z")
	if err != nil {
		t.Fatal(err)
	}

	// A reopen finds the job in its shard.
	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := st2.Get(j.ID); !ok || got.Tenant != "acme" {
		t.Fatalf("job lost on reopen: ok=%v job=%+v", ok, got)
	}
	if _, err := os.Stat(filepath.Join(st2.JobDir(j.ID), "job.json")); err != nil {
		t.Errorf("job.json missing from its shard: %v", err)
	}

	// Concurrent shard access is safe.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := st2.Create(validSpec(), "acme", "2026-01-01T00:00:02Z"); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if n := len(st2.List()); n != 9 {
		t.Errorf("List() = %d jobs, want 9", n)
	}
}
