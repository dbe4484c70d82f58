package core

import (
	"context"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"gcsim/internal/castore"
	"gcsim/internal/gc"
	"gcsim/internal/traceio"
	"gcsim/internal/vm"
	"gcsim/internal/workloads"
)

// Tests for the pluggable storage under the trace cache: backend
// equivalence (dir vs mem vs COW compositions) and the cluster
// record-exactly-once claim protocol.

func traceTestWorkload(t *testing.T) *workloads.Workload {
	t.Helper()
	w, err := workloads.ByName("tc")
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestTraceCacheBackendEquivalence: the same sweep through a dir-backed
// and a mem-backed cache must produce identical statistics, and both
// must record exactly once.
func TestTraceCacheBackendEquivalence(t *testing.T) {
	w := traceTestWorkload(t)
	cfgs := gcSweepConfigs()
	setParallelismForTest(t, 2)

	caches := map[string]*TraceCache{
		"mem": NewTraceCacheWith(castore.NewMem(), NewMemTraceIndex()),
	}
	dirTC, err := NewTraceCache(filepath.Join(t.TempDir(), "traces"))
	if err != nil {
		t.Fatal(err)
	}
	caches["dir"] = dirTC

	var ref *SweepResult
	for name, tc := range caches {
		sweep, err := RunSweepPerConfig(context.Background(), w, w.SmallScale, cfgs, PerConfigSweepOpts{
			MakeCollector: func() gc.Collector { return gc.NewCheney(256 << 10) },
			TraceCache:    tc,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(sweep.Results) != len(cfgs) {
			t.Fatalf("%s: %d results, want %d", name, len(sweep.Results), len(cfgs))
		}
		st := tc.Stats()
		if st.Recorded != 1 {
			t.Errorf("%s: recorded %d traces, want 1", name, st.Recorded)
		}
		sw, err := runSweepWith(context.Background(), tc, w, w.SmallScale, gc.NewCheney(256<<10), cfgs)
		if err != nil {
			t.Fatalf("%s replay: %v", name, err)
		}
		if ref == nil {
			ref = sw
			continue
		}
		if !reflect.DeepEqual(sw.Stats, ref.Stats) {
			t.Errorf("%s: stats differ across backends", name)
		}
		if sw.Run.Checksum != ref.Run.Checksum || sw.Run.Insns != ref.Run.Insns {
			t.Errorf("%s: run results differ across backends", name)
		}
	}
}

// TestTraceCacheRejectsNonV2Blob: the cache only ever holds v2 traces, so
// an entry whose blob is anything else — a format-v1 capture or junk —
// behind a valid sidecar is a corrupt entry. The sweep must fail naming
// the blob, without replaying it some other way or re-running the VM.
func TestTraceCacheRejectsNonV2Blob(t *testing.T) {
	w := traceTestWorkload(t)
	col := gc.NewCheney(256 << 10)
	identity := gc.Identity(col)
	key := traceKey(w.Name, w.SmallScale, identity)

	for name, blob := range map[string]string{
		"v1":   "GCSIMTRACE1\n\x01\x02\x00\x04",
		"junk": "not a trace at all",
	} {
		t.Run(name, func(t *testing.T) {
			blobs := castore.NewMem()
			id, err := blobs.Post(context.Background(), []byte(blob))
			if err != nil {
				t.Fatal(err)
			}
			index := NewMemTraceIndex()
			if err := index.Save(key, &TraceMeta{
				Schema:        TraceMetaSchema,
				Workload:      w.Name,
				Scale:         w.SmallScale,
				Identity:      identity,
				FormatVersion: traceio.FormatVersion,
				VMCodeShape:   vm.CodeShapeVersion,
				SHA256:        id.String(),
				Refs:          4,
			}); err != nil {
				t.Fatal(err)
			}
			tc := NewTraceCacheWith(blobs, index)
			runs := VMRunsStarted()
			_, err = runSweepWith(context.Background(), tc, w, w.SmallScale, col, gcSweepConfigs())
			if err == nil || !strings.Contains(err.Error(), id.String()) {
				t.Fatalf("sweep over a %s blob: err = %v, want a corrupt-entry error naming %s", name, err, id)
			}
			if VMRunsStarted() != runs {
				t.Error("a corrupt entry fell back to running the VM")
			}
			if st := tc.Stats(); st.Hits != 1 || st.Recorded != 0 {
				t.Errorf("stats %+v, want one hit and no recording", st)
			}
		})
	}
}

// fakeRemoteIndex is an in-process RemoteTraceIndex: a coordinator-side
// table with the granted/recorded/pending protocol.
type fakeRemoteIndex struct {
	mu      sync.Mutex
	entries map[string]*TraceMeta
	leases  map[string]bool
	claims  int
}

func newFakeRemoteIndex() *fakeRemoteIndex {
	return &fakeRemoteIndex{entries: make(map[string]*TraceMeta), leases: make(map[string]bool)}
}

func (f *fakeRemoteIndex) Claim(ctx context.Context, key string) (bool, *TraceMeta, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.claims++
	if meta := f.entries[key]; meta != nil {
		return false, meta, nil
	}
	if f.leases[key] {
		return false, nil, nil
	}
	f.leases[key] = true
	return true, nil, nil
}

func (f *fakeRemoteIndex) Publish(ctx context.Context, key string, meta *TraceMeta) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.entries[key] = meta
	delete(f.leases, key)
	return nil
}

// TestTraceCacheClusterExactlyOnce: two caches sharing a base store and
// a remote index — the archetypal two-worker fabric — record exactly
// once between them; the second fetches by hash and replays to
// identical results.
func TestTraceCacheClusterExactlyOnce(t *testing.T) {
	w := traceTestWorkload(t)
	cfgs := gcSweepConfigs()
	setParallelismForTest(t, 2)

	shared := castore.NewMem() // stands in for the coordinator's fetch endpoint
	remote := newFakeRemoteIndex()

	mkNode := func() *TraceCache {
		tc := NewTraceCacheWith(castore.NewMem(), NewMemTraceIndex())
		tc.JoinCluster(shared, remote)
		return tc
	}
	nodeA, nodeB := mkNode(), mkNode()

	swA, err := runSweepWith(context.Background(), nodeA, w, w.SmallScale, gc.NewCheney(256<<10), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	// Replicate A's published blobs into the shared store, by the
	// address each publish carries, as the coordinator does.
	for _, meta := range remote.entries {
		id, err := castore.ParseID(meta.SHA256)
		if err != nil {
			t.Fatal(err)
		}
		data, err := nodeA.LocalBlobs().Get(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := shared.Post(context.Background(), data); err != nil {
			t.Fatal(err)
		}
	}

	swB, err := runSweepWith(context.Background(), nodeB, w, w.SmallScale, gc.NewCheney(256<<10), cfgs)
	if err != nil {
		t.Fatal(err)
	}

	stA, stB := nodeA.Stats(), nodeB.Stats()
	if total := stA.Recorded + stB.Recorded; total != 1 {
		t.Errorf("fleet recorded %d traces, want exactly 1", total)
	}
	if stB.RemoteFetches != 1 {
		t.Errorf("node B remote fetches = %d, want 1", stB.RemoteFetches)
	}
	if !reflect.DeepEqual(swA.Stats, swB.Stats) {
		t.Error("stats differ between recording node and fetching node")
	}
	if swA.Run.Checksum != swB.Run.Checksum || swA.Run.Insns != swB.Run.Insns {
		t.Error("run results differ between nodes")
	}

	// A third sweep on B is a pure local hit: no new claims beyond the
	// poll already paid.
	claims := remote.claims
	if _, err := runSweepWith(context.Background(), nodeB, w, w.SmallScale, gc.NewCheney(256<<10), cfgs); err != nil {
		t.Fatal(err)
	}
	if remote.claims != claims {
		t.Errorf("local hit still went to the remote index (%d new claims)", remote.claims-claims)
	}
}

// TestTraceCacheClusterValidatesFetchedMeta: a meta from the cluster
// index describing a different workload must be rejected, not replayed.
func TestTraceCacheClusterValidatesFetchedMeta(t *testing.T) {
	w := traceTestWorkload(t)
	setParallelismForTest(t, 1)

	remote := newFakeRemoteIndex()
	key := traceKey(w.Name, w.SmallScale, gc.Identity(gc.NewCheney(256<<10)))
	remote.entries[key] = &TraceMeta{Schema: TraceMetaSchema, Workload: "impostor"}

	tc := NewTraceCacheWith(castore.NewMem(), NewMemTraceIndex())
	tc.JoinCluster(castore.NewMem(), remote)
	_, err := runSweepWith(context.Background(), tc, w, w.SmallScale, gc.NewCheney(256<<10), gcSweepConfigs())
	if err == nil {
		t.Fatal("mismatched cluster meta accepted")
	}
}

// TestTraceCachePendingClaimPolls: while another node holds the
// recording lease the cache polls rather than recording a duplicate.
type pendingThenRecorded struct {
	fake  *fakeRemoteIndex
	until int // claims to deny before resolving
}

func (p *pendingThenRecorded) Claim(ctx context.Context, key string) (bool, *TraceMeta, error) {
	p.fake.mu.Lock()
	p.fake.claims++
	n := p.fake.claims
	p.fake.mu.Unlock()
	if n <= p.until {
		return false, nil, nil // someone else is recording
	}
	return true, nil, nil
}

func (p *pendingThenRecorded) Publish(ctx context.Context, key string, meta *TraceMeta) error {
	return p.fake.Publish(ctx, key, meta)
}

func TestTraceCachePendingClaimPolls(t *testing.T) {
	w := traceTestWorkload(t)
	setParallelismForTest(t, 1)

	remote := &pendingThenRecorded{fake: newFakeRemoteIndex(), until: 2}
	tc := NewTraceCacheWith(castore.NewMem(), NewMemTraceIndex())
	tc.JoinCluster(castore.NewMem(), remote)

	if _, err := runSweepWith(context.Background(), tc, w, w.SmallScale, gc.NewCheney(256<<10), gcSweepConfigs()); err != nil {
		t.Fatal(err)
	}
	if remote.fake.claims <= remote.until {
		t.Errorf("claims = %d, want > %d (polled through the pending lease)", remote.fake.claims, remote.until)
	}
	if tc.Stats().Recorded != 1 {
		t.Errorf("recorded = %d, want 1 after winning the lease", tc.Stats().Recorded)
	}
}

// TestTraceKeyFor pins the exported key derivation to the internal one.
func TestTraceKeyFor(t *testing.T) {
	id := gc.Identity(gc.NewCheney(256 << 10))
	if got, want := TraceKeyFor("tc", 3, id), traceKey("tc", 3, id); got != want {
		t.Fatalf("TraceKeyFor = %s, want %s", got, want)
	}
	if len(TraceKeyFor("tc", 3, id)) != 24 {
		t.Fatal("trace keys must stay 24 hex chars (index filenames depend on it)")
	}
}
