package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gcsim/internal/cache"
	"gcsim/internal/castore"
	"gcsim/internal/gc"
	"gcsim/internal/telemetry"
	"gcsim/internal/workloads"
)

// stripGrid is a filtering sweep of mixed block sizes and policies: its
// bank's filter has 64-byte blocks and 32 KiB.
func stripGrid() []cache.Config {
	var cfgs []cache.Config
	for i, size := range []int{32 << 10, 64 << 10, 128 << 10, 256 << 10} {
		for j, block := range []int{16, 64} {
			policy := cache.WriteValidate
			if (i+j)%2 == 1 {
				policy = cache.FetchOnWrite
			}
			cfgs = append(cfgs, cache.Config{SizeBytes: size, BlockBytes: block, Policy: policy})
		}
	}
	return cfgs
}

// replaySweep is what one trace-cached sweep showed: its Stats, the
// replay span's stream and the simulate span's strip counts.
type replaySweep struct {
	stats         map[cache.Config]cache.Stats
	stream        string
	offered, kept string
}

// sweepTraced runs one sweep of tc's SmallScale Cheney trace through tc
// (nil: live) with a span recorder installed. A failed sweep still
// reports the stream its replay read.
func sweepTraced(t *testing.T, ctx context.Context, tc *TraceCache, cfgs []cache.Config) (replaySweep, error) {
	t.Helper()
	return sweepWith(t, ctx, tc, gc.NewCheney(256<<10), cfgs)
}

// sweepWith is sweepTraced under another collector.
func sweepWith(t *testing.T, ctx context.Context, tc *TraceCache, col gc.Collector, cfgs []cache.Config) (replaySweep, error) {
	t.Helper()
	w, err := workloads.ByName("tc")
	if err != nil {
		t.Fatal(err)
	}
	spans := telemetry.NewSpanRecorder(0)
	SetSpans(spans)
	defer SetSpans(nil)
	sw, err := runSweepWith(ctx, tc, w, w.SmallScale, col, cfgs)
	var out replaySweep
	if sw != nil {
		out.stats = sw.Stats
	}
	for _, sp := range spans.Spans() {
		switch sp.Name {
		case telemetry.StageReplay:
			out.stream = sp.Attrs["stream"]
		case telemetry.StageSimulate:
			out.offered, out.kept = sp.Attrs["strip_offered"], sp.Attrs["strip_kept"]
		}
	}
	return out, err
}

// newDirTraceCache opens a trace cache in a fresh directory.
func newDirTraceCache(t *testing.T) *TraceCache {
	t.Helper()
	tc, err := NewTraceCache(filepath.Join(t.TempDir(), "traces"))
	if err != nil {
		t.Fatal(err)
	}
	return tc
}

// cacheFiles lists the files of a dir-backed trace cache: its sidecars
// and its blobs, temp files included.
func cacheFiles(t *testing.T, tc *TraceCache) (sidecars, blobs []string) {
	t.Helper()
	for _, d := range []struct {
		dir string
		out *[]string
	}{{tc.Dir(), &sidecars}, {filepath.Join(tc.Dir(), "blobs"), &blobs}} {
		entries, err := os.ReadDir(d.dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if !e.IsDir() {
				*d.out = append(*d.out, e.Name())
			}
		}
	}
	return sidecars, blobs
}

// stripEntry loads the stripped trace's entry of tc's SmallScale Cheney
// trace for cfgs' filter geometry, or nil.
func stripEntry(t *testing.T, tc *TraceCache, cfgs []cache.Config) *TraceMeta {
	t.Helper()
	w, _ := workloads.ByName("tc")
	meta, err := tc.index.Load(traceKey(w.Name, w.SmallScale, collectorIdentity(gc.NewCheney(256<<10))))
	if err != nil || meta == nil {
		t.Fatalf("trace sidecar: %v, %v", meta, err)
	}
	block, capacity, ok := cache.StripGeometry(cfgs)
	if !ok {
		t.Fatalf("%d configs do not filter", len(cfgs))
	}
	sm, err := tc.index.Load(stripKey(meta.SHA256, block, capacity))
	if err != nil {
		t.Fatal(err)
	}
	return sm
}

// Three sweeps of one filtering grid: the first records the trace,
// replays it and builds the stripped trace, and the second and third
// replay the stripped trace. All three match a live sweep, at parallelism
// 1 and 2, and report the same strip counts.
func TestStrippedTraceSweepsMatchLive(t *testing.T) {
	cfgs := stripGrid()
	for _, par := range []int{1, 2} {
		t.Run(fmt.Sprintf("parallel=%d", par), func(t *testing.T) {
			setParallelismForTest(t, par)
			live, err := sweepTraced(t, context.Background(), nil, cfgs)
			if err != nil {
				t.Fatal(err)
			}
			tc := newDirTraceCache(t)
			var first replaySweep
			for i, want := range []string{"full", "stripped", "stripped"} {
				got, err := sweepTraced(t, context.Background(), tc, cfgs)
				if err != nil {
					t.Fatalf("sweep %d: %v", i+1, err)
				}
				if !reflect.DeepEqual(got.stats, live.stats) {
					t.Errorf("sweep %d (%s stream): stats differ from the live sweep", i+1, got.stream)
				}
				if got.stream != want {
					t.Errorf("sweep %d: stream=%q, want %q", i+1, got.stream, want)
				}
				if i == 0 {
					first = got
					if first.offered == "0" || first.offered == first.kept {
						t.Errorf("strip_offered = %s, strip_kept = %s: the grid does not filter", first.offered, first.kept)
					}
				} else if got.offered != first.offered || got.kept != first.kept {
					t.Errorf("sweep %d: strip_offered = %s, strip_kept = %s; sweep 1: %s, %s",
						i+1, got.offered, got.kept, first.offered, first.kept)
				}
				if stripEntry(t, tc, cfgs) == nil {
					t.Errorf("after sweep %d: no stripped entry", i+1)
				}
			}
			sm := stripEntry(t, tc, cfgs)
			if si := sm.Strip; si.Rule != cache.StripRule || si.BlockBytes != 64 || si.CapacityBytes != 32<<10 || fmt.Sprint(sm.Refs) != first.kept {
				t.Errorf("stripped entry %+v, %+v: want the 64-byte, 32 KiB filter's %s survivors under strip rule %d",
					sm, si, first.kept, cache.StripRule)
			}
			if st := tc.Stats(); st.Hits != 2 || st.Misses != 1 || st.Recorded != 1 {
				t.Errorf("trace cache stats %+v: want 2 hits, 1 miss, 1 recording", st)
			}
		})
	}
}

// Each filter geometry has its own stripped trace: a grid's survivors are
// replayed only by a bank of the same coarsest block and smallest cache.
// Sweeping the larger capacity first means a smaller one that took its
// survivors would lose the misses only its smaller caches take.
func TestStrippedTracePerGeometry(t *testing.T) {
	setParallelismForTest(t, 2)
	var large, small, fine []cache.Config
	for _, size := range []int{64 << 10, 128 << 10, 256 << 10} {
		large = append(large, cache.Config{SizeBytes: size, BlockBytes: 64})
		small = append(small, cache.Config{SizeBytes: size / 2, BlockBytes: 64})
		fine = append(fine, cache.Config{SizeBytes: size / 2, BlockBytes: 32})
	}
	grids := [][]cache.Config{large, small, fine}
	tc := newDirTraceCache(t)
	if _, err := sweepTraced(t, context.Background(), tc, large[:1]); err != nil { // records
		t.Fatal(err)
	}
	for pass, want := range []string{"full", "stripped"} {
		for _, cfgs := range grids {
			live, err := sweepTraced(t, context.Background(), nil, cfgs)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sweepTraced(t, context.Background(), tc, cfgs)
			if err != nil {
				t.Fatalf("pass %d, %v: %v", pass+1, cfgs, err)
			}
			if !reflect.DeepEqual(got.stats, live.stats) {
				t.Errorf("pass %d, %v (%s stream): stats differ from the live sweep", pass+1, cfgs, got.stream)
			}
			if got.stream != want {
				t.Errorf("pass %d, %v: stream=%q, want %q", pass+1, cfgs, got.stream, want)
			}
		}
	}
	if sidecars, blobs := cacheFiles(t, tc); len(sidecars) != 4 || len(blobs) != 4 {
		t.Errorf("cache holds sidecars %v and blobs %v: want the trace and three stripped traces", sidecars, blobs)
	}
}

// Two runs that record the same bytes, here tc with no collector and
// under a Cheney collector too large to collect, have two traces with one
// blob. A stripped trace belongs to the blob, so a sweep of either trace
// replays the one a sweep of the other built, even the sweep that
// records it.
func TestStrippedTraceSharedByIdenticalTraces(t *testing.T) {
	setParallelismForTest(t, 2)
	cfgs := stripGrid()
	tc := newDirTraceCache(t)
	cols := []func() gc.Collector{func() gc.Collector { return gc.NewNoGC() }, func() gc.Collector { return gc.NewCheney(64 << 20) }}
	wants := [][]string{{"full", "stripped"}, {"stripped", "stripped"}}
	for i, mk := range cols {
		live, err := sweepWith(t, context.Background(), nil, mk(), cfgs)
		if err != nil {
			t.Fatal(err)
		}
		for j, want := range wants[i] {
			got, err := sweepWith(t, context.Background(), tc, mk(), cfgs)
			if err != nil {
				t.Fatalf("%s, sweep %d: %v", collectorIdentity(mk()), j+1, err)
			}
			if !reflect.DeepEqual(got.stats, live.stats) {
				t.Errorf("%s, sweep %d (%s stream): stats differ from the live sweep", collectorIdentity(mk()), j+1, got.stream)
			}
			if got.stream != want {
				t.Errorf("%s, sweep %d: stream=%q, want %q", collectorIdentity(mk()), j+1, got.stream, want)
			}
		}
	}
	if sidecars, blobs := cacheFiles(t, tc); len(sidecars) != 3 || len(blobs) != 2 {
		t.Errorf("cache holds sidecars %v and blobs %v: want two traces of one blob and one stripped trace", sidecars, blobs)
	}
}

// A sweep whose bank takes snapshots, and one whose bank does not filter,
// replay the whole trace every time and file no stripped trace.
func TestStrippedTraceNotForSnapshotsOrUnfiltered(t *testing.T) {
	setParallelismForTest(t, 2)
	snap := func(t *testing.T) {
		sess := telemetry.NewSession("test", 2)
		sess.SnapshotInsns = 200_000
		EnableTelemetry(sess)
		t.Cleanup(func() { EnableTelemetry(nil) })
	}
	cases := []struct {
		name string
		cfgs []cache.Config
		arm  func(t *testing.T)
	}{
		{"snapshots", stripGrid(), snap},
		{"two configs", stripGrid()[:2], func(*testing.T) {}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			c.arm(t)
			tc := newDirTraceCache(t)
			for i := 0; i < 3; i++ {
				got, err := sweepTraced(t, context.Background(), tc, c.cfgs)
				if err != nil {
					t.Fatalf("sweep %d: %v", i+1, err)
				}
				if got.stream != "full" {
					t.Errorf("sweep %d: stream=%q, want full", i+1, got.stream)
				}
			}
			if sidecars, blobs := cacheFiles(t, tc); len(sidecars) != 1 || len(blobs) != 1 {
				t.Errorf("cache holds sidecars %v and blobs %v: want the trace's alone", sidecars, blobs)
			}
		})
	}
}

// cancelingOpens is a directory blob store whose opened blobs, while a
// cancel function is armed, read in small pieces and call it a few pieces
// in, so a replay is cancelled mid-stream.
type cancelingOpens struct {
	*castore.Dir
	cancel *atomic.Pointer[context.CancelFunc] // nil: disarmed
}

func (s cancelingOpens) Open(ctx context.Context, id castore.ID) (io.ReadSeekCloser, error) {
	f, err := s.Dir.Open(ctx, id)
	cancel := s.cancel.Load()
	if err != nil || cancel == nil {
		return f, err
	}
	return &cancelingReader{ReadSeekCloser: f, cancel: *cancel}, nil
}

type cancelingReader struct {
	io.ReadSeekCloser
	cancel context.CancelFunc
	reads  int
}

func (r *cancelingReader) Read(p []byte) (int, error) {
	if r.reads++; r.reads == 4 {
		r.cancel()
	}
	return r.ReadSeekCloser.Read(p[:min(len(p), 4<<10)])
}

// A build whose replay is cancelled, here the first replay, right after
// the trace is recorded, fails the sweep with the cancellation, files no
// stripped trace, leaves no temp blob and stops its writer; its partial
// run record holds every cache's exact counts of the prefix it read. The
// next sweep builds the stripped trace. A cancelled replay of that gives
// its partial record no cache results: the counts of a stripped prefix
// are not known.
func TestStrippedTraceBuildCancelled(t *testing.T) {
	cfgs := stripGrid()
	for _, par := range []int{1, 2} {
		t.Run(fmt.Sprintf("parallel=%d", par), func(t *testing.T) {
			setParallelismForTest(t, par)
			sess := telemetry.NewSession("test", par)
			sess.SnapshotInsns = 0 // keep records without taking the bank off the stripped stream
			EnableTelemetry(sess)
			t.Cleanup(func() { EnableTelemetry(nil) })
			dir := filepath.Join(t.TempDir(), "traces")
			blobs, err := castore.NewDir(filepath.Join(dir, "blobs"))
			if err != nil {
				t.Fatal(err)
			}
			opens := cancelingOpens{blobs, &atomic.Pointer[context.CancelFunc]{}}
			tc := NewTraceCacheWith(opens, &dirTraceIndex{dir: dir})
			tc.dir = dir

			// cut sweeps with the replay cancelled mid-stream, checks the
			// stream it read, and returns the run record it left.
			cut := func(stream string) *telemetry.RunRecord {
				t.Helper()
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				opens.cancel.Store(&cancel)
				defer opens.cancel.Store(nil)
				got, err := sweepTraced(t, ctx, tc, cfgs)
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("cancelled %s replay returned %v, want an error matching context.Canceled", stream, err)
				}
				if got.stream != stream {
					t.Errorf("cancelled replay: stream=%q, want %q", got.stream, stream)
				}
				recs := sess.Records()
				rec := recs[len(recs)-1]
				if rec.Status != telemetry.StatusInterrupted || rec.Trace == nil || rec.Trace.Source != "replay" {
					t.Fatalf("cancelled %s replay left record status=%q trace=%+v, want an interrupted replay", stream, rec.Status, rec.Trace)
				}
				return rec
			}

			baseline := runtime.NumGoroutine()
			rec := cut("full")
			if sm := stripEntry(t, tc, cfgs); sm != nil {
				t.Errorf("cancelled build filed %+v", sm)
			}
			if sidecars, blobs := cacheFiles(t, tc); len(sidecars) != 1 || len(blobs) != 1 || strings.HasSuffix(blobs[0], ".tmp") {
				t.Errorf("cancelled build left sidecars %v and blobs %v: want the trace's alone", sidecars, blobs)
			}
			if len(rec.Caches) != len(cfgs) {
				t.Fatalf("cancelled build's record has %d cache results, want %d", len(rec.Caches), len(cfgs))
			}
			for _, c := range rec.Caches {
				if c.Reads != rec.Caches[0].Reads || c.Writes != rec.Caches[0].Writes ||
					c.Reads+c.Writes == 0 || c.Reads+c.Writes >= rec.Refs {
					t.Errorf("cancelled build's record: %s read %d and wrote %d of the trace's %d program refs; %s read %d and wrote %d",
						c.Config.Name, c.Reads, c.Writes, rec.Refs, rec.Caches[0].Config.Name, rec.Caches[0].Reads, rec.Caches[0].Writes)
				}
			}
			deadline := time.Now().Add(10 * time.Second)
			for runtime.NumGoroutine() > baseline {
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<20)
					t.Fatalf("%d goroutines after the cancelled build, %d before:\n%s",
						runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
				}
				time.Sleep(10 * time.Millisecond)
			}

			if got, err := sweepTraced(t, context.Background(), tc, cfgs); err != nil || got.stream != "full" {
				t.Fatalf("sweep after the cancelled build: stream=%q, %v", got.stream, err)
			}
			if sm := stripEntry(t, tc, cfgs); sm == nil {
				t.Fatal("the sweep after the cancelled build filed no stripped trace")
			}
			if rec := cut("stripped"); len(rec.Caches) != 0 {
				t.Errorf("cancelled stripped replay's record has %d cache results, want none", len(rec.Caches))
			}
		})
	}
}

// A stripped trace is keyed by the strip rule that made it, and an entry
// that names another rule fails the sweep rather than replay survivors
// the current lanes may not agree with.
func TestStrippedTraceOfAnotherRule(t *testing.T) {
	cfgs := stripGrid()
	tc := newDirTraceCache(t)
	if _, err := sweepTraced(t, context.Background(), tc, cfgs); err != nil {
		t.Fatal(err)
	}
	sm := stripEntry(t, tc, cfgs)
	if sm == nil {
		t.Fatal("no stripped trace after a sweep")
	}
	si := *sm.Strip
	si.Rule++
	sm.Strip = &si
	if err := tc.index.Save(stripKey(si.Source, si.BlockBytes, si.CapacityBytes), sm); err != nil {
		t.Fatal(err)
	}
	if _, err := sweepTraced(t, context.Background(), tc, cfgs); err == nil || !strings.Contains(err.Error(), "strip rule") {
		t.Errorf("sweep over an entry of strip rule %d: %v, want a strip rule mismatch", si.Rule, err)
	}
}

// A stripped trace whose blob is missing is a miss, built again; one whose
// blob is corrupt fails the sweep, as a corrupt trace does.
func TestStrippedTraceMissingOrCorruptBlob(t *testing.T) {
	setParallelismForTest(t, 2)
	cfgs := stripGrid()
	tc := newDirTraceCache(t)
	if _, err := sweepTraced(t, context.Background(), tc, cfgs); err != nil {
		t.Fatal(err)
	}
	sm := stripEntry(t, tc, cfgs)
	if sm == nil {
		t.Fatal("no stripped trace after a sweep")
	}
	path := filepath.Join(tc.Dir(), "blobs", sm.SHA256)
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	got, err := sweepTraced(t, context.Background(), tc, cfgs)
	if err != nil {
		t.Fatalf("sweep with the stripped blob missing: %v", err)
	}
	if got.stream != "full" {
		t.Errorf("sweep with the stripped blob missing: stream=%q, want full", got.stream)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("the stripped blob was not built again: %v", err)
	}

	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := sweepTraced(t, context.Background(), tc, cfgs); err == nil {
		t.Fatal("a corrupt stripped blob replayed without an error")
	} else if !strings.Contains(err.Error(), sm.SHA256) && !strings.Contains(err.Error(), "traceio") {
		t.Errorf("corrupt stripped blob: %v", err)
	}
}

// Concurrent sweeps of one grid over a cached trace: at most one builds
// the stripped trace at a time, all match a live sweep, and the cache ends
// with one stripped trace and no temp file. The trace is recorded by a
// sweep of one configuration, whose bank does not filter, so the first
// round is the one that builds.
func TestStrippedTraceConcurrentSweeps(t *testing.T) {
	setParallelismForTest(t, 2)
	cfgs := stripGrid()
	live, err := sweepTraced(t, context.Background(), nil, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	tc := newDirTraceCache(t)
	if _, err := sweepTraced(t, context.Background(), tc, cfgs[:1]); err != nil { // records
		t.Fatal(err)
	}
	w, _ := workloads.ByName("tc")
	for round := 0; round < 2; round++ {
		var wg sync.WaitGroup
		errs := make([]error, 3)
		stats := make([]map[cache.Config]cache.Stats, 3)
		for i := range errs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				sw, err := runSweepWith(context.Background(), tc, w, w.SmallScale, gc.NewCheney(256<<10), cfgs)
				if errs[i] = err; err == nil {
					stats[i] = sw.Stats
				}
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("round %d, sweep %d: %v", round+1, i, err)
			}
			if !reflect.DeepEqual(stats[i], live.stats) {
				t.Errorf("round %d, sweep %d: stats differ from the live sweep", round+1, i)
			}
		}
		if stripEntry(t, tc, cfgs) == nil {
			t.Errorf("round %d: no stripped trace filed", round+1)
		}
	}
	if sidecars, blobs := cacheFiles(t, tc); len(sidecars) != 2 || len(blobs) != 2 {
		t.Errorf("cache holds sidecars %v and blobs %v: want the trace and one stripped trace", sidecars, blobs)
	}
}
