package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"testing"
	"time"

	"gcsim/internal/castore"
	"gcsim/internal/gc"
	"gcsim/internal/telemetry"
	"gcsim/internal/workloads"
)

// installTraceCache points the engine at a fresh cache directory for the
// duration of the test.
func installTraceCache(t *testing.T) *TraceCache {
	t.Helper()
	tc, err := NewTraceCache(filepath.Join(t.TempDir(), "traces"))
	if err != nil {
		t.Fatal(err)
	}
	SetTraceCache(tc)
	t.Cleanup(func() { SetTraceCache(nil) })
	return tc
}

func setParallelismForTest(t *testing.T, n int) {
	t.Helper()
	old := Parallelism()
	SetParallelism(n)
	t.Cleanup(func() { SetParallelism(old) })
}

// Golden equivalence: a sweep driven by a recorded-then-replayed trace
// must be indistinguishable from a live sweep — bitwise-identical cache
// statistics and identical run-level results — with the bank inline
// (parallelism 1) and sharded.
func TestTraceCacheSweepMatchesLive(t *testing.T) {
	w, err := workloads.ByName("tc")
	if err != nil {
		t.Fatal(err)
	}
	cfgs := gcSweepConfigs()

	for _, par := range []int{1, 4} {
		setParallelismForTest(t, par)

		SetTraceCache(nil)
		live, err := RunSweep(context.Background(), w, w.SmallScale, gc.NewCheney(256<<10), cfgs)
		if err != nil {
			t.Fatal(err)
		}

		installTraceCache(t)
		// First trace-cached sweep records (one VM run) then replays;
		// the second replays from the cache alone.
		for _, pass := range []string{"record+replay", "pure replay"} {
			sw, err := RunSweep(context.Background(), w, w.SmallScale, gc.NewCheney(256<<10), cfgs)
			if err != nil {
				t.Fatalf("par=%d %s: %v", par, pass, err)
			}
			if !reflect.DeepEqual(sw.Stats, live.Stats) {
				t.Errorf("par=%d %s: cache stats differ from live sweep", par, pass)
			}
			lr, rr := live.Run, sw.Run
			if rr.Checksum != lr.Checksum || rr.Insns != lr.Insns || rr.GCInsns != lr.GCInsns ||
				rr.Collector != lr.Collector || rr.Workload != lr.Workload {
				t.Errorf("par=%d %s: run results differ:\nlive:   %+v\nreplay: %+v", par, pass, lr, rr)
			}
			if rr.GCStats != lr.GCStats {
				t.Errorf("par=%d %s: GC stats differ", par, pass)
			}
			if rr.Counters != lr.Counters {
				t.Errorf("par=%d %s: memory counters differ", par, pass)
			}
		}
		SetTraceCache(nil)
	}
}

// The headline acceptance property: with a trace cache installed, a
// per-config resilient sweep over N configurations executes the VM exactly
// once — every configuration beyond the recording replays the trace.
func TestTraceCachePerConfigSweepRunsVMOnce(t *testing.T) {
	w, err := workloads.ByName("tc")
	if err != nil {
		t.Fatal(err)
	}
	cfgs := gcSweepConfigs()
	if len(cfgs) < 4 {
		t.Fatalf("want a multi-config sweep, got %d", len(cfgs))
	}
	setParallelismForTest(t, 4)

	SetTraceCache(nil)
	live, err := RunSweep(context.Background(), w, w.SmallScale, gc.NewCheney(256<<10), cfgs)
	if err != nil {
		t.Fatal(err)
	}

	installTraceCache(t)
	before := VMRunsStarted()
	sweep, err := RunSweepPerConfig(context.Background(), w, w.SmallScale, cfgs, PerConfigSweepOpts{
		MakeCollector: func() gc.Collector { return gc.NewCheney(256 << 10) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := VMRunsStarted() - before; got != 1 {
		t.Errorf("per-config sweep started %d VM runs, want exactly 1", got)
	}
	if len(sweep.Results) != len(cfgs) {
		t.Fatalf("%d results, want %d", len(sweep.Results), len(cfgs))
	}
	for _, r := range sweep.Results {
		if r.CacheStats != live.Stats[r.Config] {
			t.Errorf("config %s: replayed stats differ from live", r.Config)
		}
		if r.Checksum != live.Run.Checksum || r.Insns != live.Run.Insns || r.GCInsns != live.Run.GCInsns {
			t.Errorf("config %s: run results differ from live", r.Config)
		}
	}
}

// Telemetry equivalence: replayed sweeps take periodic cache snapshots at
// the same instruction counts as live ones (the trace carries each chunk's
// clock stamp), and the run record carries trace provenance.
func TestTraceCacheSnapshotAndProvenance(t *testing.T) {
	w, err := workloads.ByName("tc")
	if err != nil {
		t.Fatal(err)
	}
	cfgs := gcSweepConfigs()[:2]

	record := func(t *testing.T) []*telemetry.RunRecord {
		sess := telemetry.NewSession("test", 1)
		sess.SnapshotInsns = 200_000
		EnableTelemetry(sess)
		defer EnableTelemetry(nil)
		if _, err := RunSweep(context.Background(), w, w.SmallScale, gc.NewCheney(256<<10), cfgs); err != nil {
			t.Fatal(err)
		}
		return sess.Records()
	}

	// The reference: a live sweep with the lanes inline.
	setParallelismForTest(t, 1)
	SetTraceCache(nil)
	liveRecs := record(t)
	if len(liveRecs) != 1 {
		t.Fatalf("live: %d records, want 1", len(liveRecs))
	}
	if liveRecs[0].Trace != nil {
		t.Errorf("live record has trace provenance %+v, want none", liveRecs[0].Trace)
	}

	// Parallelism 3 shards both the live and the replayed bank; neither may
	// move a snapshot or a cache record.
	for _, par := range []int{1, 3} {
		t.Run(fmt.Sprintf("parallelism=%d", par), func(t *testing.T) {
			setParallelismForTest(t, par)
			SetTraceCache(nil)
			if recs := record(t); !reflect.DeepEqual(recs[0].Caches, liveRecs[0].Caches) {
				t.Errorf("live cache records differ from the inline reference:\ngot:  %+v\nwant: %+v",
					recs[0].Caches, liveRecs[0].Caches)
			}

			installTraceCache(t)
			recordRecs := record(t) // recording run + replayed sweep
			if len(recordRecs) != 2 {
				t.Fatalf("record pass: %d records, want 2 (recording run + replay)", len(recordRecs))
			}
			rec, rep := recordRecs[0], recordRecs[1]
			if rec.Trace == nil || rec.Trace.Source != "record" {
				t.Fatalf("recording run provenance = %+v, want source=record", rec.Trace)
			}
			if rep.Trace == nil || rep.Trace.Source != "replay" {
				t.Fatalf("replayed run provenance = %+v, want source=replay", rep.Trace)
			}
			if rec.Trace.SHA256 == "" || rec.Trace.SHA256 != rep.Trace.SHA256 {
				t.Errorf("trace hashes: record %q vs replay %q", rec.Trace.SHA256, rep.Trace.SHA256)
			}
			if rep.Trace.Refs == 0 || rep.Trace.Refs != rec.Trace.Refs {
				t.Errorf("trace ref counts: record %d vs replay %d", rec.Trace.Refs, rep.Trace.Refs)
			}

			// Snapshots: identical insns_at sequences, cache by cache.
			if len(rep.Caches) != len(liveRecs[0].Caches) {
				t.Fatalf("replay has %d cache records, live %d", len(rep.Caches), len(liveRecs[0].Caches))
			}
			for i, lc := range liveRecs[0].Caches {
				rc := rep.Caches[i]
				if !reflect.DeepEqual(lc, rc) {
					t.Errorf("cache record %d (%s) differs between live and replay:\nlive:   %+v\nreplay: %+v",
						i, lc.Config.Name, lc, rc)
				}
			}

			// The record is still schema-valid with the trace block attached.
			for _, r := range recordRecs {
				data, err := json.Marshal(r)
				if err != nil {
					t.Fatal(err)
				}
				if err := telemetry.ValidateRecordJSON(data); err != nil {
					t.Errorf("record fails schema validation: %v", err)
				}
			}
		})
	}
}

// The /metrics counters behind the fused path are process-wide, so the
// test asserts deltas: every trace-cached sweep takes the fused path and
// decodes at least one frame.
func TestFusedReplayCounters(t *testing.T) {
	w, err := workloads.ByName("tc")
	if err != nil {
		t.Fatal(err)
	}
	cfgs := gcSweepConfigs()
	setParallelismForTest(t, 1)
	installTraceCache(t)

	before := FusedStats()
	// First sweep records then replays; the second replays from the cache
	// alone. Both replays must take the fused path.
	for pass := 0; pass < 2; pass++ {
		if _, err := RunSweep(context.Background(), w, w.SmallScale, gc.NewCheney(256<<10), cfgs); err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
	}
	after := FusedStats()

	if got := after.FusedSweeps - before.FusedSweeps; got != 2 {
		t.Errorf("fused sweeps: got %d, want 2", got)
	}
	if got := after.DecodeOnceFrames - before.DecodeOnceFrames; got == 0 {
		t.Error("decode-once frames did not advance across two fused sweeps")
	}
}

// cancelingBlobs is a directory blob store whose ingests cancel a context
// at their first write. The trace writer's first write comes when its
// encoder flushes the first full output buffer, so the recording is
// cancelled mid-run with frames still queued behind it.
type cancelingBlobs struct {
	*castore.Dir
	cancel context.CancelFunc
}

func (s cancelingBlobs) Ingest(ctx context.Context) (castore.BlobWriter, error) {
	w, err := s.Dir.Ingest(ctx)
	if err != nil {
		return nil, err
	}
	return cancelingBlobWriter{w, s.cancel}, nil
}

type cancelingBlobWriter struct {
	castore.BlobWriter
	cancel context.CancelFunc
}

func (w cancelingBlobWriter) Write(p []byte) (int, error) {
	w.cancel()
	return w.BlobWriter.Write(p)
}

// A recording cancelled mid-run fails with the cancellation, files no
// sidecar, leaves no blob or temp file behind, and stops the trace
// writer's encoder goroutine.
func TestTraceCacheRecordCancelled(t *testing.T) {
	w, err := workloads.ByName("tc")
	if err != nil {
		t.Fatal(err)
	}
	setParallelismForTest(t, 1)
	dir := filepath.Join(t.TempDir(), "traces")
	blobs, err := castore.NewDir(filepath.Join(dir, "blobs"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tc := NewTraceCacheWith(cancelingBlobs{blobs, cancel}, &dirTraceIndex{dir: dir})

	baseline := runtime.NumGoroutine()
	_, err = runSweepWith(ctx, tc, w, w.SmallScale, gc.NewCheney(256<<10), gcSweepConfigs()[:2])
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled recording returned %v, want an error matching context.Canceled", err)
	}
	if st := tc.Stats(); st.Recorded != 0 {
		t.Errorf("recorded %d traces, want 0", st.Recorded)
	}
	for _, d := range []string{dir, blobs.Root()} {
		entries, err := os.ReadDir(d)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if !e.IsDir() {
				t.Errorf("cancelled recording left %s in %s", e.Name(), d)
			}
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines after the cancelled recording, %d before:\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// The trace.record span carries the trace writer's own numbers: refs and
// bytes equal the sidecar's, and the encoder and hand-off clocks are set.
func TestTraceRecordSpanAttrs(t *testing.T) {
	w, err := workloads.ByName("tc")
	if err != nil {
		t.Fatal(err)
	}
	spans := telemetry.NewSpanRecorder(0)
	SetSpans(spans)
	t.Cleanup(func() { SetSpans(nil) })
	tc := installTraceCache(t)
	col := gc.NewCheney(256 << 10)
	identity := collectorIdentity(col)
	if _, err := RunSweep(context.Background(), w, w.SmallScale, col, gcSweepConfigs()[:2]); err != nil {
		t.Fatal(err)
	}
	meta, err := tc.index.Load(traceKey(w.Name, w.SmallScale, identity))
	if err != nil || meta == nil {
		t.Fatalf("sidecar: %v, %v", meta, err)
	}
	var rec *telemetry.Span
	for _, sp := range spans.Spans() {
		if sp.Name == telemetry.StageTraceRecord {
			rec = &sp
		}
	}
	if rec == nil {
		t.Fatal("no trace.record span")
	}
	if got, want := rec.Attrs["refs"], fmt.Sprint(meta.Refs); got != want {
		t.Errorf("span refs = %q, sidecar Refs = %s", got, want)
	}
	if got, want := rec.Attrs["bytes"], fmt.Sprint(meta.TraceBytes); got != want {
		t.Errorf("span bytes = %q, sidecar TraceBytes = %s", got, want)
	}
	for _, k := range []string{"encode_s", "handoff_s"} {
		v, err := strconv.ParseFloat(rec.Attrs[k], 64)
		if err != nil || v < 0 {
			t.Errorf("span %s = %q, want a non-negative number of seconds", k, rec.Attrs[k])
		}
	}
	if enc, _ := strconv.ParseFloat(rec.Attrs["encode_s"], 64); enc == 0 {
		t.Error("span encode_s = 0 for a recording of a whole run")
	}
}
