package main

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"gcsim/internal/cache"
	"gcsim/internal/core"
	"gcsim/internal/gc"
	"gcsim/internal/telemetry"
	"gcsim/internal/workloads"
)

// goldenRun executes the gcsim workload path into a buffer, with or
// without a telemetry session, and returns the report bytes plus the
// session (nil when telemetry is off).
func goldenRun(t *testing.T, parallel int, withTelemetry bool, cfgs []cache.Config) ([]byte, *telemetry.Session) {
	t.Helper()
	core.SetParallelism(parallel)
	defer core.SetParallelism(1)
	var sess *telemetry.Session
	if withTelemetry {
		sess = telemetry.NewSession(tool, parallel)
		sess.SnapshotInsns = 100_000
		core.EnableTelemetry(sess)
		defer core.EnableTelemetry(nil)
	}
	col, err := gc.New("cheney", gc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := runWorkload(context.Background(), &out, "nbody", 1, col, cfgs, sweepOpts{}); err != nil {
		t.Fatal(err)
	}
	return out.Bytes(), sess
}

// TestStdoutByteIdenticalWithTelemetry is the golden guarantee of the
// telemetry layer: enabling run records, GC events, and cache snapshots
// must not change a byte of the stdout report, serial or parallel.
func TestStdoutByteIdenticalWithTelemetry(t *testing.T) {
	cfgs := []cache.Config{
		{SizeBytes: 32 << 10, BlockBytes: 32, Policy: cache.WriteValidate},
		{SizeBytes: 64 << 10, BlockBytes: 64, Policy: cache.WriteValidate},
	}
	baseline, _ := goldenRun(t, 1, false, cfgs)
	if len(baseline) == 0 {
		t.Fatal("baseline report is empty")
	}
	for _, parallel := range []int{1, 8} {
		plain, _ := goldenRun(t, parallel, false, cfgs)
		if !bytes.Equal(plain, baseline) {
			t.Errorf("-parallel %d report differs from serial baseline:\n%s\nvs\n%s",
				parallel, plain, baseline)
		}
		instrumented, sess := goldenRun(t, parallel, true, cfgs)
		if !bytes.Equal(instrumented, baseline) {
			t.Errorf("-parallel %d report with telemetry differs:\n%s\nvs\n%s",
				parallel, instrumented, baseline)
		}
		recs := sess.Records()
		if len(recs) != 1 {
			t.Fatalf("-parallel %d produced %d records, want 1", parallel, len(recs))
		}
		data, err := json.Marshal(recs[0])
		if err != nil {
			t.Fatal(err)
		}
		if err := telemetry.ValidateRecordJSON(data); err != nil {
			t.Errorf("-parallel %d record invalid: %v", parallel, err)
		}
		if f := recs[0].Telemetry.OverheadFraction; f > 0.02 {
			t.Errorf("-parallel %d telemetry overhead %.4f of the run, above the 2%% budget", parallel, f)
		}
	}
}

// TestStdoutByteIdenticalWithTraceCache is the golden guarantee of the
// record-once/replay-many engine at the CLI level: a sweep driven by a
// trace cache — both the pass that records the trace and a later pass
// that replays it from disk — prints a byte-identical report to a live
// sweep, with the bank inline and sharded, and also when the sweep is
// routed through the checkpointed per-config path.
func TestStdoutByteIdenticalWithTraceCache(t *testing.T) {
	cfgs := []cache.Config{
		{SizeBytes: 32 << 10, BlockBytes: 32, Policy: cache.WriteValidate},
		{SizeBytes: 64 << 10, BlockBytes: 64, Policy: cache.WriteValidate},
	}
	baseline, _ := goldenRun(t, 1, false, cfgs)
	if len(baseline) == 0 {
		t.Fatal("baseline report is empty")
	}
	tc, err := core.NewTraceCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	core.SetTraceCache(tc)
	defer core.SetTraceCache(nil)
	for _, parallel := range []int{1, 8} {
		for _, pass := range []string{"record+replay", "pure replay"} {
			got, _ := goldenRun(t, parallel, false, cfgs)
			if !bytes.Equal(got, baseline) {
				t.Errorf("-parallel %d %s report differs from live baseline:\n%s\nvs\n%s",
					parallel, pass, got, baseline)
			}
		}
	}
	// The checkpointed per-config path replays from the same cache and
	// must print the same bytes too.
	core.SetParallelism(2)
	defer core.SetParallelism(1)
	var out bytes.Buffer
	err = runWorkloadCheckpointed(context.Background(), &out, mustWorkload(t, "nbody"), 1, cfgs,
		sweepOpts{checkpointDir: t.TempDir(), gcName: "cheney"})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), baseline) {
		t.Errorf("checkpointed trace-cache report differs from live baseline:\n%s\nvs\n%s",
			out.Bytes(), baseline)
	}
}

func mustWorkload(t *testing.T, name string) *workloads.Workload {
	t.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestRecordsIdenticalAcrossParallelism checks that the telemetry record
// itself (minus wall-clock and host fields) is deterministic: snapshots
// and GC events match bit for bit between inline and sharded banks.
func TestRecordsIdenticalAcrossParallelism(t *testing.T) {
	cfgs := []cache.Config{
		{SizeBytes: 32 << 10, BlockBytes: 64, Policy: cache.WriteValidate},
		{SizeBytes: 256 << 10, BlockBytes: 64, Policy: cache.WriteValidate},
	}
	_, serial := goldenRun(t, 1, true, cfgs)
	_, parallel := goldenRun(t, 8, true, cfgs)
	norm := func(s *telemetry.Session) []byte {
		recs := s.Records()
		if len(recs) != 1 {
			t.Fatalf("got %d records, want 1", len(recs))
		}
		r := *recs[0]
		r.DurationSeconds = 0
		r.Host = telemetry.Manifest{}
		r.Telemetry = telemetry.Overhead{}
		data, err := json.Marshal(&r)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if a, b := norm(serial), norm(parallel); !bytes.Equal(a, b) {
		t.Errorf("records differ between -parallel 1 and 8:\n%s\nvs\n%s", a, b)
	}
}
