package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"gcsim/internal/telemetry"
)

// benchmarkJSON is the part of ../BENCHMARK.json the code must agree with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestTablesMatchBenchmarkJSON(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	if len(bj.Workloads) != len(workloadList) {
		t.Fatalf("BENCHMARK.json has %d workloads, code has %d", len(bj.Workloads), len(workloadList))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloadList[i].name || w.Why != workloadList[i].why {
			t.Errorf("workload %d: json %q/%q, code %q/%q", i, w.Name, w.Why, workloadList[i].name, workloadList[i].why)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end_to_end metrics, code has %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range bj.EndToEnd {
		c := endToEnd[i]
		if m.Name != c.name || m.Unit != c.unit || m.Better != c.better || m.Bound != c.bound {
			t.Errorf("end_to_end %d: json %+v, code %+v", i, m, c)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per_layer metrics, code has %d", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		c := perLayer[i]
		if m.Name != c.name || m.Unit != c.unit || m.Better != c.better {
			t.Errorf("per_layer %d: json %+v, code %+v", i, m, c)
		}
	}
}

// tinyParams runs a workload at SmallScale with two configurations and a
// fixed number of units.
func tinyParams(units int, traced bool, spans *bytes.Buffer) *params {
	p := &params{seed: 1, budget: time.Hour, minOps: units, maxOps: units, setups: 1, small: true, traced: traced}
	if traced {
		p.jsonl = &lockedWriter{w: spans}
		p.spans = telemetry.NewSpanRecorder(0)
		p.spans.SetJSONL(p.jsonl)
	}
	return p
}

// TestWorkloadsTiny runs every workload untraced and traced and checks
// that the printed result line names exactly BENCHMARK.json's metrics.
func TestWorkloadsTiny(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	want := map[bool][]string{}
	for _, m := range bj.EndToEnd {
		want[false] = append(want[false], m.Name)
	}
	for _, m := range bj.PerLayer {
		want[true] = append(want[true], m.Name)
	}
	for _, wl := range workloadList {
		units := 2
		if wl.name == "jobs" {
			units = 5
		}
		for _, traced := range []bool{false, true} {
			var spans bytes.Buffer
			out, err := execute(context.Background(), wl, tinyParams(units, traced, &spans), t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.name, traced, err)
			}
			var buf bytes.Buffer
			if err := out.report(&buf, traced); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line %q: %v", wl.name, lines[len(lines)-1], err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", wl.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			var got []string
			for name := range res.Metrics {
				got = append(got, name)
			}
			sort.Strings(got)
			exp := append([]string(nil), want[traced]...)
			sort.Strings(exp)
			if strings.Join(got, ",") != strings.Join(exp, ",") {
				t.Errorf("%s traced=%v: metrics %v, BENCHMARK.json %v", wl.name, traced, got, exp)
			}
			if traced {
				for i, line := range strings.Split(strings.TrimSpace(spans.String()), "\n") {
					if err := telemetry.ValidateSpanJSON([]byte(line)); err != nil {
						t.Fatalf("%s span %d: %v", wl.name, i, err)
					}
				}
			}
		}
	}
}

// TestCheckCatchesPerturbedStats perturbs one statistic of one sweep and
// expects the oracle check to count it.
func TestCheckCatchesPerturbedStats(t *testing.T) {
	ctx := context.Background()
	p := tinyParams(1, false, nil)
	bn, err := setupLive(ctx, p, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer bn.close()
	b := bn.(*sweepBench)
	for i := 0; i < 2; i++ {
		if r := b.op(ctx, i, nil); r.failed != 0 {
			t.Fatalf("sweep %d failed", i)
		}
	}
	if failed, err := b.check(ctx); err != nil || failed != 0 {
		t.Fatalf("unperturbed: failed=%d err=%v", failed, err)
	}
	cfg := b.cfgs[0]
	s := b.outs[1].stats[cfg]
	s.ReadMisses++
	b.outs[1].stats[cfg] = s
	if failed, err := b.check(ctx); err != nil || failed != 1 {
		t.Fatalf("perturbed: failed=%d err=%v, want 1", failed, err)
	}
}

// TestCheckCatchesPerturbedReport flips one byte of a kept job report.
func TestCheckCatchesPerturbedReport(t *testing.T) {
	ctx := context.Background()
	bn, err := setupJobs(ctx, tinyParams(1, false, nil), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer bn.close()
	b := bn.(*jobsBench)
	if r := b.op(ctx, 0, nil); r.failed != 0 {
		t.Fatal("job 0 failed")
	}
	if failed, err := b.check(ctx); err != nil || failed != 0 {
		t.Fatalf("unperturbed: failed=%d err=%v", failed, err)
	}
	b.saved[0].report[len(b.saved[0].report)-2] ^= 1
	if failed, err := b.check(ctx); err != nil || failed != 1 {
		t.Fatalf("perturbed: failed=%d err=%v, want 1", failed, err)
	}
}
