package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"gcsim/internal/telemetry"
	"gcsim/internal/workloads"
)

// params sizes one run. The command line fills it for the benchmark;
// tests shrink it.
type params struct {
	seed   uint64
	budget time.Duration // measurement time; whole cycles are never cut
	minOps int           // units of work measured at least
	maxOps int           // units of work measured at most (0 = no cap)
	setups int           // set-ups timed; setup_s is their median
	small  bool          // SmallScale programs and two cache configurations
	traced bool
	spans  *telemetry.SpanRecorder // traced runs: layer and op spans
	jsonl  io.Writer               // traced runs: where every recorder writes spans
}

// rng returns a generator for one named use of the seed, so each choice
// a workload makes is reproducible on its own.
func (p *params) rng(stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(p.seed, stream))
}

// scale is the program size a run uses.
func (p *params) scale(w *workloads.Workload) int {
	if p.small {
		return w.SmallScale
	}
	return w.DefaultScale
}

// workload is one named input set of the benchmark.
type workload struct {
	name, why string
	// setup builds the workload's state in dir; it is timed and run
	// params.setups times, each time from scratch.
	setup func(ctx context.Context, p *params, dir string) (bench, error)
	// cycle makes untraced runs measure whole cycles of this many units,
	// over which the seed's choices balance out (0 means 1).
	cycle int
	// stage is the gcsim-span/v1 stage a traced unit of work is recorded as.
	stage string
	// sum lists the layers whose self times must add up to a traced unit's
	// wall time within ±5%.
	sum []string
}

// bench is a set-up workload.
type bench interface {
	// op runs unit of work i. With lay non-nil it runs the traced variant,
	// filling lay. Unit i has the same inputs traced or not.
	op(ctx context.Context, i int, lay layers) opResult
	// check compares the outputs op kept against an oracle, untimed, and
	// returns the number of operations whose output did not match.
	check(ctx context.Context) (failed int, err error)
	// traceMB is the size of the v2 trace data the workload covers.
	traceMB() float64
	close()
}

// finisher is a bench with per-layer values known only once the run is
// over (recorder totals, hit ratios); they override the per-unit medians.
type finisher interface {
	finishLayers(m map[string]float64)
}

// opResult is one unit of work as the harness sees it.
type opResult struct {
	start             time.Time
	wall              time.Duration
	attempted, failed int
}

// outcome is everything a run measured.
type outcome struct {
	setup             []float64
	walls, traced     []float64
	attempted, failed int
	layerVals         map[string][]float64
	gaps              []float64
	liveMB, heldMB    float64 // memSampler peaks over the measured units
	traceMB           float64
	rssMB             float64 // getrusage peak resident set, whole run
	final             map[string]float64
	cal               calibrator
}

// settler collects garbage between units of work, outside their timed
// intervals, so a unit starts from a clean heap rather than paying for its
// predecessors' garbage. It collects at most once per refEvery, so units
// of a few milliseconds are not dominated by forced collections. Freed
// memory stays mapped: returning it to the OS would make every unit fault
// its pages back in, which on a shared host is slow and noisy.
type settler struct{ last time.Time }

func (s *settler) settle() {
	if time.Since(s.last) >= refEvery {
		runtime.GC()
		s.last = time.Now()
	}
}

// A traced unit fails when its summed layer self times miss its wall time
// by more than sumTolerance of it. sumFloor lets units of a few
// milliseconds (tests) carry the fixed cost of opening a blob or
// allocating a bank, which no layer owns.
const (
	sumTolerance = 0.05
	sumFloor     = 2 * time.Millisecond
)

// execute sets the workload up, measures it, and checks its outputs.
func execute(ctx context.Context, wl *workload, p *params, dir string) (*outcome, error) {
	out := &outcome{layerVals: map[string][]float64{}, final: map[string]float64{}}
	var b bench
	for k := 0; k < max(p.setups, 1); k++ {
		if b != nil {
			b.close()
		}
		runtime.GC()
		out.cal.calibrate(3)
		t0 := time.Now()
		nb, err := wl.setup(ctx, p, filepath.Join(dir, fmt.Sprintf("setup%d", k)))
		if err != nil {
			return nil, fmt.Errorf("%s: setup: %w", wl.name, err)
		}
		out.setup = append(out.setup, time.Since(t0).Seconds())
		b = nb
	}
	defer b.close()

	cycle := max(wl.cycle, 1)
	if p.traced {
		cycle = 1
	}
	var gcs settler
	mem := startMemSampler()
	start := time.Now()
	for i := 0; p.maxOps == 0 || i < p.maxOps; i++ {
		if i%cycle == 0 && i >= p.minOps {
			elapsed := time.Since(start)
			if elapsed+elapsed/time.Duration(i)*time.Duration(cycle) > p.budget {
				break
			}
		}
		out.cal.maybe()
		gcs.settle()
		r := b.op(ctx, i, nil)
		out.walls = append(out.walls, r.wall.Seconds())
		out.attempted += r.attempted
		out.failed += r.failed
		if !p.traced {
			continue
		}
		lay := layers{}
		gcs.settle()
		r = b.op(ctx, i, lay)
		out.traced = append(out.traced, r.wall.Seconds())
		out.attempted += r.attempted
		out.failed += r.failed
		for name, v := range lay {
			out.layerVals[name] = append(out.layerVals[name], v)
		}
		if len(wl.sum) > 0 && r.wall > 0 {
			var sum float64
			for _, name := range wl.sum {
				sum += lay[name]
			}
			wall := r.wall.Seconds()
			out.gaps = append(out.gaps, 1-sum/wall)
			if math.Abs(wall-sum) > max(sumTolerance*wall, sumFloor.Seconds()) {
				fmt.Fprintf(os.Stderr, "bench: %s unit %d: layers %v sum to %.4fs of %.4fs wall\n",
					wl.name, i, wl.sum, sum, r.wall.Seconds())
				out.failed++
			}
		}
		emitSpans(ctx, p.spans, wl, i, r, lay)
	}
	out.liveMB, out.heldMB = mem.peaks()
	out.rssMB = peakRSSMB()

	failed, err := b.check(ctx)
	if err != nil {
		return nil, fmt.Errorf("%s: check: %w", wl.name, err)
	}
	out.failed += failed
	out.traceMB = b.traceMB()
	if f, ok := b.(finisher); ok && p.traced {
		f.finishLayers(out.final)
	}
	return out, nil
}

// emitSpans records a traced unit of work as a root span with one
// aggregate child per timed layer.
func emitSpans(ctx context.Context, rec *telemetry.SpanRecorder, wl *workload, i int, r opResult, lay layers) {
	if rec == nil {
		return
	}
	ctx = telemetry.ContextWithTrace(ctx, fmt.Sprintf("bench-%s-%d", wl.name, i))
	root := rec.Emit(ctx, wl.stage, r.start, r.wall, map[string]string{"layer": "op", "workload": wl.name})
	ctx = telemetry.ContextWithSpan(ctx, telemetry.SpanContext{Trace: telemetry.SpanFromContext(ctx).Trace, Span: root})
	names := make([]string, 0, len(lay))
	for name := range lay {
		if _, ok := layerStage[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		d := time.Duration(lay[name] * float64(time.Second))
		rec.Emit(ctx, layerStage[name], r.start, d, map[string]string{"layer": name, "aggregate": "true"})
	}
}

// metrics turns an outcome into the printed metric values.
func (o *outcome) metrics(traced bool) map[string]float64 {
	m := map[string]float64{}
	if !traced {
		m["setup_s"] = median(o.setup)
		m["wall_s"] = median(o.walls)
		m["wall_p95_s"] = quantile(o.walls, 0.95)
		for _, name := range calibrated {
			m[name] *= o.cal.factor()
		}
		m["trace_mb"] = o.traceMB
		m["peak_live_mb"] = o.liveMB
		return m
	}
	for _, pl := range perLayer {
		m[pl.name] = median(o.layerVals[pl.name])
	}
	m["unattributed_frac"] = median(o.gaps)
	if base := median(o.walls); base > 0 {
		m["trace_overhead_frac"] = median(o.traced)/base - 1
	}
	for name, v := range o.final {
		m[name] = v
	}
	return m
}

// calibrated are the end-to-end metrics reported at reference speed.
var calibrated = []string{"setup_s", "wall_s", "wall_p95_s"}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints one "metric" line per metric and then the result line.
func (o *outcome) report(w io.Writer, traced bool) error {
	list := endToEnd
	if traced {
		list = perLayer
	}
	vals := o.metrics(traced)
	if !traced {
		// Everything the calibrated and memory metrics came from, unscaled.
		raw, _ := json.Marshal(map[string]any{
			"factor": o.cal.factor(), "setup_s": o.setup, "unit_s": o.walls, "ref_s": o.cal.samples,
			"held_mb": o.heldMB, "rss_mb": o.rssMB,
		})
		fmt.Fprintf(w, "raw %s\n", raw)
	}
	res := result{
		Correct:   o.failed == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, mt := range list {
		v := vals[mt.name]
		fmt.Fprintf(w, "metric %-24s %14.6g %s\n", mt.name, v, mt.unit)
		res.Metrics[mt.name] = metricValue{Value: v, Unit: mt.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the nearest-rank q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(k, 0), len(s)-1)]
}

// fingerprint identifies the machine and inputs a run measured.
type fingerprint struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Traced     bool   `json:"traced"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
	OS         string `json:"os"`
}

func newFingerprint(workload string, p *params) fingerprint {
	return fingerprint{
		Workload:   workload,
		Seed:       p.seed,
		Traced:     p.traced,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		CPU:        cpuModel(),
		OS:         runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
