// Command bench is gcsim's performance benchmark. Each workload drives
// the simulator through its public functions, times every unit of work,
// checks every output against an independent oracle, and prints the
// metrics BENCHMARK.json at the repository root declares.
//
// Run it from the repository root, which run.sh builds it from:
//
//	bash bench/run.sh --workload live-sweep --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it prints the end-to-end metrics. With --trace 1 it runs
// every unit of work twice, untraced and then with each layer timed, and
// prints the per-layer metrics; the layer spans go to --spans as
// gcsim-span/v1 JSON lines. The last line of standard output is always
// one JSON object {"correct", "attempted", "failed", "metrics"}; the run
// exits non-zero when any operation failed or any output did not match.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"gcsim/internal/core"
	"gcsim/internal/telemetry"
)

// workloadList is the benchmark's workloads, in BENCHMARK.json order.
var workloadList = []*workload{
	{
		name:  "live-sweep",
		why:   "tc swept live over 8 configs through core.RunSweep: the paper's emulator-to-cache pipeline, VM and cache bank both on the path",
		setup: setupLive,
		stage: telemetry.StageSweep,
		sum:   []string{"vm.interpret_s", "cache.consume_s", "gc.collect_s", "cache.drain_s"},
	},
	{
		name:  "replay-grid",
		why:   "tc replayed from a castore trace cache over the 40-config grid: the fused simulate kernel with no VM",
		setup: setupReplay,
		stage: telemetry.StageSweep,
		sum:   []string{"cache.simulate_s", "cache.merge_s", "traceio.stall_s"},
	},
	{
		name:  "record",
		why:   "the five programs recorded into castore: VM, collector, v2 encode and blob put, with no cache simulation",
		setup: setupRecord,
		cycle: len(semispaces),
		stage: telemetry.StageTraceRecord,
		sum:   []string{"vm.interpret_s", "gc.collect_s", "traceio.encode_s", "castore.put_s"},
	},
	{
		name:  "jobs",
		why:   "closed-loop gcsimd jobs at SmallScale: HTTP, job store, checkpoints and report rendering set the latency",
		setup: setupJobs,
		cycle: 5,
		stage: telemetry.StageJob,
	},
}

func findWorkload(name string) *workload {
	for _, wl := range workloadList {
		if wl.name == name {
			return wl
		}
	}
	return nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: live-sweep, replay-grid, record or jobs")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are made from")
	secs := fs.Float64("seconds", 25, "measurement time in seconds")
	trace := fs.Int("trace", 0, "1 runs traced and prints the per-layer metrics")
	spansPath := fs.String("spans", "", "traced run's span output (default .bench_build/spans-<workload>-<seed>.jsonl)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl := findWorkload(*name)
	if wl == nil || *trace < 0 || *trace > 1 || *secs <= 0 {
		fmt.Fprintf(stderr, "bench: need -workload live-sweep|replay-grid|record|jobs, -seconds > 0, -trace 0|1\n")
		return 2
	}
	p := &params{
		seed:   *seed,
		budget: time.Duration(*secs * float64(time.Second)),
		minOps: 3,
		setups: 3,
		traced: *trace == 1,
	}
	if p.traced {
		p.minOps, p.setups = 2, 1
	}

	scratch := filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	var spanFile *os.File
	if p.traced {
		path := *spansPath
		if path == "" {
			path = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", wl.name, p.seed))
		}
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		defer f.Close()
		spanFile = f
		p.jsonl = &lockedWriter{w: f}
		p.spans = telemetry.NewSpanRecorder(0)
		p.spans.SetJSONL(p.jsonl)
	}

	fp, _ := json.Marshal(newFingerprint(wl.name, p))
	fmt.Fprintf(stdout, "fingerprint %s\n", fp)

	core.SetParallelism(runtime.GOMAXPROCS(0))
	out, err := execute(context.Background(), wl, p, scratch)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if spanFile != nil {
		if err := validateSpans(spanFile.Name()); err != nil {
			fmt.Fprintf(stderr, "bench: spans: %v\n", err)
			out.failed++
		}
	}
	if err := out.report(stdout, p.traced); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if out.failed > 0 {
		return 1
	}
	return 0
}

// lockedWriter serializes span lines from the benchmark's recorder and
// the traced server's, which write from different goroutines.
type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// validateSpans checks every line of a span file against gcsim-span/v1.
func validateSpans(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	n := 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		n++
		if err := telemetry.ValidateSpanJSON([]byte(line)); err != nil {
			return fmt.Errorf("line %d: %w", n, err)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if n == 0 {
		return fmt.Errorf("%s holds no spans", path)
	}
	return nil
}
