// Command gctrace captures a workload's data-reference trace to a file,
// or replays a captured trace into cache configurations — the paper's
// trace-driven simulation methodology as standalone artifacts.
//
// Captures are written in trace format v2 (framed chunks, optionally
// flate-compressed with -compress; see internal/traceio), the only format
// replay reads: a file from the retired format v1 is refused and must be
// re-captured. Replay decodes each frame exactly once (on a pool of
// -parallel goroutines) and fans it out to every configuration of the
// comma-separated -cache × -block cross product through the fused cache
// bank, whose lanes are sharded across -parallel workers; it reports
// reference counts, host throughput and the per-stage
// decode/simulate/merge breakdown. -cache none replays into a null
// consumer to measure delivery alone. -timeout and SIGINT/SIGTERM cancel
// cleanly.
//
// Usage:
//
//	gctrace -capture trace.v2 -workload tc [-scale N] [-gc cheney] [-compress]
//	gctrace -replay trace.v2 -cache 64k -block 64 [-policy write-validate]
//	        [-parallel N] [-timeout 10m]
//	gctrace -replay trace.v2 -cache 32k,64k,128k,256k -block 32,64  # one pass, 8 configs
//	gctrace -replay trace.v2 -cache none   # null consumer: delivery rate only
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"gcsim/internal/cache"
	"gcsim/internal/cliutil"
	"gcsim/internal/core"
	"gcsim/internal/gc"
	"gcsim/internal/traceio"
	"gcsim/internal/vm"
	"gcsim/internal/workloads"
)

const tool = "gctrace"

func main() {
	capturePath := flag.String("capture", "", "write a format-v2 trace to this file")
	replayPath := flag.String("replay", "", "replay a trace from this file into a cache")
	workload := flag.String("workload", "tc", "workload to capture")
	scale := flag.Int("scale", 0, "workload scale (0 = default)")
	gcName := flag.String("gc", "none", "collector during capture")
	compress := flag.Bool("compress", false, "flate-compress trace frames during capture")
	cacheSize := flag.String("cache", "64k", "replay cache sizes, comma-separated (none = null consumer, measures delivery rate)")
	blockSize := flag.String("block", "64", "replay block sizes, comma-separated")
	policy := flag.String("policy", "write-validate", "replay write-miss policies, comma-separated: write-validate, fetch-on-write, or both")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "replay frame-decoder goroutines and cache-lane workers (1 = inline)")
	timeout := flag.Duration("timeout", 0, "abort after this duration (0 = no limit)")
	flag.Parse()

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var err error
	switch {
	case *capturePath != "":
		err = capture(ctx, *capturePath, *workload, *scale, *gcName, *compress)
	case *replayPath != "":
		err = replay(ctx, *replayPath, *cacheSize, *blockSize, *policy, *parallel)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		cliutil.Fatal(tool, err)
	}
}

func capture(ctx context.Context, path, workloadName string, scale int, gcName string, compress bool) error {
	w, err := workloads.ByName(workloadName)
	if err != nil {
		return err
	}
	col, err := gc.New(gcName, gc.Options{})
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw, err := traceio.NewBatchWriter(f, traceio.WriterOpts{Compress: compress})
	if err != nil {
		return err
	}
	// Stops the writer's encoder goroutine on an error path, before the
	// deferred f.Close; after Close it does nothing.
	defer bw.Abort()
	start := time.Now()
	run, err := core.Run(ctx, core.RunSpec{
		Workload:  w,
		Scale:     scale,
		Collector: col,
		Tracer:    bw,
		OnMachine: func(m *vm.Machine) { bw.SetClock(m.Insns) },
	})
	if err != nil {
		return err
	}
	// The encoder finishes the trace behind the run, so the capture's
	// time includes Close.
	if err := bw.Close(); err != nil {
		return err
	}
	dur := time.Since(start)
	if err := f.Close(); err != nil {
		return err
	}
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	fmt.Printf("captured %d references from %s (checksum %d) to %s\n",
		bw.Count(), run.Workload, run.Checksum, path)
	fmt.Printf("trace:      format v%d, %.1f MB, %.2f bytes/ref\n",
		traceio.FormatVersion, float64(info.Size())/1e6,
		float64(info.Size())/float64(max(bw.Count(), 1)))
	fmt.Printf("throughput: %.1fM refs/s (%.2fs host time)\n",
		refsPerSec(bw.Count(), dur)/1e6, dur.Seconds())
	return nil
}

func replay(ctx context.Context, path, cacheSize, blockSize, policy string, parallel int) error {
	var cfgs []cache.Config
	if cacheSize != "none" {
		var err error
		if cfgs, err = cliutil.ParseConfigs(cacheSize, blockSize, policy); err != nil {
			return err
		}
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sr, err := traceio.NewSharedReplayer(f)
	if err != nil {
		return err
	}
	sr.SetDecoders(parallel)

	// With -cache none the bank holds no configurations: a null sink that
	// measures pure trace-delivery throughput.
	bank := cache.NewFusedBankWorkers(cfgs, parallel)
	start := time.Now()
	n, err := sr.Run(ctx, bank)
	bank.Drain()
	if err != nil {
		return err
	}
	dur := time.Since(start)

	if len(cfgs) == 0 {
		fmt.Printf("replayed %d references into a null consumer (trace format v%d)\n", n, traceio.FormatVersion)
		fmt.Printf("throughput: %.1fM refs/s (%.2fs host time)\n", refsPerSec(n, dur)/1e6, dur.Seconds())
		return nil
	}
	fmt.Printf("replayed %d references into %d configuration(s) (trace format v%d)\n",
		n, len(cfgs), traceio.FormatVersion)
	fmt.Printf("throughput: %.1fM refs/s delivered, %.1fM cache accesses/s (%.2fs host time)\n",
		refsPerSec(n, dur)/1e6, refsPerSec(n*uint64(len(cfgs)), dur)/1e6, dur.Seconds())
	fmt.Printf("stages: decode=%.3fs simulate=%.3fs merge=%.3fs frames=%d\n",
		sr.DecodeSeconds(), bank.SimulateSeconds(), bank.MergeSeconds(), sr.Frames())
	for _, c := range bank.Caches {
		fmt.Printf("%-24v misses: %d penalized, %d allocation claims, miss ratio %.5f, collector misses %d\n",
			c.Config(), c.S.Misses(), c.S.WriteAllocs, c.S.MissRatio(), c.S.GCMisses())
	}
	return nil
}

func refsPerSec(n uint64, dur time.Duration) float64 {
	return float64(n) / max(dur.Seconds(), 1e-9)
}
