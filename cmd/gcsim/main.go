// Command gcsim runs one workload (or an arbitrary Scheme file) under the
// cache simulator and prints the measured counts and overheads.
//
// The -cache, -block, and -policy flags accept comma-separated lists; with
// more than one resulting configuration, the program's single reference
// stream is swept through every configuration in one run (a fused bank
// simulating all tag state in a single pass, sharded across core-scaled
// workers with -parallel > 1) and a per-config table is printed.
//
// The harness is fault-tolerant: -timeout bounds the whole invocation, and
// SIGINT/SIGTERM interrupt the machines at their next safepoint, so an
// aborted run still drains its workers and (with -json) emits a
// schema-valid partial run record. With -checkpoint the sweep switches to
// one independent simulation per configuration — results are persisted as
// they complete, a panicking configuration is retried (-retries) and then
// recorded as a failure instead of killing the sweep, and -resume skips
// configurations a previous interrupted invocation already finished.
// Determinism makes the two sweep modes print identical tables.
//
// Telemetry is opt-in and leaves the stdout report byte-identical: -json
// emits a canonical run record (with per-collection GC events and periodic
// cache snapshots), -events streams collections live as JSONL, -progress
// reports run progress on stderr, and -check-record validates a previously
// emitted record file against the embedded schema.
//
// Usage:
//
//	gcsim -workload tc [-scale N] [-gc none|cheney|generational|aggressive]
//	      [-cache 64k,1m] [-block 16,64] [-policy write-validate,fetch-on-write]
//	      [-semispace bytes] [-nursery bytes] [-parallel N] [-v]
//	      [-timeout 10m] [-verify-heap]
//	      [-checkpoint dir [-resume] [-retries N]] [-trace-cache dir]
//	      [-json path|-] [-events path|-] [-spans path|-] [-progress]
//	      [-pprof addr] [-cpuprofile file]
//	gcsim -file prog.scm [same options]
//	gcsim -check-record records.json
//	gcsim -remote http://host:port [-api-key key] [-priority class]
//	      [-max-retries N] -workload tc [sweep options]
//
// With -remote the sweep runs on a gcsimd server: the job is submitted,
// its progress streamed (-progress), and the results rendered locally —
// byte-identical to the same sweep run in-process, because both sides
// format through internal/report and the engine is deterministic. A
// multi-tenant server authenticates -api-key and may shed load; the
// client honours Retry-After on 429/503 with capped exponential backoff
// and jitter, retrying up to -max-retries times. -priority picks the
// scheduling class (interactive, batch, bulk); interactive jobs may
// preempt running bulk sweeps.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"

	"gcsim/internal/cache"
	"gcsim/internal/cliutil"
	"gcsim/internal/core"
	"gcsim/internal/gc"
	"gcsim/internal/report"
	"gcsim/internal/scheme"
	"gcsim/internal/server"
	"gcsim/internal/telemetry"
	"gcsim/internal/vm"
	"gcsim/internal/workloads"
)

const tool = "gcsim"

// sweepOpts carries the fault-tolerance knobs into runWorkload.
type sweepOpts struct {
	verbose       bool
	checkpointDir string
	resume        bool
	retries       int
	gcName        string
	gcOpts        gc.Options
	// remote-only knobs (used with -remote)
	apiKey     string
	priority   string
	maxRetries int
}

func main() {
	workload := flag.String("workload", "", "workload name: "+strings.Join(workloads.Names(), ", ")+", styles-functional, styles-imperative")
	file := flag.String("file", "", "run a Scheme source file instead of a workload")
	scale := flag.Int("scale", 0, "workload scale (0 = default)")
	gcName := flag.String("gc", "none", "collector: "+strings.Join(gc.Names, ", "))
	cacheSize := flag.String("cache", "64k", "cache size(s), comma-separated (e.g. 32k,64k,1m)")
	blockSize := flag.String("block", "64", "cache block size(s) in bytes, comma-separated")
	policy := flag.String("policy", "write-validate", "write-miss policy list: write-validate, fetch-on-write, or both")
	semispace := flag.Int("semispace", 0, "Cheney semispace bytes (0 = default)")
	nursery := flag.Int("nursery", 0, "generational nursery bytes (0 = default)")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "max concurrent simulations (1 = fully serial pipeline)")
	verbose := flag.Bool("v", false, "print per-processor overhead detail")
	timeout := flag.Duration("timeout", 0, "abort the run after this duration (0 = no limit)")
	verifyHeap := flag.Bool("verify-heap", false, "verify heap invariants after every collection")
	checkpointDir := flag.String("checkpoint", "", "persist per-configuration sweep results to this directory (requires -workload)")
	traceCacheDir := flag.String("trace-cache", "", "record-once/replay-many: cache the VM's reference trace in this directory and replay it for every sweep (requires -workload)")
	resume := flag.Bool("resume", false, "skip configurations already completed in the -checkpoint directory")
	retries := flag.Int("retries", 1, "re-attempts per failed configuration in -checkpoint mode")
	jsonOut := flag.String("json", "", `write the run record as JSON to this path ("-" = stdout)`)
	eventsOut := flag.String("events", "", `stream per-collection GC events as JSONL to this path ("-" = stdout)`)
	spansOut := flag.String("spans", "", `record lifecycle spans (gcsim-span/v1) as JSONL to this path ("-" = stdout)`)
	snapInsns := flag.Uint64("snapshot-insns", telemetry.DefaultSnapshotInsns, "cache snapshot interval in simulated instructions (0 = none; used with -json)")
	progressFlag := flag.Bool("progress", false, "report live run progress on stderr")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	checkRecord := flag.String("check-record", "", `validate a run-record JSON file ("-" = stdin) against the schema and exit`)
	remote := flag.String("remote", "", "submit the sweep to a gcsimd server at this base URL (e.g. http://127.0.0.1:8089) and render its results locally")
	apiKey := flag.String("api-key", "", "API key for a multi-tenant gcsimd server (used with -remote)")
	priority := flag.String("priority", "", "scheduling class for the remote job: interactive, batch (default), or bulk")
	maxRetries := flag.Int("max-retries", 4, "retries when the server sheds the submission with 429/503 (used with -remote)")
	flag.Parse()

	if *checkRecord != "" {
		if err := checkRecordFile(*checkRecord); err != nil {
			cliutil.Fatal(tool, err)
		}
		return
	}

	if *resume && *checkpointDir == "" {
		cliutil.Fatalf(tool, "-resume requires -checkpoint")
	}
	if *checkpointDir != "" && *workload == "" {
		cliutil.Fatalf(tool, "-checkpoint requires -workload")
	}
	if *retries < 0 {
		cliutil.Fatalf(tool, "-retries must be >= 0")
	}
	if *traceCacheDir != "" && *workload == "" {
		cliutil.Fatalf(tool, "-trace-cache requires -workload")
	}
	if *remote != "" {
		if *workload == "" {
			cliutil.Fatalf(tool, "-remote requires -workload")
		}
		for flagName, set := range map[string]bool{
			"-file": *file != "", "-checkpoint": *checkpointDir != "", "-resume": *resume,
			"-trace-cache": *traceCacheDir != "", "-json": *jsonOut != "", "-events": *eventsOut != "",
			"-spans": *spansOut != "",
		} {
			if set {
				cliutil.Fatalf(tool, "%s cannot be combined with -remote (the server owns execution)", flagName)
			}
		}
		if *maxRetries < 0 {
			cliutil.Fatalf(tool, "-max-retries must be >= 0")
		}
		if _, err := server.PriorityClass(*priority); err != nil {
			cliutil.Fatal(tool, err)
		}
	} else if *apiKey != "" || *priority != "" {
		cliutil.Fatalf(tool, "-api-key and -priority only apply with -remote")
	}

	core.SetParallelism(*parallel)
	core.SetVerifyHeap(*verifyHeap)
	if *traceCacheDir != "" {
		tc, err := core.NewTraceCache(*traceCacheDir)
		if err != nil {
			cliutil.Fatal(tool, err)
		}
		core.SetTraceCache(tc)
		defer core.SetTraceCache(nil)
	}
	stopProf, err := cliutil.StartProfiling(tool, *pprofAddr, *cpuProfile)
	if err != nil {
		cliutil.Fatal(tool, err)
	}
	defer stopProf()

	// SIGINT/SIGTERM and -timeout cancel the same context; the machines are
	// interrupted at their next safepoint and drain cleanly.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	cfgs, err := cliutil.ParseConfigs(*cacheSize, *blockSize, *policy)
	if err != nil {
		cliutil.Fatal(tool, err)
	}
	gcOpts := gc.Options{SemispaceBytes: *semispace, NurseryBytes: *nursery}
	col, err := gc.New(*gcName, gcOpts)
	if err != nil {
		cliutil.Fatal(tool, err)
	}

	var sess *telemetry.Session
	if *jsonOut != "" || *eventsOut != "" {
		if *file != "" {
			cliutil.Fatalf(tool, "-json/-events require -workload (file runs bypass the experiment engine)")
		}
		sess = telemetry.NewSession(tool, core.Parallelism())
		sess.SnapshotInsns = *snapInsns
		if *eventsOut != "" {
			w, err := telemetry.OpenOutput(*eventsOut)
			if err != nil {
				cliutil.Fatal(tool, err)
			}
			defer w.Close()
			sess.SetEventWriter(w)
		}
		core.EnableTelemetry(sess)
		defer core.EnableTelemetry(nil)
	}
	core.SetProgress(telemetry.NewProgress(os.Stderr, tool, *progressFlag))

	// Span recording: a root "job" span brackets the whole invocation and
	// the engine's stages (trace.lookup, replay, run.vm, …) nest under it
	// via the context. A summary line on stderr reports the recorder's
	// span count and self-measured cost.
	var (
		spans    *telemetry.SpanRecorder
		rootSpan *telemetry.ActiveSpan
	)
	if *spansOut != "" {
		w, err := telemetry.OpenOutput(*spansOut)
		if err != nil {
			cliutil.Fatal(tool, err)
		}
		defer w.Close()
		spans = telemetry.NewSpanRecorder(0)
		spans.SetJSONL(w)
		core.SetSpans(spans)
		defer core.SetSpans(nil)
		ctx = telemetry.ContextWithTrace(ctx, "cli")
		ctx, rootSpan = spans.StartSpan(ctx, telemetry.StageJob)
	}

	opts := sweepOpts{
		verbose:       *verbose,
		checkpointDir: *checkpointDir,
		resume:        *resume,
		retries:       *retries,
		gcName:        *gcName,
		gcOpts:        gcOpts,
		apiKey:        *apiKey,
		priority:      *priority,
		maxRetries:    *maxRetries,
	}
	switch {
	case *remote != "":
		err = runRemote(ctx, os.Stdout, *remote, *workload, *scale, *gcName, gcOpts, cfgs, opts)
	case *file != "":
		err = runFile(ctx, os.Stdout, *file, col, cfgs, *verbose)
	case *workload != "":
		err = runWorkload(ctx, os.Stdout, *workload, *scale, col, cfgs, opts)
	default:
		flag.Usage()
		os.Exit(2)
	}

	rootSpan.End()
	if spans != nil {
		// Self-measured recording cost, reported whether or not the run
		// succeeded.
		core.Progress().Printf("spans: total=%d dropped=%d overhead=%.6fs",
			spans.Total(), spans.Dropped(), spans.OverheadSeconds())
	}

	// Write the telemetry records before reporting any run error: an
	// interrupted or failed run leaves a schema-valid partial record, and
	// persisting that evidence is the whole point of emitting it.
	if sess != nil && *jsonOut != "" {
		if werr := writeRecords(sess, *jsonOut); werr != nil && err == nil {
			err = werr
		}
	}
	if err != nil {
		cliutil.Fatal(tool, err)
	}
}

func writeRecords(sess *telemetry.Session, path string) error {
	w, err := telemetry.OpenOutput(path)
	if err != nil {
		return err
	}
	if err := sess.WriteRecords(w); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}

// checkRecordFile validates serialized run records against the embedded
// schema; silence means valid (scripts branch on the exit status).
func checkRecordFile(path string) error {
	var (
		data []byte
		err  error
	)
	if path == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return err
	}
	return telemetry.ValidateRecordJSON(data)
}

func runWorkload(ctx context.Context, out io.Writer, name string, scale int, col gc.Collector, cfgs []cache.Config, opts sweepOpts) error {
	w, err := workloads.ByName(name)
	if err != nil {
		return err
	}
	if opts.checkpointDir != "" {
		return runWorkloadCheckpointed(ctx, out, w, scale, cfgs, opts)
	}
	sweep, err := core.RunSweep(ctx, w, scale, col, cfgs)
	if err != nil {
		return err
	}
	run := sweep.Run
	// GC identity and stats come from the run result, not the collector
	// object: a trace-cached sweep replays a recorded reference stream and
	// never attaches col to a machine, but the result carries the recorded
	// run's collector statistics (identical to a live run's, byte for byte).
	report.Render(out, report.Run{
		Name:      run.Workload,
		Collector: run.Collector,
		GCStats:   run.GCStats,
		Checksum:  run.Checksum,
		Insns:     run.Insns,
		GCInsns:   run.GCInsns,
	}, sweep.Bank.Caches, opts.verbose)
	return nil
}

// runWorkloadCheckpointed is the resilient sweep: one independent
// simulation per configuration, each result persisted as it completes.
// The printed report is identical to runWorkload's single-pass table
// because the deterministic VM issues the same reference stream every run.
func runWorkloadCheckpointed(ctx context.Context, out io.Writer, w *workloads.Workload, scale int, cfgs []cache.Config, opts sweepOpts) error {
	ck, err := core.NewCheckpoint(opts.checkpointDir)
	if err != nil {
		return err
	}
	mkCol := func() gc.Collector {
		col, err := gc.New(opts.gcName, opts.gcOpts)
		if err != nil {
			panic(err) // flags were validated in main
		}
		return col
	}
	sweep, err := core.RunSweepPerConfig(ctx, w, scale, cfgs, core.PerConfigSweepOpts{
		MakeCollector: mkCol,
		Retries:       opts.retries,
		Checkpoint:    ck,
		Resume:        opts.resume,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: sweep interrupted: %d/%d configurations complete (checkpointed in %s; rerun with -resume)\n",
			tool, len(sweep.Results), len(cfgs), opts.checkpointDir)
		return err
	}
	for _, f := range sweep.Failures {
		fmt.Fprintf(os.Stderr, "%s: %v\n", tool, f)
	}
	if len(sweep.Results) == 0 {
		return fmt.Errorf("no configuration completed")
	}
	// Rebuild report caches from the (possibly checkpoint-loaded) stats so
	// the table matches the single-pass sweep byte for byte.
	first := sweep.Results[0]
	caches := make([]*cache.Cache, 0, len(sweep.Results))
	for _, r := range sweep.Results {
		caches = append(caches, report.CacheFor(r.Config, r.CacheStats))
	}
	report.Render(out, report.Run{
		Name:      w.Name,
		Collector: sweep.Collector,
		GCStats:   first.GCStats,
		Checksum:  first.Checksum,
		Insns:     first.Insns,
		GCInsns:   first.GCInsns,
	}, caches, opts.verbose)
	if n := len(sweep.Failures); n > 0 {
		return fmt.Errorf("%d of %d configurations failed", n, len(cfgs))
	}
	return nil
}

func runFile(ctx context.Context, out io.Writer, path string, col gc.Collector, cfgs []cache.Config, verbose bool) error {
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	bank := cache.NewFusedBankWorkers(cfgs, core.Parallelism())
	m := vm.NewLoaded(bank, col)
	m.VerifyHeap = core.VerifyHeapEnabled()
	stop := context.AfterFunc(ctx, m.Interrupt)
	defer stop()
	v, err := m.Eval(string(src))
	bank.Drain()
	if err != nil {
		if errors.Is(err, vm.ErrInterrupted) && ctx.Err() != nil {
			err = fmt.Errorf("%w: %w", ctx.Err(), err)
		}
		return err
	}
	if o := m.Output(); o != "" {
		fmt.Fprint(out, o)
	}
	fmt.Fprintf(out, "value: %s\n", m.DescribeValue(v))
	checksum := int64(0)
	if scheme.IsFixnum(v) {
		checksum = scheme.FixnumValue(v)
	}
	if len(cfgs) == 1 {
		report.Single(out, report.Run{
			Name:      path,
			Collector: col.Name(),
			GCStats:   *col.Stats(),
			Checksum:  checksum,
			Insns:     m.Insns(),
			GCInsns:   m.GCInsns(),
		}, bank.Caches[0], verbose)
		return nil
	}
	fmt.Fprintf(out, "program:     %s\n", path)
	fmt.Fprintf(out, "collector:   %s (%d collections, %d words copied)\n",
		col.Name(), col.Stats().Collections, col.Stats().CopiedWords)
	fmt.Fprintf(out, "insns:       %d program + %d collector\n", m.Insns(), m.GCInsns())
	report.Table(out, bank.Caches, m.Insns(), verbose)
	return nil
}
