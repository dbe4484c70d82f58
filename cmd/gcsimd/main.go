// Command gcsimd serves the experiment harness over HTTP: a long-lived
// daemon that accepts cache-sweep jobs, executes them on a bounded worker
// pool through one checkpoint-driven shard loop over the resilient
// per-config engine, and shares one content-addressed trace cache across
// every job — a reference stream is recorded by the first job that needs
// it and replayed by all the rest.
//
// API (JSON unless noted):
//
//	POST   /v1/jobs             submit a job spec, returns the queued job
//	GET    /v1/jobs             list jobs
//	GET    /v1/jobs/{id}        one job's state and (when done) results
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	GET    /v1/jobs/{id}/events live progress, one JSON event per line
//	GET    /v1/jobs/{id}/report the rendered text report
//	GET    /v1/jobs/{id}/spans  the job's recorded span tree (gcsim-span/v1)
//	GET    /metrics             Prometheus text exposition (counters, gauges, latency histograms)
//	GET    /healthz             health probe: pool depth, store writable, trace-cache stat
//	GET    /dashboard           HTML dashboard (job table, stage latencies), reloaded every 2 s
//	GET    /castore/v1/blobs/{id}  this node's recorded trace blobs, by sha256 (castore.Handler, read-only)
//	POST   /cluster/v1/workers  (coordinator) worker registration + heartbeat
//	GET    /cluster/v1/workers  (coordinator) the fleet view
//	POST   /cluster/v1/traces/{claim,publish}  (coordinator) record-exactly-once arbitration
//	GET    /cluster/v1/blobs/{id}  (coordinator) any fleet trace by sha256: castore.Handler
//	                            over the coordinator's store, copy-on-write over the live workers
//
// Jobs persist under the state directory and survive restarts: completed
// configurations land in per-job checkpoint files as they finish, so a
// SIGTERM drains in-flight jobs into resumable checkpoints and the next
// gcsimd picks them up where they stopped. gcsim -remote <url> is the
// matching client; it renders reports byte-identical to local runs.
//
// Usage:
//
//	gcsimd [-addr host:port] [-state dir] [-workers N] [-parallel N]
//	       [-trace-cache dir|none] [-tenants file] [-queue-high-water N]
//	       [-role standalone|coordinator|worker] [-peers url]
//	       [-node name] [-advertise url] [-heartbeat d]
//	       [-verify-heap] [-drain-timeout d] [-debug-addr host:port] [-v]
//
// Cluster mode: every role runs a job through the same shard loop. A
// standalone daemon (or a worker) is a one-node cluster whose only node
// is its own process; a coordinator (-role coordinator) accepts jobs as
// usual but splits each one's configuration matrix across the workers
// that registered with it; workers (-role worker -peers <coordinator-url>)
// execute shards and resolve trace-cache misses through the fleet, so
// every reference stream is recorded exactly once cluster-wide and
// fetched by content hash everywhere else. Reports from a cluster sweep
// are byte-identical to the same job on a single node. A worker that
// dies mid-sweep is detected by a failed dispatch (or missed heartbeats):
// the job re-queues like a preempted one, and its next run re-shards
// the configurations the coordinator's checkpoints do not hold over the
// survivors.
//
// With -tenants, every /v1 route requires an API key from the config
// file ({"tenants": [{"name", "key", "max_queued"}, ...]}), sent as an
// Authorization: Bearer or X-API-Key header (the dashboard also takes
// ?key=); a tenant with max_queued gets a 429 + Retry-After once that
// many of its jobs are queued. Jobs carry a priority class
// (interactive/batch/bulk); an arriving interactive job may preempt a
// running bulk sweep, which re-queues with its completed configurations
// checkpointed. Past -queue-high-water the daemon sheds submissions with
// 429 + Retry-After instead of queueing without bound.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"gcsim/internal/cliutil"
	"gcsim/internal/core"
	"gcsim/internal/server"
	"gcsim/internal/telemetry"
)

const tool = "gcsimd"

func main() {
	addr := flag.String("addr", "127.0.0.1:8089", "listen address (host:port; port 0 picks a free port)")
	stateDir := flag.String("state", "gcsimd-state", "state directory for jobs, checkpoints, and the trace cache")
	workers := flag.Int("workers", 2, "concurrently executing jobs")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "per-job parallelism (worker goroutines per sweep)")
	traceCacheDir := flag.String("trace-cache", "", `trace cache directory shared by all jobs (default <state>/trace-cache; "none" disables record-once/replay-many)`)
	tenantsPath := flag.String("tenants", "", "tenants config file (JSON; empty = open single-tenant mode, no API keys)")
	highWater := flag.Int("queue-high-water", 0, "queue depth beyond which submissions are shed with 429 + Retry-After (0 = default)")
	role := flag.String("role", "", `cluster role: "" or "standalone", "coordinator", or "worker"`)
	peers := flag.String("peers", "", "coordinator base URL to register with (workers; first of a comma-separated list is used)")
	nodeName := flag.String("node", "", "this node's cluster name (default: its advertise URL)")
	advertise := flag.String("advertise", "", "URL peers reach this node at (default http://<listen address>)")
	heartbeat := flag.Duration("heartbeat", time.Second, "worker heartbeat interval")
	verifyHeap := flag.Bool("verify-heap", false, "verify heap invariants after every collection")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "how long to wait for open HTTP connections on shutdown")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof on this address (off when empty)")
	verbose := flag.Bool("v", false, "log job lifecycle and engine progress on stderr")
	flag.Parse()

	if *workers < 1 {
		cliutil.Fatalf(tool, "-workers must be >= 1")
	}
	core.SetParallelism(*parallel)
	core.SetVerifyHeap(*verifyHeap)
	prog := telemetry.NewProgress(os.Stderr, tool, *verbose)
	core.SetProgress(prog)
	if _, err := cliutil.StartProfiling(tool, *debugAddr, ""); err != nil {
		cliutil.Fatal(tool, err)
	}

	// One span recorder serves both layers: the server records the job
	// lifecycle stages, the engine (via core.SetSpans) nests its sweep
	// stages under them, and /v1/jobs/{id}/spans reads the joint tree.
	spans := telemetry.NewSpanRecorder(0)
	core.SetSpans(spans)
	defer core.SetSpans(nil)

	var tc *core.TraceCache
	if *traceCacheDir != "none" {
		dir := *traceCacheDir
		if dir == "" {
			dir = filepath.Join(*stateDir, "trace-cache")
		}
		var err error
		tc, err = core.NewTraceCache(dir)
		if err != nil {
			cliutil.Fatal(tool, err)
		}
		core.SetTraceCache(tc)
		defer core.SetTraceCache(nil)
	}

	var tenants *server.TenantRegistry
	if *tenantsPath != "" {
		reg, err := server.LoadTenants(*tenantsPath)
		if err != nil {
			cliutil.Fatal(tool, err)
		}
		tenants = reg
	}

	// Listen before building the server: a worker's default advertise URL
	// needs the resolved port when -addr ends in :0.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		cliutil.Fatal(tool, err)
	}

	srvRole := *role
	if srvRole == "standalone" {
		srvRole = server.RoleStandalone
	}
	coordinator, _, _ := strings.Cut(*peers, ",")
	advertiseURL := *advertise
	if advertiseURL == "" {
		advertiseURL = "http://" + ln.Addr().String()
	}
	srv, err := server.New(server.Config{
		StateDir:        *stateDir,
		Workers:         *workers,
		TraceCache:      tc,
		Progress:        prog,
		Spans:           spans,
		Tenants:         tenants,
		QueueHighWater:  *highWater,
		Role:            srvRole,
		Coordinator:     coordinator,
		NodeName:        *nodeName,
		AdvertiseURL:    advertiseURL,
		HeartbeatEvery:  *heartbeat,
		WorkerDeadAfter: 5 * *heartbeat,
	})
	if err != nil {
		cliutil.Fatal(tool, err)
	}
	// The listen line is a protocol: scripts parse it to learn the port
	// when -addr ends in :0. Keep it first and keep its shape.
	fmt.Printf("%s: listening on http://%s\n", tool, ln.Addr())

	// SIGINT/SIGTERM trigger the drain: stop accepting HTTP, interrupt
	// in-flight jobs at their next safepoint, persist them as resumable,
	// then exit 0.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	srv.Start(context.Background())
	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		srv.Drain()
		cliutil.Fatal(tool, err)
	case <-ctx.Done():
	}
	stopSignals()
	fmt.Printf("%s: draining\n", tool)

	// Drain the pool first: in-flight jobs are interrupted at their next
	// safepoint and persisted as resumable before the HTTP side goes away,
	// so a kill arriving during shutdown cannot lose the checkpoints. Then
	// close HTTP; event streams of interrupted jobs never end on their own,
	// so fall back to a hard close at the drain timeout.
	srv.Drain()
	shutCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		if !errors.Is(err, context.DeadlineExceeded) {
			prog.Printf("http shutdown: %v", err)
		}
		hs.Close()
	}
	fmt.Printf("%s: drained\n", tool)
}
