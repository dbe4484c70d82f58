package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"gcsim/internal/cache"
	"gcsim/internal/castore"
	"gcsim/internal/gc"
	"gcsim/internal/mem"
	"gcsim/internal/telemetry"
	"gcsim/internal/traceio"
	"gcsim/internal/vm"
	"gcsim/internal/workloads"
)

// The content-addressed trace cache: the record-once / replay-many side of
// the experiment engine. The paper's methodology evaluates every cache
// configuration against one reference stream; a TraceCache makes the
// harness do the same. The first sweep over a (workload, scale, collector)
// triple runs the VM once with a traceio.BatchWriter attached and files
// the trace under a content key; every subsequent sweep — including every
// per-config run of the resilient path — replays the trace instead of
// re-interpreting the program. Replayed statistics are bitwise-identical
// to live ones (the replayer reproduces the exact chunked reference
// stream, including the per-chunk clock stamps telemetry snapshots use).
//
// Storage is split in two, both pluggable: trace bytes live in a
// castore.Store (sha256-addressed blobs — local dir, in-memory, or a
// composition with a read-only HTTP peer), and the (key → TraceMeta)
// mapping lives in a TraceIndex. In a cluster the blob store is a COW
// over the coordinator's fleet-wide fetch endpoint and a
// RemoteTraceIndex arbitrates recording, so each trace is recorded
// exactly once anywhere and fetched by hash everywhere else.

// TraceMetaSchema identifies the trace sidecar format.
const TraceMetaSchema = "gcsim-trace-meta/v1"

// TraceMeta is the sidecar written next to each cached trace: the cache
// key's preimage (so lookups can reject collisions and stale entries) plus
// everything a RunResult needs that the reference stream itself does not
// carry — checksum, instruction counts, memory counters, collector stats.
type TraceMeta struct {
	Schema        string       `json:"schema"`
	Workload      string       `json:"workload"`
	Scale         int          `json:"scale"`
	Collector     string       `json:"collector"`
	Identity      string       `json:"collector_identity"`
	FormatVersion int          `json:"format_version"`
	VMCodeShape   int          `json:"vm_code_shape"`
	SHA256        string       `json:"sha256"`
	Refs          uint64       `json:"refs"`
	TraceBytes    int64        `json:"trace_bytes"`
	Checksum      int64        `json:"checksum"`
	Insns         uint64       `json:"insns"`
	GCInsns       uint64       `json:"gc_insns"`
	Counters      mem.Counters `json:"counters"`
	GCStats       gc.Stats     `json:"gc_stats"`
	RecordedAt    string       `json:"recorded_at"` // RFC 3339
	// Strip is set on a stripped trace's entry only (see StripInfo).
	Strip *StripInfo `json:"strip,omitempty"`
}

// StripInfo marks an index entry as a stripped trace's: the survivors of
// a trace's stream through a fused bank's strip filter of one geometry
// (cache.StripGeometry) under one strip rule (cache.StripRule), which
// replay in place of the trace into any bank of that geometry that is
// cache.FusedBank.Strippable. It holds the stream's reference-kind
// totals, which the bank adds once at Drain. The entry describes a
// stream, not a run: two runs can record the same bytes (a collector that
// never collects), and their traces share it. So besides Strip it fills
// only the schema, the format version, and the stripped blob's SHA256,
// Refs and TraceBytes, with RecordedAt the time it was built.
type StripInfo struct {
	Rule          int    `json:"strip_rule"`    // cache.StripRule
	Source        string `json:"source_sha256"` // the trace's blob
	BlockBytes    int    `json:"block_bytes"`
	CapacityBytes int    `json:"capacity_bytes"`
	Reads         uint64 `json:"reads"`
	GCReads       uint64 `json:"gc_reads"`
	Writes        uint64 `json:"writes"`
	GCWrites      uint64 `json:"gc_writes"`
}

// TraceIndex maps trace keys to their sidecar metadata. Implementations
// must be safe for concurrent use.
type TraceIndex interface {
	// Load returns the entry for key, or (nil, nil) on a clean miss.
	Load(key string) (*TraceMeta, error)
	// Save persists the entry for key, overwriting any previous one.
	Save(key string, meta *TraceMeta) error
}

// RemoteTraceIndex arbitrates recording across a cluster so each trace
// is recorded exactly once fleet-wide. A worker that misses locally
// claims the key: if the trace is already recorded anywhere it gets the
// meta back (and fetches the blob by hash); if the claim is granted it
// records and publishes; otherwise another node holds the recording
// lease and the worker polls. Leases expire server-side, so a recorder
// that dies mid-run does not wedge the key.
type RemoteTraceIndex interface {
	Claim(ctx context.Context, key string) (granted bool, recorded *TraceMeta, err error)
	Publish(ctx context.Context, key string, meta *TraceMeta) error
}

// TraceCache stores recorded traces content-addressed by (format
// version, workload, scale, collector identity). It is safe for
// concurrent use: simultaneous sweeps over the same key record once (the
// first caller records while the rest wait, then replay).
type TraceCache struct {
	dir   string // root of a dir-backed cache, "" for store-backed
	blobs castore.Store
	local castore.Store // layer serving peers; == blobs outside a cluster
	index TraceIndex
	mu    sync.Mutex
	keys  map[string]*sync.Mutex

	remote RemoteTraceIndex

	hits     atomic.Uint64
	misses   atomic.Uint64
	recorded atomic.Uint64
	fetched  atomic.Uint64
}

// TraceCacheStats counts this process's lookups against the cache: a hit
// replays an existing trace, a miss records one (Recorded) or — in a
// cluster — fetches one recorded on another node (RemoteFetches).
// Servers export these (the hit rate is what record-once/replay-many
// buys across jobs; RemoteFetches is what the fabric buys across nodes).
type TraceCacheStats struct {
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Recorded      uint64 `json:"recorded"`
	RemoteFetches uint64 `json:"remote_fetches"`
}

// Stats returns the lookup counters accumulated so far.
func (tc *TraceCache) Stats() TraceCacheStats {
	return TraceCacheStats{
		Hits:          tc.hits.Load(),
		Misses:        tc.misses.Load(),
		Recorded:      tc.recorded.Load(),
		RemoteFetches: tc.fetched.Load(),
	}
}

// Process-wide fused-replay counters, exported by gcsimd's /metrics next
// to the trace-cache hit rate: together they show how many sweeps were
// replayed and how many frame decodes were shared across a whole sweep's
// configurations.
var (
	fusedSweepCount  atomic.Uint64
	decodeOnceFrames atomic.Uint64
)

// FusedReplayStats counts this process's replayed sweeps.
type FusedReplayStats struct {
	// FusedSweeps is the number of replayed sweeps that decoded the trace
	// once and fanned each chunk out to every configuration.
	FusedSweeps uint64 `json:"fused_sweeps"`
	// DecodeOnceFrames is the total number of trace frames decoded on the
	// fused path — each decoded exactly once for the whole sweep.
	DecodeOnceFrames uint64 `json:"decode_once_frames"`
}

// FusedStats returns the fused-replay counters accumulated so far.
func FusedStats() FusedReplayStats {
	return FusedReplayStats{
		FusedSweeps:      fusedSweepCount.Load(),
		DecodeOnceFrames: decodeOnceFrames.Load(),
	}
}

// NewTraceCache opens (creating if needed) a directory-backed trace
// cache: blobs under dir/blobs named by sha256, sidecars as
// dir/<key>.json.
func NewTraceCache(dir string) (*TraceCache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: trace cache: %w", err)
	}
	blobs, err := castore.NewDir(filepath.Join(dir, "blobs"))
	if err != nil {
		return nil, fmt.Errorf("core: trace cache: %w", err)
	}
	tc := NewTraceCacheWith(blobs, &dirTraceIndex{dir: dir})
	tc.dir = dir
	return tc, nil
}

// NewTraceCacheWith builds a trace cache over any blob store and index
// combination — in-memory for tests, or a composition; recording needs
// a writable store, so a read-only HTTP peer serves only as JoinCluster's
// base.
func NewTraceCacheWith(blobs castore.Store, index TraceIndex) *TraceCache {
	return &TraceCache{
		blobs: blobs,
		local: blobs,
		index: index,
		keys:  make(map[string]*sync.Mutex),
	}
}

// JoinCluster rewires the cache into a cluster fabric: reads fall back
// to base (pulled through into the local store on first use) and
// recording rights are arbitrated by remote. Call before the cache is
// shared.
func (tc *TraceCache) JoinCluster(base castore.Store, remote RemoteTraceIndex) {
	tc.blobs = castore.NewCOW(tc.blobs, base)
	tc.remote = remote
}

// Dir returns the cache directory ("" for store-backed caches).
func (tc *TraceCache) Dir() string { return tc.dir }

// LocalBlobs returns the node-local blob store — the layer a cluster
// node serves to its peers. Serving this (never the composed store)
// keeps fleet-wide fetches loop-free.
func (tc *TraceCache) LocalBlobs() castore.Store { return tc.local }

// dirTraceIndex is the directory-backed index: one <key>.json sidecar
// per entry, written atomically.
type dirTraceIndex struct{ dir string }

func (d *dirTraceIndex) Load(key string) (*TraceMeta, error) {
	data, err := os.ReadFile(filepath.Join(d.dir, key+".json"))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("core: trace cache: %w", err)
	}
	var meta TraceMeta
	if err := json.Unmarshal(data, &meta); err != nil {
		return nil, fmt.Errorf("core: trace cache: %s.json: %w", key, err)
	}
	return &meta, nil
}

func (d *dirTraceIndex) Save(key string, meta *TraceMeta) error {
	data, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return fmt.Errorf("core: trace cache: %w", err)
	}
	path := filepath.Join(d.dir, key+".json")
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("core: trace cache: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("core: trace cache: %w", err)
	}
	return nil
}

// MemTraceIndex is an in-memory TraceIndex for tests and ephemeral
// caches.
type MemTraceIndex struct {
	mu sync.Mutex
	m  map[string]*TraceMeta
}

// NewMemTraceIndex returns an empty in-memory index.
func NewMemTraceIndex() *MemTraceIndex { return &MemTraceIndex{m: make(map[string]*TraceMeta)} }

func (mi *MemTraceIndex) Load(key string) (*TraceMeta, error) {
	mi.mu.Lock()
	defer mi.mu.Unlock()
	meta := mi.m[key]
	if meta == nil {
		return nil, nil
	}
	cp := *meta
	return &cp, nil
}

func (mi *MemTraceIndex) Save(key string, meta *TraceMeta) error {
	mi.mu.Lock()
	defer mi.mu.Unlock()
	cp := *meta
	mi.m[key] = &cp
	return nil
}

// Process-wide active trace cache, installed by the CLIs' -trace-cache
// flag (the SetVerifyHeap pattern). When set, RunSweep — and therefore
// RunSweepPerConfig — goes through the record/replay path.
var (
	traceCacheMu sync.RWMutex
	traceCache   *TraceCache
)

// SetTraceCache installs the trace cache subsequent sweeps record to and
// replay from. Pass nil to disable.
func SetTraceCache(tc *TraceCache) {
	traceCacheMu.Lock()
	defer traceCacheMu.Unlock()
	traceCache = tc
}

// ActiveTraceCache returns the installed trace cache, or nil.
func ActiveTraceCache() *TraceCache {
	traceCacheMu.RLock()
	defer traceCacheMu.RUnlock()
	return traceCache
}

// traceKey derives the content address. Everything that determines the
// reference stream is in the preimage: the trace format version, the VM
// code shape version (packed word layout, superinstruction set, cost
// table — see vm.CodeShapeVersion), the workload and scale (which fix the
// program), and the collector identity (which fixes every
// construction-time parameter that changes collection behaviour — see
// gc.Identity).
func traceKey(workload string, scale int, identity string) string {
	id := castore.Sum([]byte(fmt.Sprintf("gcsim-trace|v%d|c%d|%s|s%d|%s",
		traceio.FormatVersion, vm.CodeShapeVersion, workload, scale, identity)))
	return id.String()[:24]
}

// TraceKeyFor exposes the content key derivation to cluster components
// (the coordinator indexes its fleet-wide trace table by this key).
func TraceKeyFor(workload string, scale int, identity string) string {
	return traceKey(workload, scale, identity)
}

func (tc *TraceCache) keyLock(key string) *sync.Mutex {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	l := tc.keys[key]
	if l == nil {
		l = &sync.Mutex{}
		tc.keys[key] = l
	}
	return l
}

func collectorIdentity(col gc.Collector) string {
	if col == nil {
		return "none" // Run substitutes NoGC
	}
	return gc.Identity(col)
}

// ensure returns the trace for (w, scale, col), recording it with a
// single VM run — or, in a cluster, fetching it from whichever node
// recorded it — if the local cache does not hold it yet. scale must
// already be normalized (non-zero).
func (tc *TraceCache) ensure(ctx context.Context, w *workloads.Workload, scale int, col gc.Collector) (*TraceMeta, error) {
	identity := collectorIdentity(col)
	key := traceKey(w.Name, scale, identity)

	ctx, span := Spans().StartSpan(ctx, telemetry.StageTraceLookup)
	span.SetAttr("workload", w.Name)
	defer span.End()

	l := tc.keyLock(key)
	l.Lock()
	defer l.Unlock()

	meta, err := tc.loadLocal(ctx, key, w.Name, scale, identity)
	if err != nil {
		return nil, err
	}
	if meta != nil {
		tc.hits.Add(1)
		span.SetAttr("result", "hit")
		return meta, nil
	}
	tc.misses.Add(1)

	if tc.remote != nil {
		meta, err := tc.ensureViaCluster(ctx, w, scale, col, identity, key, span)
		if err != nil {
			return nil, err
		}
		return meta, nil
	}

	span.SetAttr("result", "miss")
	return tc.record(ctx, w, scale, col, identity, key)
}

// ensureViaCluster resolves a local miss through the cluster's trace
// index: fetch the meta if any node already recorded the trace, record
// and publish if this node wins the recording lease, or poll while
// another node records.
func (tc *TraceCache) ensureViaCluster(ctx context.Context, w *workloads.Workload, scale int, col gc.Collector, identity, key string, span *telemetry.ActiveSpan) (*TraceMeta, error) {
	for {
		granted, recorded, err := tc.remote.Claim(ctx, key)
		if err != nil {
			return nil, fmt.Errorf("core: trace cache: cluster claim for %s: %w", key, err)
		}
		if recorded != nil {
			if err := validateTraceMeta(recorded, key, w.Name, scale, identity); err != nil {
				return nil, err
			}
			if err := tc.index.Save(key, recorded); err != nil {
				return nil, err
			}
			tc.fetched.Add(1)
			span.SetAttr("result", "remote")
			progress().Printf("trace cache: %s gc=%s recorded elsewhere, fetching by hash %s",
				w.Name, identity, recorded.SHA256[:16])
			return recorded, nil
		}
		if granted {
			span.SetAttr("result", "miss")
			meta, err := tc.record(ctx, w, scale, col, identity, key)
			if err != nil {
				return nil, err
			}
			if err := tc.remote.Publish(ctx, key, meta); err != nil {
				return nil, fmt.Errorf("core: trace cache: cluster publish for %s: %w", key, err)
			}
			return meta, nil
		}
		// Another node holds the recording lease: poll until it publishes
		// (or its lease expires and a later Claim grants us the key).
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(300 * time.Millisecond):
		}
	}
}

// loadLocal reads and validates the local index entry for key; (nil,
// nil) means a clean miss. A sidecar whose identity fields disagree with
// the request is an error, not a miss: silently re-recording over it
// would hide either a key collision or a tampered cache.
func (tc *TraceCache) loadLocal(ctx context.Context, key, workload string, scale int, identity string) (*TraceMeta, error) {
	meta, err := tc.index.Load(key)
	if err != nil || meta == nil {
		return nil, err
	}
	if err := validateTraceMeta(meta, key, workload, scale, identity); err != nil {
		return nil, err
	}
	id, err := castore.ParseID(meta.SHA256)
	if err != nil {
		return nil, fmt.Errorf("core: trace cache: %s: bad sha256: %w", key, err)
	}
	ok, err := tc.blobs.Exists(ctx, id)
	if err != nil {
		return nil, fmt.Errorf("core: trace cache: %w", err)
	}
	if !ok {
		return nil, fmt.Errorf("core: trace cache: sidecar %s present but trace blob %s missing", key, meta.SHA256)
	}
	return meta, nil
}

func validateTraceMeta(meta *TraceMeta, key, workload string, scale int, identity string) error {
	if meta.Schema != TraceMetaSchema {
		return fmt.Errorf("core: trace cache: %s: schema %q, want %q", key, meta.Schema, TraceMetaSchema)
	}
	if meta.Workload != workload || meta.Scale != scale || meta.Identity != identity ||
		meta.FormatVersion != traceio.FormatVersion || meta.VMCodeShape != vm.CodeShapeVersion {
		return fmt.Errorf("core: trace cache: %s describes %s/s%d/%s (format v%d, code shape c%d), want %s/s%d/%s (format v%d, code shape c%d)",
			key, meta.Workload, meta.Scale, meta.Identity, meta.FormatVersion, meta.VMCodeShape,
			workload, scale, identity, traceio.FormatVersion, vm.CodeShapeVersion)
	}
	return nil
}

// countWriter counts bytes on their way into a blob writer.
type countWriter struct {
	w io.Writer
	n int64
}

func (cw *countWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// record runs the VM once with a trace writer attached and streams the
// result into the blob store (hash computed as the bytes are written),
// then files the sidecar. Blob first, sidecar second: a crash in
// between leaves a blob without an index entry (a miss, re-recorded
// next time), never a sidecar pointing at a missing or torn trace.
func (tc *TraceCache) record(ctx context.Context, w *workloads.Workload, scale int, col gc.Collector, identity, key string) (_ *TraceMeta, err error) {
	progress().Printf("trace cache: recording %s gc=%s", w.Name, identity)
	ctx, span := Spans().StartSpan(ctx, telemetry.StageTraceRecord)
	span.SetAttr("workload", w.Name)
	defer span.End()

	blobw, err := castore.Ingest(ctx, tc.blobs)
	if err != nil {
		return nil, fmt.Errorf("core: trace cache: %w", err)
	}
	defer func() {
		if err != nil {
			blobw.Abort()
		}
	}()

	cw := &countWriter{w: blobw}
	bw, err := traceio.NewBatchWriter(cw, traceio.WriterOpts{})
	if err != nil {
		return nil, fmt.Errorf("core: trace cache: %w", err)
	}
	// Deferred after blobw.Abort, so it runs first: on an error path the
	// writer's encoder goroutine may still be writing into the blob. After
	// Close it does nothing.
	defer bw.Abort()
	spec := RunSpec{
		Workload:  w,
		Scale:     scale,
		Collector: col,
		Tracer:    bw,
		Label:     "trace-record",
		// The writer stamps each frame with the machine's instruction
		// count as the (paused) machine publishes the chunk — the same
		// value a live bank's snapshot clock would read — so replayed
		// telemetry snapshots land on identical instruction counts.
		OnMachine: func(m *vm.Machine) { bw.SetClock(m.Insns) },
	}
	res, err := Run(ctx, spec)
	if err != nil {
		return nil, err
	}
	if err = bw.Close(); err != nil {
		return nil, fmt.Errorf("core: trace cache: %w", err)
	}
	span.SetAttr("refs", fmt.Sprint(bw.Count()))
	span.SetAttr("bytes", fmt.Sprint(cw.n))
	span.SetAttr("encode_s", fmt.Sprintf("%.6f", bw.EncodeSeconds()))
	span.SetAttr("handoff_s", fmt.Sprintf("%.6f", bw.HandoffSeconds()))
	id, err := blobw.Commit()
	if err != nil {
		return nil, fmt.Errorf("core: trace cache: %w", err)
	}

	meta := &TraceMeta{
		Schema:        TraceMetaSchema,
		Workload:      w.Name,
		Scale:         scale,
		Collector:     res.Collector,
		Identity:      identity,
		FormatVersion: traceio.FormatVersion,
		VMCodeShape:   vm.CodeShapeVersion,
		SHA256:        id.String(),
		Refs:          bw.Count(),
		TraceBytes:    cw.n,
		Checksum:      res.Checksum,
		Insns:         res.Insns,
		GCInsns:       res.GCInsns,
		Counters:      res.Counters,
		GCStats:       res.GCStats,
		RecordedAt:    time.Now().UTC().Format(time.RFC3339),
	}
	if res.Record != nil {
		res.Record.Trace = &telemetry.TraceRecord{
			Source:        "record",
			SHA256:        meta.SHA256,
			Refs:          meta.Refs,
			FormatVersion: meta.FormatVersion,
		}
	}
	if err = tc.index.Save(key, meta); err != nil {
		return nil, err
	}
	tc.recorded.Add(1)
	progress().Printf("trace cache: recorded %s gc=%s: %d refs, %d bytes (%.2f bytes/ref)",
		w.Name, identity, meta.Refs, meta.TraceBytes, float64(meta.TraceBytes)/float64(max(meta.Refs, 1)))
	return meta, nil
}

// runSweep is RunSweep's record/replay path: ensure the trace exists (one
// VM run at most, ever — cluster-wide when a remote index is wired), then
// drive the shared sweep path from the trace: a SharedReplayer decodes
// each frame exactly once and the fused bank simulates the chunk against
// every configuration, with no per-config decode and no per-ref dispatch.
// A bank that can take a stripped trace (openStream) replays the one of
// its filter geometry, or builds it while it replays the trace. The cache
// only ever holds v2 traces (the format version is part of the key), so a
// blob the shared decoder refuses is a corrupt entry.
func (tc *TraceCache) runSweep(ctx context.Context, w *workloads.Workload, scale int, col gc.Collector, cfgs []cache.Config) (*SweepResult, error) {
	if scale == 0 {
		scale = w.DefaultScale
	}
	meta, err := tc.ensure(ctx, w, scale, col)
	if err != nil {
		return nil, err
	}

	// Snapshots need no clock wiring: every frame carries the instruction
	// stamp the recording machine published at that chunk boundary, and
	// ChunkBatch samples at those stamps — snapshots land on identical
	// insns_at values to a live run's.
	return sweep(cfgs, func(bank *cache.FusedBank) (*RunResult, error) {
		in, err := tc.openStream(ctx, meta, cfgs, bank)
		if err != nil {
			return nil, err
		}
		// Deferred calls run last first: a sharded bank tees on its filter
		// stage, so the bank drains before an unfiled build is aborted.
		defer in.close()
		defer bank.Drain()

		sr, err := traceio.NewSharedReplayer(in.f)
		if err != nil {
			return nil, fmt.Errorf("core: trace cache: corrupt entry %s: %w", in.meta.SHA256, err)
		}
		fusedSweepCount.Add(1)
		sr.SetDecoders(Parallelism())
		prog := progress()
		prog.Printf("replay %s gc=%s started (%d refs cached, fused across %d configs, %s stream)",
			w.Name, meta.Collector, meta.Refs, len(cfgs), in.stream)
		spanCtx, span := Spans().StartSpan(ctx, telemetry.StageReplay)
		span.SetAttr("path", "fused")
		span.SetAttr("stream", in.stream)
		span.SetAttr("configs", fmt.Sprint(len(cfgs)))
		start := time.Now()
		n, err := sr.Run(ctx, bank)
		bank.Drain() // the stage clocks and the wall time include the workers' tail
		dur := time.Since(start)
		span.End()
		emitReplayStages(spanCtx, start, sr.DecodeSeconds(), sr.Frames(), bank)
		decodeOnceFrames.Add(sr.Frames())

		switch {
		case err != nil && ctx.Err() != nil:
			// Match the live path's contract: the error satisfies both
			// ctx.Err() and vm.ErrInterrupted under errors.Is.
			err = fmt.Errorf("%w: %w", vm.ErrInterrupted, err)
		case err == nil && n != in.meta.Refs:
			err = fmt.Errorf("core: trace cache: %s replayed %d refs, sidecar says %d — corrupt entry?",
				in.meta.SHA256, n, in.meta.Refs)
		}
		if err != nil {
			prog.Printf("replay %s gc=%s failed: %v", w.Name, meta.Collector, err)
		} else {
			prog.Printf("replay %s gc=%s done in %.2fs: %d refs (%.1fM refs/s)",
				w.Name, meta.Collector, dur.Seconds(), n, float64(n)/1e6/max(dur.Seconds(), 1e-9))
			tc.fileStripped(in, bank)
		}

		run := &RunResult{
			Workload:  meta.Workload,
			Collector: meta.Collector,
			Checksum:  meta.Checksum,
			Insns:     meta.Insns,
			GCInsns:   meta.GCInsns,
			Counters:  meta.Counters,
			GCStats:   meta.GCStats,
		}
		if sess := TelemetrySession(); sess != nil {
			rec := newRunRecord(RunSpec{Workload: w, Scale: scale, Collector: col}, run, nil, dur, 0)
			rec.Trace = traceProvenance("replay", meta)
			if err != nil {
				rec.Status = telemetry.StatusFailed
				if errors.Is(err, vm.ErrInterrupted) {
					rec.Status = telemetry.StatusInterrupted
				}
				rec.Error = err.Error()
			}
			run.Record = rec
			sess.Add(rec)
		}
		return run, err
	})
}

// replayStream is the stream a replay reads: a trace's blob or one of its
// stripped traces', and, while a strippable bank replays a trace with no
// stripped trace of its geometry filed, the build of that one.
type replayStream struct {
	meta   *TraceMeta // the entry of the blob read
	stream string     // "full" or "stripped": the replay span's stream
	f      io.ReadSeekCloser
	build  *stripBuild
}

// stripBuild writes the survivors a bank tees out (cache.FusedBank.
// TeeSurvivors) into a trace blob, filed under key once the replay that
// feeds the bank completes. It holds key's lock until it is filed or
// discarded.
type stripBuild struct {
	key             string
	lock            *sync.Mutex
	block, capacity int
	blob            castore.BlobWriter
	cw              *countWriter
	bw              *traceio.BatchWriter
}

// openStream opens the stream a replay of meta's trace into bank reads. A
// bank that is Strippable replays the stripped trace of its filter's
// geometry, if one is filed and its blob is on this node; if not, it
// replays the trace and tees its survivors into a build of one. Any other
// bank replays the trace. Stripped traces are built, filed and read on
// the node's own blob store and index, and never claimed or published
// through a cluster.
func (tc *TraceCache) openStream(ctx context.Context, meta *TraceMeta, cfgs []cache.Config, bank *cache.FusedBank) (*replayStream, error) {
	in := &replayStream{meta: meta, stream: "full"}
	if block, capacity, ok := cache.StripGeometry(cfgs); ok && bank.Strippable() {
		key := stripKey(meta.SHA256, block, capacity)
		sm, err := tc.loadStripped(ctx, key, meta, block, capacity)
		if err != nil {
			return nil, err
		}
		if sm != nil {
			si := sm.Strip
			bank.FeedStripped([4]uint64{si.Reads, si.GCReads, si.Writes, si.GCWrites}) // the bank is Strippable
			f, err := openBlob(ctx, tc.local, sm.SHA256)
			if err != nil {
				return nil, err
			}
			return &replayStream{meta: sm, stream: "stripped", f: f}, nil
		}
		in.build = tc.startStrip(ctx, key, block, capacity, bank)
	}
	f, err := openBlob(ctx, tc.blobs, meta.SHA256)
	if err != nil {
		in.close()
		return nil, err
	}
	in.f = f
	return in, nil
}

// close closes the blob and discards a build not filed. A sharded bank
// tees on its filter stage, so call it only once the bank has drained.
func (in *replayStream) close() {
	if in.f != nil {
		in.f.Close()
	}
	if b := in.build; b != nil {
		b.bw.Abort()
		b.blob.Abort()
		b.lock.Unlock()
	}
}

// openBlob opens the blob whose sha256 an entry names.
func openBlob(ctx context.Context, blobs castore.Store, sha string) (io.ReadSeekCloser, error) {
	id, err := castore.ParseID(sha)
	if err != nil {
		return nil, fmt.Errorf("core: trace cache: bad sha256 in sidecar: %w", err)
	}
	// With a COW store, opening the blob is where a trace recorded on
	// another node is pulled through into local storage — once.
	f, err := castore.Open(ctx, blobs, id)
	if err != nil {
		return nil, fmt.Errorf("core: trace cache: open trace %s: %w", sha, err)
	}
	return f, nil
}

// stripKey derives the index key of the stripped trace of the trace whose
// blob is sha, through a strip filter of block-byte blocks and capacity
// bytes under the current strip rule (cache.StripRule), so survivors
// filed under an older rule are never found.
func stripKey(sha string, block, capacity int) string {
	id := castore.Sum([]byte(fmt.Sprintf("gcsim-strip|r%d|%s|b%d|c%d", cache.StripRule, sha, block, capacity)))
	return id.String()[:24]
}

// loadStripped returns the stripped trace filed under key for meta's
// trace, or nil when none is filed or its blob is gone: a miss, which the
// replay builds again. An entry that describes another trace, geometry,
// strip rule or format, or whose kind totals do not add up to the trace's
// references, is an error, as a trace's mismatched sidecar is (loadLocal).
func (tc *TraceCache) loadStripped(ctx context.Context, key string, meta *TraceMeta, block, capacity int) (*TraceMeta, error) {
	sm, err := tc.index.Load(key)
	if err != nil || sm == nil {
		return nil, err
	}
	si := sm.Strip
	if sm.Schema != TraceMetaSchema || sm.FormatVersion != traceio.FormatVersion || si == nil ||
		si.Rule != cache.StripRule || si.Source != meta.SHA256 || si.BlockBytes != block || si.CapacityBytes != capacity ||
		si.Reads+si.GCReads+si.Writes+si.GCWrites != meta.Refs {
		return nil, fmt.Errorf("core: trace cache: %s is not the v%d stripped trace of %s through a %d-byte filter of %d-byte blocks under strip rule %d",
			key, traceio.FormatVersion, meta.SHA256, capacity, block, cache.StripRule)
	}
	id, err := castore.ParseID(sm.SHA256)
	if err != nil {
		return nil, fmt.Errorf("core: trace cache: %s: bad sha256: %w", key, err)
	}
	ok, err := tc.local.Exists(ctx, id)
	if err != nil {
		return nil, fmt.Errorf("core: trace cache: %w", err)
	}
	if !ok {
		return nil, nil
	}
	return sm, nil
}

// startStrip starts the build of the stripped trace under key and tees
// bank's survivors into it. It returns nil, and the replay goes on without
// a build, while another sweep of this process builds the same one (two
// would write one sidecar at once), or if the blob or its writer cannot
// be started.
func (tc *TraceCache) startStrip(ctx context.Context, key string, block, capacity int, bank *cache.FusedBank) *stripBuild {
	lock := tc.keyLock(key)
	if !lock.TryLock() {
		return nil
	}
	blob, err := castore.Ingest(ctx, tc.local)
	if err != nil {
		lock.Unlock()
		progress().Printf("trace cache: not stripping: %v", err)
		return nil
	}
	cw := &countWriter{w: blob}
	bw, err := traceio.NewBatchWriter(cw, traceio.WriterOpts{})
	if err != nil {
		blob.Abort()
		lock.Unlock()
		progress().Printf("trace cache: not stripping: %v", err)
		return nil
	}
	bank.TeeSurvivors(bw) // openStream found the bank Strippable, and not fed
	return &stripBuild{key: key, lock: lock, block: block, capacity: capacity, blob: blob, cw: cw, bw: bw}
}

// fileStripped seals the build of a completed replay, if there is one,
// and files its entry: the blob first and the entry second, as record
// does. A build that fails files nothing and does not fail the sweep; the
// next sweep of the geometry builds again.
func (tc *TraceCache) fileStripped(in *replayStream, bank *cache.FusedBank) {
	b := in.build
	if b == nil {
		return
	}
	in.build = nil
	defer b.lock.Unlock()
	err := b.bw.Close()
	if err != nil {
		b.blob.Abort()
	}
	var id castore.ID
	if err == nil {
		id, err = b.blob.Commit()
	}
	if err == nil {
		k := bank.KindTotals()
		err = tc.index.Save(b.key, &TraceMeta{
			Schema:        TraceMetaSchema,
			FormatVersion: traceio.FormatVersion,
			SHA256:        id.String(),
			Refs:          b.bw.Count(),
			TraceBytes:    b.cw.n,
			RecordedAt:    time.Now().UTC().Format(time.RFC3339),
			Strip: &StripInfo{Rule: cache.StripRule, Source: in.meta.SHA256, BlockBytes: b.block, CapacityBytes: b.capacity,
				Reads: k[0], GCReads: k[1], Writes: k[2], GCWrites: k[3]},
		})
	}
	if err != nil {
		progress().Printf("trace cache: stripped trace of %s not filed: %v", in.meta.SHA256[:16], err)
		return
	}
	progress().Printf("trace cache: stripped %s through %d-byte blocks of %d bytes: %d of %d refs, %d bytes",
		in.meta.SHA256[:16], b.block, b.capacity, b.bw.Count(), in.meta.Refs, b.cw.n)
}

// emitReplayStages records the fused sweep's stage clocks as synthesized
// child spans of the replay span (ctx must carry it). The clocks are
// per-chunk measurements summed across decoder goroutines and lanes, so
// each child is an aggregate — marked as such, sharing the replay's start
// time — and their durations can exceed the replay's wall time. The
// decode span carries the frames decoded, and the simulate span the
// bank's strip filter counts (strip_offered, strip_kept; see
// FusedBank.StripRefs).
func emitReplayStages(ctx context.Context, start time.Time, decodeSec float64, frames uint64, bank *cache.FusedBank) {
	r := Spans()
	if r == nil {
		return
	}
	agg := map[string]string{"aggregate": "true"}
	dec := map[string]string{"aggregate": "true", "frames": fmt.Sprint(frames)}
	offered, kept := bank.StripRefs()
	sim := map[string]string{"aggregate": "true", "strip_offered": fmt.Sprint(offered), "strip_kept": fmt.Sprint(kept)}
	r.Emit(ctx, telemetry.StageDecode, start, time.Duration(decodeSec*float64(time.Second)), dec)
	r.Emit(ctx, telemetry.StageSimulate, start, time.Duration(bank.SimulateSeconds()*float64(time.Second)), sim)
	r.Emit(ctx, telemetry.StageMerge, start, time.Duration(bank.MergeSeconds()*float64(time.Second)), agg)
}

func traceProvenance(source string, meta *TraceMeta) *telemetry.TraceRecord {
	return &telemetry.TraceRecord{
		Source:        source,
		SHA256:        meta.SHA256,
		Refs:          meta.Refs,
		FormatVersion: meta.FormatVersion,
	}
}
