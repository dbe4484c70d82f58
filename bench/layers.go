package main

import (
	"io"
	"sync/atomic"
	"time"

	"gcsim/internal/castore"
	"gcsim/internal/gc"
	"gcsim/internal/mem"
	"gcsim/internal/telemetry"
	"gcsim/internal/traceio"
)

// The traced run times each layer from outside, around calls into the
// layer's public functions. Every wrapper below forwards to the real
// object unchanged, so a traced unit of work computes exactly what an
// untraced one does; the checks compare both against the same oracle.

// metric is one line of BENCHMARK.json's end_to_end or per_layer lists.
type metric struct {
	name, unit, better string
	bound              float64 // end-to-end only
}

// endToEnd are the metrics an untraced run prints. A unit of work is one
// sweep (live-sweep, replay-grid), one recording round of the five
// programs (record), or one job from submit to rendered report (jobs).
var endToEnd = []metric{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "wall_s", unit: "s", better: "lower", bound: 0.25},
	{name: "wall_p95_s", unit: "s", better: "lower", bound: 0.25},
	{name: "trace_mb", unit: "MB", better: "lower", bound: 0.01},
	{name: "peak_live_mb", unit: "MB", better: "lower", bound: 0.10},
}

// perLayer are the metrics a traced run prints. Times and counts are
// medians over the traced units of work; a layer a workload never calls
// reads 0.
var perLayer = []metric{
	{name: "vm.interpret_s", unit: "s", better: "lower"},
	{name: "gc.collect_s", unit: "s", better: "lower"},
	{name: "gc.collections", unit: "count", better: "lower"},
	{name: "gc.copied_words", unit: "count", better: "lower"},
	{name: "mem.chunks", unit: "count", better: "lower"},
	{name: "cache.consume_s", unit: "s", better: "lower"},
	{name: "cache.drain_s", unit: "s", better: "lower"},
	{name: "cache.simulate_s", unit: "s", better: "lower"},
	{name: "cache.merge_s", unit: "s", better: "lower"},
	{name: "cache.ns_per_config_ref", unit: "ns", better: "lower"},
	{name: "traceio.decode_s", unit: "s", better: "lower"},
	{name: "traceio.frames", unit: "count", better: "lower"},
	{name: "traceio.stall_s", unit: "s", better: "lower"},
	{name: "traceio.encode_s", unit: "s", better: "lower"},
	{name: "traceio.bytes_per_ref", unit: "B", better: "lower"},
	{name: "castore.get_s", unit: "s", better: "lower"},
	{name: "castore.get_mb", unit: "MB", better: "lower"},
	{name: "castore.put_s", unit: "s", better: "lower"},
	{name: "server.submit_s", unit: "s", better: "lower"},
	{name: "server.fetch_s", unit: "s", better: "lower"},
	{name: "server.queue_s", unit: "s", better: "lower"},
	{name: "server.sweep_s", unit: "s", better: "lower"},
	{name: "server.report_s", unit: "s", better: "lower"},
	{name: "report.render_s", unit: "s", better: "lower"},
	{name: "core.trace_hit_ratio", unit: "ratio", better: "higher"},
	{name: "unattributed_frac", unit: "frac", better: "lower"},
	{name: "trace_overhead_frac", unit: "frac", better: "lower"},
}

// layerStage names the gcsim-span/v1 stage each timed layer's span is
// recorded under. The schema fixes the stage names, so the layer's own
// metric name travels in the span's "layer" attribute.
var layerStage = map[string]string{
	"vm.interpret_s":   telemetry.StageRunVM,
	"gc.collect_s":     telemetry.StageRunVM,
	"cache.consume_s":  telemetry.StageSimulate,
	"cache.drain_s":    telemetry.StageMerge,
	"cache.simulate_s": telemetry.StageSimulate,
	"cache.merge_s":    telemetry.StageMerge,
	"traceio.decode_s": telemetry.StageDecode,
	"traceio.stall_s":  telemetry.StageDecode,
	"traceio.encode_s": telemetry.StageTraceRecord,
	"castore.get_s":    telemetry.StageTraceLookup,
	"castore.put_s":    telemetry.StageTraceRecord,
	"server.submit_s":  telemetry.StageQueue,
	"server.fetch_s":   telemetry.StageReport,
	"report.render_s":  telemetry.StageReport,
}

// layers holds one traced unit of work's per-layer values, keyed by
// per-layer metric name.
type layers map[string]float64

// batchTracer is what a cache bank and a trace writer both are.
type batchTracer interface {
	mem.Tracer
	mem.BatchTracer
}

// timedTracer forwards the VM's reference chunks to a cache bank or a
// trace writer and times each hand-over. Memory delivers every chunk
// through RefBatch on the VM goroutine, so plain fields suffice.
type timedTracer struct {
	next   batchTracer
	ns     int64
	chunks int64
}

// Ref forwards untimed: Memory never calls it on a batch-capable tracer.
func (t *timedTracer) Ref(addr uint64, write, collector bool) { t.next.Ref(addr, write, collector) }

func (t *timedTracer) RefBatch(refs []mem.Ref) {
	t0 := time.Now()
	t.next.RefBatch(refs)
	t.ns += int64(time.Since(t0))
	t.chunks++
}

// timedCheney is the Cheney collector with Collect timed. A chunk sealed
// by a collector reference is delivered inside Collect; that tracer time
// is subtracted, so collect and consume never count the same interval.
// Only Cheney is wrapped: the VM type-asserts the generational collector.
type timedCheney struct {
	*gc.Cheney
	tracer *timedTracer
	ns     int64
}

func (c *timedCheney) Collect() {
	t0, in0 := time.Now(), c.tracer.ns
	c.Cheney.Collect()
	c.ns += int64(time.Since(t0)) - (c.tracer.ns - in0)
}

// timedReader times reads from a castore blob. The shared replayer reads
// on its own goroutine, hence the atomics.
type timedReader struct {
	r     io.Reader
	ns    atomic.Int64
	bytes atomic.Int64
}

func (t *timedReader) Read(p []byte) (int, error) {
	t0 := time.Now()
	n, err := t.r.Read(p)
	t.ns.Add(int64(time.Since(t0)))
	t.bytes.Add(int64(n))
	return n, err
}

// timedSink times the fused bank's consumption of decoded chunks, which
// the shared replayer delivers on the goroutine that called Run.
type timedSink struct {
	next traceio.ChunkSink
	ns   int64
}

func (s *timedSink) ChunkBatch(refs []mem.Ref, insnsAt uint64) {
	t0 := time.Now()
	s.next.ChunkBatch(refs, insnsAt)
	s.ns += int64(time.Since(t0))
}

// timedBlobWriter times the castore side of a recording: the bytes the
// trace writer flushes into the blob (hashed and written to disk) and
// the commit that syncs and files it.
type timedBlobWriter struct {
	castore.BlobWriter
	writeNs, commitNs int64
}

func (w *timedBlobWriter) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := w.BlobWriter.Write(p)
	w.writeNs += int64(time.Since(t0))
	return n, err
}

func (w *timedBlobWriter) Commit() (castore.ID, error) {
	t0 := time.Now()
	id, err := w.BlobWriter.Commit()
	w.commitNs += int64(time.Since(t0))
	return id, err
}

func seconds(ns int64) float64 { return float64(ns) / 1e9 }
