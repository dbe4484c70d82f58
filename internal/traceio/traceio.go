// Package traceio captures and replays reference traces, supporting the
// paper's methodology — trace-driven cache simulation — without re-running
// the virtual machine. A BatchWriter records every reference a Memory
// emits in trace format v2 (framed chunks, see format2.go); a trace can
// later be replayed into any tracer (a cache, a bank, a behaviour
// analyzer) with Replay or a Replayer, or decoded once for a whole sweep
// with a SharedReplayer (see replay.go).
//
// Format v2 is the only format read or written. Files in the retired flat
// per-reference format v1 are recognised by their magic header and
// refused with an error that says how to re-capture them.
package traceio

// magicV1 identifies retired format v1 trace files.
const magicV1 = "GCSIMTRACE1\n"
