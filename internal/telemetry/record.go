// Package telemetry is the instrumentation layer of the simulator: every
// run can emit a canonical JSON run record (workload, collector, cache
// configurations, overheads, per-collection GC events, periodic cache
// snapshots, and a host manifest), so the performance trajectory of the
// repository is machine-readable across commits.
//
// The layer is allocation-conscious by design: nothing here runs on the
// per-reference hot path. GC events are assembled once per collection from
// collector-stat deltas, cache snapshots are taken at chunk boundaries of
// the batch reference pipeline, and everything else is computed after the
// run from counters the simulator already maintains. The layer measures
// its own cost (the telemetry field of the record) so regressions in the
// instrumentation itself are visible.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"gcsim/internal/cache"
	"gcsim/internal/gc"
	"gcsim/internal/mem"
)

// SchemaName identifies the run-record schema; bump the version when the
// record shape changes incompatibly.
const SchemaName = "gcsim-run-record/v1"

// Run statuses. A record always carries one: "complete" for a run that
// finished, "interrupted" for one stopped by cancellation, a deadline, or
// a signal, and "failed" for a run that died on an error. Interrupted and
// failed records are partial — their counters cover the truncated run —
// but remain schema-valid, so an aborted sweep still leaves evidence.
const (
	StatusComplete    = "complete"
	StatusInterrupted = "interrupted"
	StatusFailed      = "failed"
)

// RunRecord is the canonical result of one simulated program run.
type RunRecord struct {
	Schema    string `json:"schema"`
	Tool      string `json:"tool"`
	Label     string `json:"label,omitempty"` // experiment ID or caller tag
	Workload  string `json:"workload"`
	Scale     int    `json:"scale"`
	Collector string `json:"collector"`
	Checksum  int64  `json:"checksum"`

	// Status is one of StatusComplete, StatusInterrupted, StatusFailed.
	Status string `json:"status"`
	// Error holds the failure message for non-complete runs.
	Error string `json:"error,omitempty"`
	// CompletedConfigs names the cache configurations whose statistics in
	// Caches cover the full run (for partial records, caches reflect only
	// the truncated reference stream and are not listed here).
	CompletedConfigs []string `json:"completed_configs,omitempty"`

	Insns       uint64  `json:"insns"`    // I_prog
	GCInsns     uint64  `json:"gc_insns"` // I_gc
	Refs        uint64  `json:"refs"`     // program data references
	GCRefs      uint64  `json:"gc_refs"`  // collector data references
	RefsPerInsn float64 `json:"refs_per_insn"`

	AllocWords         uint64 `json:"alloc_words"`
	AllocObjects       uint64 `json:"alloc_objects"`
	HeapHighWaterBytes uint64 `json:"heap_high_water_bytes"`

	DurationSeconds float64 `json:"duration_seconds"` // host wall clock

	GC     GCRecord      `json:"gc"`
	Caches []CacheRecord `json:"caches"`

	// Trace records reference-stream provenance when the run recorded a
	// trace or was driven by replaying one (nil for ordinary live runs).
	Trace *TraceRecord `json:"trace,omitempty"`

	SnapshotIntervalInsns uint64 `json:"snapshot_interval_insns,omitempty"`

	Telemetry Overhead `json:"telemetry"`
	Host      Manifest `json:"host"`
}

// TraceRecord is the provenance of a run's reference stream: where it
// came from ("record": this run produced the trace; "replay": the run's
// cache statistics were computed by replaying it), the content hash that
// names it in a trace cache, and its size.
type TraceRecord struct {
	Source        string `json:"source"` // "record" or "replay"
	SHA256        string `json:"sha256"`
	Refs          uint64 `json:"refs"`
	FormatVersion int    `json:"format_version"`
}

// GCRecord aggregates collector activity plus the bounded event stream.
type GCRecord struct {
	Collections      uint64 `json:"collections"`
	MajorCollections uint64 `json:"major_collections"`
	CopiedWords      uint64 `json:"copied_words"`
	CopiedObjects    uint64 `json:"copied_objects"`
	ScannedSlots     uint64 `json:"scanned_slots"`
	BarrierChecks    uint64 `json:"barrier_checks"`
	BarrierHits      uint64 `json:"barrier_hits"`
	LiveAfterLast    uint64 `json:"live_after_last_words"`

	EventsDropped uint64          `json:"events_dropped"`
	Events        []GCEventRecord `json:"events"`
}

// GCEventRecord is one collection on the run's timeline.
type GCEventRecord struct {
	Seq              uint64  `json:"seq"`
	Kind             string  `json:"kind"` // "minor" or "major"
	TriggerHeapWords uint64  `json:"trigger_heap_words"`
	LiveWords        uint64  `json:"live_words"`
	CopiedWords      uint64  `json:"copied_words"`
	CopiedObjects    uint64  `json:"copied_objects"`
	ScannedSlots     uint64  `json:"scanned_slots"`
	SurvivalRatio    float64 `json:"survival_ratio"`
	PauseInsns       uint64  `json:"pause_insns"`
	InsnsAt          uint64  `json:"insns_at"`
}

// EventRecord converts a gc.Event for the JSON record and JSONL streams.
func EventRecord(e gc.Event) GCEventRecord {
	return GCEventRecord{
		Seq:              e.Seq,
		Kind:             e.Kind(),
		TriggerHeapWords: e.TriggerHeapWords,
		LiveWords:        e.LiveWords,
		CopiedWords:      e.CopiedWords,
		CopiedObjects:    e.CopiedObjects,
		ScannedSlots:     e.ScannedSlots,
		SurvivalRatio:    e.SurvivalRatio(),
		PauseInsns:       e.PauseInsns,
		InsnsAt:          e.InsnsAt,
	}
}

// CacheRecord is the final state of one simulated cache configuration.
type CacheRecord struct {
	Config       CacheConfigRecord `json:"config"`
	Reads        uint64            `json:"reads"`
	Writes       uint64            `json:"writes"`
	Misses       uint64            `json:"misses"` // penalized program misses
	ReadMisses   uint64            `json:"read_misses"`
	WriteMisses  uint64            `json:"write_misses"`
	WriteAllocs  uint64            `json:"write_allocs"`
	MissRatio    float64           `json:"miss_ratio"`
	Writebacks   uint64            `json:"writebacks"`
	GCMisses     uint64            `json:"gc_misses"`
	GCWritebacks uint64            `json:"gc_writebacks"`
	OCacheSlow   float64           `json:"o_cache_slow"`
	OCacheFast   float64           `json:"o_cache_fast"`
	Snapshots    []SnapshotRecord  `json:"snapshots,omitempty"`
}

// CacheConfigRecord names one cache geometry: the configuration's own
// JSON form after its name.
type CacheConfigRecord struct {
	Name string `json:"name"` // e.g. "64k/64b/write-validate"
	cache.Config
}

// SnapshotRecord is one periodic cache sample: cumulative counters plus
// the derived running ratios the time-series plots use.
type SnapshotRecord struct {
	InsnsAt    uint64  `json:"insns_at"`
	Refs       uint64  `json:"refs"`    // cumulative mutator references
	GCRefs     uint64  `json:"gc_refs"` // cumulative collector references
	Misses     uint64  `json:"misses"`
	MissRatio  float64 `json:"miss_ratio"` // running cumulative ratio
	Writebacks uint64  `json:"writebacks"`
	GCShare    float64 `json:"gc_share"` // collector fraction of all refs
}

// CacheRecordOf condenses one cache's final state, computing the paper's
// O_cache for both hypothetical processors from the run's I_prog.
func CacheRecordOf(c *cache.Cache, insns uint64) CacheRecord {
	cfg := c.Config()
	s := c.S
	rec := CacheRecord{
		Config:       CacheConfigRecord{Name: cfg.String(), Config: cfg},
		Reads:        s.Reads,
		Writes:       s.Writes,
		Misses:       s.Misses(),
		ReadMisses:   s.ReadMisses,
		WriteMisses:  s.WriteMisses,
		WriteAllocs:  s.WriteAllocs,
		MissRatio:    s.MissRatio(),
		Writebacks:   s.Writebacks,
		GCMisses:     s.GCMisses(),
		GCWritebacks: s.GCWritebacks,
		OCacheSlow:   cache.Slow.CacheOverhead(s.Misses(), insns, cfg.BlockBytes),
		OCacheFast:   cache.Fast.CacheOverhead(s.Misses(), insns, cfg.BlockBytes),
	}
	for _, sn := range c.Snapshots() {
		rec.Snapshots = append(rec.Snapshots, snapshotRecordOf(sn))
	}
	return rec
}

func snapshotRecordOf(sn cache.Snapshot) SnapshotRecord {
	s := sn.Stats
	all := s.Refs() + s.GCReads + s.GCWrites
	share := 0.0
	if all > 0 {
		share = float64(s.GCReads+s.GCWrites) / float64(all)
	}
	return SnapshotRecord{
		InsnsAt:    sn.InsnsAt,
		Refs:       s.Refs(),
		GCRefs:     s.GCReads + s.GCWrites,
		Misses:     s.Misses(),
		MissRatio:  s.MissRatio(),
		Writebacks: s.Writebacks,
		GCShare:    share,
	}
}

// GCRecordOf combines the collector's final stats with the event ring.
func GCRecordOf(st gc.Stats, counters mem.Counters, ring *GCRing) GCRecord {
	rec := GCRecord{
		Collections:      st.Collections,
		MajorCollections: st.MajorCollections,
		CopiedWords:      st.CopiedWords,
		CopiedObjects:    st.CopiedObjects,
		ScannedSlots:     st.ScannedSlots,
		BarrierChecks:    st.BarrierChecks,
		BarrierHits:      st.BarrierHits,
		LiveAfterLast:    st.LiveAfterLast,
		Events:           []GCEventRecord{},
	}
	if ring != nil {
		rec.EventsDropped = ring.Dropped()
		for _, e := range ring.Events() {
			rec.Events = append(rec.Events, EventRecord(e))
		}
	}
	return rec
}

// Overhead is telemetry's self-measured cost: the wall-clock time spent
// inside instrumentation hooks (event assembly and snapshot copies),
// reported as a fraction of the run so the ≤2% budget is checkable from
// the record alone.
type Overhead struct {
	GCEvents        uint64  `json:"gc_events"`
	Snapshots       uint64  `json:"snapshots"`
	OverheadSeconds float64 `json:"overhead_seconds"`
	// OverheadFraction is overhead_seconds / duration_seconds.
	OverheadFraction float64 `json:"overhead_fraction"`
}

// Manifest identifies the machine and build that produced a record.
type Manifest struct {
	GoVersion   string `json:"go_version"`
	OS          string `json:"os"`
	Arch        string `json:"arch"`
	NumCPU      int    `json:"num_cpu"`
	Parallelism int    `json:"parallelism"`
	GitRev      string `json:"git_rev,omitempty"`
	Hostname    string `json:"hostname,omitempty"`
	Time        string `json:"time"` // RFC 3339
}

// NewManifest captures the current host. The git revision is best-effort:
// empty when the binary runs outside a checkout or git is unavailable.
func NewManifest(parallelism int) Manifest {
	m := Manifest{
		GoVersion:   runtime.Version(),
		OS:          runtime.GOOS,
		Arch:        runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		Parallelism: parallelism,
		Time:        time.Now().UTC().Format(time.RFC3339),
	}
	if host, err := os.Hostname(); err == nil {
		m.Hostname = host
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		m.GitRev = strings.TrimSpace(string(out))
	}
	return m
}

// WriteJSON writes records to w: a single record is pretty-printed, and
// multiple records are written as compact JSONL, one record per line.
// Both forms satisfy the run-record schema (see Validate).
func WriteJSON(w io.Writer, records []*RunRecord) error {
	if len(records) == 1 {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(records[0])
	}
	enc := json.NewEncoder(w)
	for _, r := range records {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return nil
}

// OpenOutput opens path for telemetry output; "-" means standard output
// (returned with a no-op closer so the caller can defer Close uniformly).
func OpenOutput(path string) (io.WriteCloser, error) {
	if path == "-" {
		return nopCloser{os.Stdout}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("telemetry: %w", err)
	}
	return f, nil
}

type nopCloser struct{ io.Writer }

func (nopCloser) Close() error { return nil }
