// Package server turns the experiment harness into a long-lived service:
// an HTTP/JSON API over the engine in internal/core. Clients submit sweep
// jobs (a workload/collector pair against a list of cache configurations);
// a bounded worker pool executes them through the resilient per-config
// sweep, sharing one content-addressed trace cache across every job so a
// reference stream is recorded once and replayed for each configuration of
// each job that needs it. Jobs persist across restarts on the checkpoint
// format, progress streams live as JSONL, and /metrics exposes the
// service's counters in Prometheus text format.
//
// This file defines the wire types shared by the server and the client
// (gcsim -remote). Everything a report needs travels in the job view, so
// the client renders the result locally through internal/report and
// produces output byte-identical to the same sweep run in-process.
package server

import (
	"fmt"
	"io"

	"gcsim/internal/cache"
	"gcsim/internal/core"
	"gcsim/internal/gc"
	"gcsim/internal/report"
	"gcsim/internal/workloads"
)

// JobSchema identifies the persisted job format and the v1 API shapes.
const JobSchema = "gcsimd-job/v1"

// Job states. Queued, running, and interrupted jobs are resumable: a
// restarted server re-enqueues them and the per-config checkpoint replays
// whatever already completed. Done, failed, and cancelled are terminal.
// Preempted is transient and appears only on event streams: a preempted
// job is persisted as queued (with its checkpoints intact) the moment the
// preemption is announced, so no job is ever at rest in that state.
const (
	StateQueued      = "queued"
	StateRunning     = "running"
	StateDone        = "done"
	StateFailed      = "failed"
	StateInterrupted = "interrupted"
	StateCancelled   = "cancelled"
	StatePreempted   = "preempted"
)

// TerminalState reports whether a job in this state will never run again.
func TerminalState(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCancelled
}

// Priority classes, highest to lowest. The worker pool always dispatches
// the highest class present in the backlog (FIFO within a class), and an
// arriving interactive job may preempt a running bulk sweep — following
// the prioritized-GC model, high-priority work evicts low-priority work
// rather than waiting behind it. Batch, the default, is never preempted
// and never preempts.
const (
	PriorityInteractive = "interactive"
	PriorityBatch       = "batch"
	PriorityBulk        = "bulk"
)

// Scheduling classes: the numeric order of the priority names. Bigger
// dispatches first.
const (
	ClassBulk = iota
	ClassBatch
	ClassInteractive
)

// PriorityClass resolves a priority name to its scheduling class. The
// empty name is batch, the default.
func PriorityClass(name string) (int, error) {
	switch name {
	case PriorityBulk:
		return ClassBulk, nil
	case PriorityBatch, "":
		return ClassBatch, nil
	case PriorityInteractive:
		return ClassInteractive, nil
	}
	return 0, fmt.Errorf("server: unknown priority %q (want %s, %s, or %s)",
		name, PriorityInteractive, PriorityBatch, PriorityBulk)
}

// PriorityName is the inverse of PriorityClass.
func PriorityName(class int) string {
	switch {
	case class >= ClassInteractive:
		return PriorityInteractive
	case class <= ClassBulk:
		return PriorityBulk
	}
	return PriorityBatch
}

// CacheConfig is cache.Config, whose JSON form is the job API's. It and
// ConfigFromCache stay only because bench/jobs.go names them.
//
// Deprecated: use cache.Config.
type CacheConfig = cache.Config

// ConfigFromCache returns cfg.
//
// Deprecated: a cache.Config is its own wire form.
func ConfigFromCache(cfg cache.Config) CacheConfig { return cfg }

// GCOptions is the wire form of gc.Options.
type GCOptions struct {
	SemispaceBytes int `json:"semispace_bytes,omitempty"`
	NurseryBytes   int `json:"nursery_bytes,omitempty"`
	OldBytes       int `json:"old_bytes,omitempty"`
}

// ToGC converts to the collector factory's options.
func (o GCOptions) ToGC() gc.Options {
	return gc.Options{SemispaceBytes: o.SemispaceBytes, NurseryBytes: o.NurseryBytes, OldBytes: o.OldBytes}
}

// JobSpec describes one sweep job: a workload/collector pair evaluated
// against every listed cache configuration. The configuration order is
// preserved end to end, so the remote report's rows match a local sweep's.
type JobSpec struct {
	Workload  string         `json:"workload"`
	Scale     int            `json:"scale,omitempty"` // 0 = the workload's default
	GC        string         `json:"gc"`              // collector name ("none", "cheney", ...)
	GCOptions GCOptions      `json:"gc_options"`
	Configs   []cache.Config `json:"configs"`
	// Retries re-attempts a failed configuration before recording it as a
	// failure (0 = one attempt only).
	Retries int `json:"retries,omitempty"`
	// Label tags the job (free-form, e.g. a CI run ID).
	Label string `json:"label,omitempty"`
	// Priority is the scheduling class: "interactive", "batch" (the
	// default), or "bulk". Tenants may be capped below interactive.
	Priority string `json:"priority,omitempty"`
}

// Validate checks the spec without running anything: the workload and
// collector must exist and every configuration must be a legal geometry.
func (s *JobSpec) Validate() error {
	if s.Workload == "" {
		return fmt.Errorf("server: job spec has no workload")
	}
	if _, err := workloads.ByName(s.Workload); err != nil {
		return err
	}
	gcName := s.GC
	if gcName == "" {
		gcName = "none"
	}
	if _, err := gc.New(gcName, s.GCOptions.ToGC()); err != nil {
		return err
	}
	if len(s.Configs) == 0 {
		return fmt.Errorf("server: job spec has no cache configurations")
	}
	if s.Retries < 0 {
		return fmt.Errorf("server: retries must be >= 0")
	}
	if _, err := PriorityClass(s.Priority); err != nil {
		return err
	}
	_, err := s.CacheConfigs()
	return err
}

// CacheConfigs returns the configurations in order, each checked to be a
// legal geometry. Their policies were checked when the spec was decoded.
func (s *JobSpec) CacheConfigs() ([]cache.Config, error) {
	for _, c := range s.Configs {
		if err := c.Validate(); err != nil {
			return nil, err
		}
	}
	return s.Configs, nil
}

// JobFailure is the wire form of one configuration that exhausted its
// retry budget.
type JobFailure struct {
	Config   string `json:"config"`
	Attempts int    `json:"attempts"`
	Error    string `json:"error"`
}

// Job is the full view of one submitted job: the spec, its lifecycle
// state, and — once configurations complete — the results. It is also the
// on-disk persistence format (schema gcsimd-job/v1).
type Job struct {
	Schema string  `json:"schema"`
	ID     string  `json:"id"`
	Spec   JobSpec `json:"spec"`
	State  string  `json:"state"`
	Error  string  `json:"error,omitempty"`
	// Collector is the resolved collector name (e.g. "cheney"), filled in
	// when the job first runs.
	Collector    string              `json:"collector,omitempty"`
	SubmittedAt  string              `json:"submitted_at,omitempty"` // RFC 3339
	FinishedAt   string              `json:"finished_at,omitempty"`  // RFC 3339
	ConfigsDone  int                 `json:"configs_done"`
	ConfigsTotal int                 `json:"configs_total"`
	Results      []core.ConfigResult `json:"results,omitempty"`
	Failures     []JobFailure        `json:"failures,omitempty"`
	// Tenant is the submitting tenant's name; Priority is the resolved
	// scheduling class name (never empty once created).
	Tenant   string `json:"tenant,omitempty"`
	Priority string `json:"priority,omitempty"`
	// Preemptions counts how many times the job was preempted by
	// higher-priority work and re-queued with its checkpoints intact.
	Preemptions int `json:"preemptions,omitempty"`
	// QueueSeconds is how long the job's latest stay in the backlog
	// lasted, measured when a worker picked it up.
	QueueSeconds float64 `json:"queue_seconds,omitempty"`
}

// Terminal reports whether the job will never run again.
func (j *Job) Terminal() bool { return TerminalState(j.State) }

// RenderReport writes the job's report — byte-identical to the same sweep
// run locally by gcsim — to out. It fails if the job has no results yet.
func (j *Job) RenderReport(out io.Writer, verbose bool) error {
	if len(j.Results) == 0 {
		return fmt.Errorf("server: job %s has no results to report (state %s)", j.ID, j.State)
	}
	report.Results(out, j.Spec.Workload, j.Collector, j.Results, verbose)
	return nil
}

// Event is one line of a job's progress stream (JSONL over
// /v1/jobs/{id}/events). A "state" event carries the lifecycle state; a
// "config" event reports one configuration completing. A state event with
// a terminal state is always the last line of a stream.
type Event struct {
	Type     string `json:"type"` // "state" or "config"
	Job      string `json:"job"`
	State    string `json:"state,omitempty"`
	Config   string `json:"config,omitempty"`
	Done     int    `json:"done,omitempty"`
	Total    int    `json:"total,omitempty"`
	Error    string `json:"error,omitempty"`
	Tenant   string `json:"tenant,omitempty"`
	Priority string `json:"priority,omitempty"`
}
