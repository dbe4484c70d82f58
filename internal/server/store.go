package server

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
)

// Store persists jobs under <dir>/jobs/shard-N/<id>/job.json — one JSON
// document per job, written atomically (temp file + rename, the
// checkpoint pattern) so a crash can never leave a torn job behind. Jobs
// hash onto a fixed set of shards, each with its own lock and map, so
// a worker persisting one job's results never serializes against the
// HTTP handlers reading another's — the store used to be a single
// global mutex and showed up as the serialization point under load.
// Each job's per-config checkpoint directory lives next to its
// job.json, which is what makes an interrupted job resumable: the sweep
// results that completed before the interruption are reloaded from the
// checkpoint, not recomputed.
//
// The in-memory maps are the single source of truth while the server
// runs; readers always receive deep copies, so HTTP handlers can marshal
// a job while a worker mutates it without a data race.
type Store struct {
	dir    string
	shards [storeShards]storeShard
}

// storeShards fixes the shard count. The shard index is a pure function
// of the job ID, so the on-disk layout is stable across restarts; 8 is
// plenty to take the store off the contention profile while keeping the
// directory tree readable.
const storeShards = 8

type storeShard struct {
	mu   sync.Mutex
	jobs map[string]*Job
}

// shardIndex maps a job ID onto its shard.
func shardIndex(id string) int {
	h := fnv.New32a()
	h.Write([]byte(id))
	return int(h.Sum32() % storeShards)
}

func shardDirName(i int) string { return fmt.Sprintf("shard-%d", i) }

// OpenStore loads (creating if needed) the job store rooted at dir.
func OpenStore(dir string) (*Store, error) {
	jobsDir := filepath.Join(dir, "jobs")
	s := &Store{dir: dir}
	for i := range s.shards {
		s.shards[i].jobs = make(map[string]*Job)
		if err := os.MkdirAll(filepath.Join(jobsDir, shardDirName(i)), 0o755); err != nil {
			return nil, fmt.Errorf("server: job store: %w", err)
		}
	}
	for i := range s.shards {
		shardDir := filepath.Join(jobsDir, shardDirName(i))
		entries, err := os.ReadDir(shardDir)
		if err != nil {
			return nil, fmt.Errorf("server: job store: %w", err)
		}
		for _, e := range entries {
			if !e.IsDir() {
				continue
			}
			path := filepath.Join(shardDir, e.Name(), "job.json")
			data, err := os.ReadFile(path)
			if os.IsNotExist(err) {
				continue // an empty or half-created job dir; ignore
			}
			if err != nil {
				return nil, fmt.Errorf("server: job store: %w", err)
			}
			var j Job
			if err := json.Unmarshal(data, &j); err != nil {
				return nil, fmt.Errorf("server: job store: %s: %w", path, err)
			}
			if j.Schema != JobSchema {
				return nil, fmt.Errorf("server: job store: %s: schema %q, want %q", path, j.Schema, JobSchema)
			}
			if j.ID != e.Name() {
				return nil, fmt.Errorf("server: job store: %s claims id %q", path, j.ID)
			}
			if shardIndex(j.ID) != i {
				return nil, fmt.Errorf("server: job store: %s is in shard %d, belongs in %d", path, i, shardIndex(j.ID))
			}
			s.shards[i].jobs[j.ID] = &j
		}
	}
	return s, nil
}

// JobDir returns the directory holding one job's state (job.json plus its
// checkpoint directory).
func (s *Store) JobDir(id string) string {
	return filepath.Join(s.dir, "jobs", shardDirName(shardIndex(id)), id)
}

// CheckpointDir returns the per-config checkpoint directory for one job.
func (s *Store) CheckpointDir(id string) string { return filepath.Join(s.JobDir(id), "checkpoint") }

// newJobID mints a random 12-hex-digit identifier.
func newJobID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("server: job id: %v", err)) // crypto/rand never fails on a healthy OS
	}
	return "j" + hex.EncodeToString(b[:])
}

// Create registers and persists a new queued job for the spec, owned by
// the named tenant.
func (s *Store) Create(spec JobSpec, tenant, submittedAt string) (*Job, error) {
	class, err := PriorityClass(spec.Priority)
	if err != nil {
		return nil, err
	}
	j := &Job{
		Schema:       JobSchema,
		ID:           newJobID(),
		Spec:         spec,
		State:        StateQueued,
		SubmittedAt:  submittedAt,
		ConfigsTotal: len(spec.Configs),
		Tenant:       tenant,
		Priority:     PriorityName(class),
	}
	sh := &s.shards[shardIndex(j.ID)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, exists := sh.jobs[j.ID]; exists {
		return nil, fmt.Errorf("server: job id collision: %s", j.ID)
	}
	if err := s.persistLocked(j); err != nil {
		return nil, err
	}
	sh.jobs[j.ID] = j
	return copyJob(j), nil
}

// Get returns a deep copy of one job.
func (s *Store) Get(id string) (*Job, bool) {
	sh := &s.shards[shardIndex(id)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	j, ok := sh.jobs[id]
	if !ok {
		return nil, false
	}
	return copyJob(j), true
}

// List returns deep copies of every job, newest submission first (ties
// broken by ID so the order is deterministic).
func (s *Store) List() []*Job {
	var out []*Job
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, j := range sh.jobs {
			out = append(out, copyJob(j))
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].SubmittedAt != out[b].SubmittedAt {
			return out[a].SubmittedAt > out[b].SubmittedAt
		}
		return out[a].ID > out[b].ID
	})
	return out
}

// Update applies fn to the job under its shard lock and persists the
// result. fn sees (and may mutate) the canonical job.
func (s *Store) Update(id string, fn func(*Job)) (*Job, error) {
	sh := &s.shards[shardIndex(id)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	j, ok := sh.jobs[id]
	if !ok {
		return nil, fmt.Errorf("server: no such job %s", id)
	}
	fn(j)
	if err := s.persistLocked(j); err != nil {
		return nil, err
	}
	return copyJob(j), nil
}

// Resumable returns the IDs of jobs a restarted server should re-enqueue:
// queued jobs that never ran, plus running/interrupted jobs whose
// checkpoints hold their completed configurations. Order is submission
// order (oldest first) so the restarted queue drains fairly.
func (s *Store) Resumable() []string {
	var jobs []*Job
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, j := range sh.jobs {
			if !TerminalState(j.State) {
				jobs = append(jobs, copyJob(j))
			}
		}
		sh.mu.Unlock()
	}
	sort.Slice(jobs, func(a, b int) bool {
		if jobs[a].SubmittedAt != jobs[b].SubmittedAt {
			return jobs[a].SubmittedAt < jobs[b].SubmittedAt
		}
		return jobs[a].ID < jobs[b].ID
	})
	ids := make([]string, len(jobs))
	for i, j := range jobs {
		ids[i] = j.ID
	}
	return ids
}

// ProbeWritable verifies the store's backing directory still accepts
// writes — the /healthz liveness check for the disk. It creates and
// removes a scratch file in the jobs directory.
func (s *Store) ProbeWritable() error {
	probe := filepath.Join(s.dir, "jobs", ".healthz-probe")
	if err := os.WriteFile(probe, []byte("ok\n"), 0o644); err != nil {
		return fmt.Errorf("server: store not writable: %w", err)
	}
	if err := os.Remove(probe); err != nil {
		return fmt.Errorf("server: store probe cleanup: %w", err)
	}
	return nil
}

// persistLocked writes the job's JSON atomically. Callers hold the job's
// shard lock.
func (s *Store) persistLocked(j *Job) error {
	dir := s.JobDir(j.ID)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("server: job store: %w", err)
	}
	data, err := json.MarshalIndent(j, "", "  ")
	if err != nil {
		return fmt.Errorf("server: job store: %w", err)
	}
	path := filepath.Join(dir, "job.json")
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("server: job store: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("server: job store: %w", err)
	}
	return nil
}

// copyJob deep-copies a job so callers can use it without holding the
// store lock.
func copyJob(j *Job) *Job {
	out := *j
	out.Spec.Configs = slices.Clone(j.Spec.Configs)
	out.Results = slices.Clone(j.Results)
	out.Failures = slices.Clone(j.Failures)
	return &out
}
