package core

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"gcsim/internal/cache"
	"gcsim/internal/gc"
)

// CheckpointSchema identifies the per-config checkpoint entry format.
const CheckpointSchema = "gcsim-checkpoint/v2"

// ConfigResult is the outcome of simulating one workload/collector pair
// against a single cache configuration. It is the unit of checkpointing:
// per-cache statistics are independent of which other configurations
// shared the run (the VM is deterministic, so every configuration sees the
// identical reference stream), which is what makes per-config results
// recombinable across separate processes. Its JSON form is the one
// checkpoint entries, gcsimd jobs and cluster shards carry.
type ConfigResult struct {
	Config     cache.Config `json:"config"`
	CacheStats cache.Stats  `json:"cache_stats"`
	Checksum   int64        `json:"checksum"`
	Insns      uint64       `json:"insns"`
	GCInsns    uint64       `json:"gc_insns"`
	GCStats    gc.Stats     `json:"gc_stats"`
	// FromCheckpoint marks results loaded from disk by a resumed sweep
	// rather than computed in this process.
	FromCheckpoint bool `json:"from_checkpoint,omitempty"`
}

// checkpointEntry is the on-disk form of one ConfigResult, with enough
// identity (workload, scale, collector identity) to refuse a stale or
// mismatched checkpoint directory.
type checkpointEntry struct {
	Schema    string `json:"schema"`
	Workload  string `json:"workload"`
	Scale     int    `json:"scale"`
	Collector string `json:"collector"` // gc.Identity, e.g. "cheney/ss=32768w"
	ConfigResult
}

// Checkpoint persists per-config sweep results in a directory, one JSON
// file per completed configuration, written atomically (temp file +
// rename) so an interrupt can never leave a torn entry behind. Entries
// are keyed by workload, scale, the collector's gc.Identity and the
// configuration.
type Checkpoint struct {
	Dir string
}

// NewCheckpoint creates (if needed) and wraps a checkpoint directory.
func NewCheckpoint(dir string) (*Checkpoint, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: checkpoint dir: %w", err)
	}
	return &Checkpoint{Dir: dir}, nil
}

// entryPath names the checkpoint file for one run identity. Collector
// identities and config names contain '/' (e.g. "cheney/ss=32768w",
// "64k/64b/write-validate"), which the file name flattens.
func (c *Checkpoint) entryPath(workload string, scale int, collector string, cfg cache.Config) string {
	name := fmt.Sprintf("%s-s%d-%s-%s.json", workload, scale, collector, cfg)
	return filepath.Join(c.Dir, strings.ReplaceAll(name, "/", "_"))
}

// Save persists one completed configuration under the collector's
// identity.
func (c *Checkpoint) Save(workload string, scale int, collector string, res ConfigResult) error {
	res.FromCheckpoint = false // Load marks what it reads
	e := checkpointEntry{Schema: CheckpointSchema, Workload: workload, Scale: scale, Collector: collector, ConfigResult: res}
	data, err := json.MarshalIndent(&e, "", "  ")
	if err != nil {
		return fmt.Errorf("core: checkpoint encode: %w", err)
	}
	path := c.entryPath(workload, scale, collector, res.Config)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("core: checkpoint write: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("core: checkpoint rename: %w", err)
	}
	return nil
}

// Load retrieves one configuration's checkpoint. It returns ok=false (with
// no error) when the entry does not exist, and an error when the entry
// exists but does not match the requested identity — a stale directory
// must fail loudly rather than silently mix results from different sweeps.
func (c *Checkpoint) Load(workload string, scale int, collector string, cfg cache.Config) (ConfigResult, bool, error) {
	path := c.entryPath(workload, scale, collector, cfg)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return ConfigResult{}, false, nil
	}
	if err != nil {
		return ConfigResult{}, false, fmt.Errorf("core: checkpoint read: %w", err)
	}
	var e checkpointEntry
	if err := json.Unmarshal(data, &e); err != nil {
		return ConfigResult{}, false, fmt.Errorf("core: checkpoint %s: %w", path, err)
	}
	if e.Schema != CheckpointSchema {
		return ConfigResult{}, false, fmt.Errorf("core: checkpoint %s: schema %q, want %q", path, e.Schema, CheckpointSchema)
	}
	if e.Workload != workload || e.Scale != scale || e.Collector != collector || e.Config != cfg {
		return ConfigResult{}, false, fmt.Errorf("core: checkpoint %s does not match run identity %s/s%d/%s/%s",
			path, workload, scale, collector, cfg)
	}
	e.FromCheckpoint = true
	return e.ConfigResult, true, nil
}
