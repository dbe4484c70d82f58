// Periodic cache snapshots for the telemetry layer: a cache can record a
// copy of its running Stats every N simulated instructions, producing the
// time series behind the paper's "allocation sweeps the cache" plots.
//
// Sampling happens only at chunk boundaries of the batch reference
// pipeline — never on the per-reference hot path. The clock is the VM's
// program-instruction counter, read on the VM goroutine: the serial Bank
// reads it directly after replaying a chunk, and the FusedBank stamps
// each chunk with the clock as it is published (a replayed chunk carries
// the stamp recorded with it), so a cache records identical snapshots
// whether its lane runs inline or on a worker goroutine (the VM is
// blocked during publication, so the stamp equals what the serial path
// would read).
package cache

import "time"

// Snapshot is one periodic sample of a cache's running statistics. The
// embedded Stats are cumulative since the start of the run; consumers
// difference consecutive snapshots for per-interval rates.
type Snapshot struct {
	InsnsAt uint64 // program instruction clock when the sample was taken
	Stats   Stats
}

// EnableSnapshots turns on periodic sampling every intervalInsns simulated
// program instructions (0 disables). Serial users must also install a
// clock with SetSnapshotClock; the FusedBank stamps chunks itself.
func (c *Cache) EnableSnapshots(intervalInsns uint64) {
	c.snapInterval = intervalInsns
	c.snapNext = intervalInsns
}

// SetSnapshotClock installs the instruction clock (typically
// (*vm.Machine).Insns) consulted at each chunk boundary on serial paths.
// It must only be set when the cache is simulated on the same goroutine
// that advances the clock.
func (c *Cache) SetSnapshotClock(clock func() uint64) { c.snapClock = clock }

// Snapshots returns the samples recorded so far, oldest first. For a cache
// inside a sharded FusedBank, call Drain first.
func (c *Cache) Snapshots() []Snapshot { return c.snaps }

// SnapshotOverhead returns the wall-clock time this cache has spent
// recording snapshots, for the telemetry layer's self-measured overhead.
func (c *Cache) SnapshotOverhead() time.Duration {
	return time.Duration(c.snapNs)
}

// MaybeSnapshot records a snapshot if the clock has crossed the next
// sampling threshold. Thresholds are aligned to interval multiples, so the
// decision depends only on the clock sequence, not on who drives it.
func (c *Cache) MaybeSnapshot(insnsAt uint64) {
	if c.snapInterval == 0 || insnsAt < c.snapNext {
		return
	}
	t0 := time.Now()
	c.snaps = append(c.snaps, Snapshot{InsnsAt: insnsAt, Stats: c.S})
	c.snapNext = (insnsAt/c.snapInterval + 1) * c.snapInterval
	c.snapNs += int64(time.Since(t0))
}

// TakeSnapshot records a final, unconditional snapshot (end of run).
func (c *Cache) TakeSnapshot(insnsAt uint64) {
	if n := len(c.snaps); n > 0 && c.snaps[n-1].InsnsAt == insnsAt {
		return // already sampled at this instant
	}
	c.snaps = append(c.snaps, Snapshot{InsnsAt: insnsAt, Stats: c.S})
}
