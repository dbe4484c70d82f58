package report

import (
	"bytes"
	"io"
	"runtime"
	"testing"

	"gcsim/internal/cache"
	"gcsim/internal/core"
	"gcsim/internal/gc"
)

// paperGrid is the paper's 80-configuration grid (40 per write policy) as
// per-config results of one run, each with its own statistics.
func paperGrid() []core.ConfigResult {
	cfgs := append(cache.SweepConfigs(cache.WriteValidate), cache.SweepConfigs(cache.FetchOnWrite)...)
	results := make([]core.ConfigResult, len(cfgs))
	for i, cfg := range cfgs {
		results[i] = core.ConfigResult{
			Config: cfg,
			CacheStats: cache.Stats{Reads: 9000, Writes: 3000, ReadMisses: uint64(100 + i), WriteMisses: uint64(i),
				WriteAllocs: 7, GCReads: 500, GCWrites: 200, GCReadMisses: 11, Writebacks: uint64(2 * i)},
			Checksum: 1234, Insns: 50_000, GCInsns: 4_000,
			GCStats: gc.Stats{Collections: 3, CopiedWords: 900},
		}
	}
	return results
}

// TestResultsMatchesRender requires per-config results to render the same
// bytes as the caches they came from, for a single configuration and for
// a table.
func TestResultsMatchesRender(t *testing.T) {
	grid := paperGrid()
	for _, results := range [][]core.ConfigResult{grid[:1], grid[:3]} {
		caches := make([]*cache.Cache, len(results))
		for i, r := range results {
			caches[i] = cache.New(r.Config)
			caches[i].S = r.CacheStats
		}
		first := results[0]
		var want, got bytes.Buffer
		Render(&want, Run{Name: "tc", Collector: "cheney", GCStats: first.GCStats,
			Checksum: first.Checksum, Insns: first.Insns, GCInsns: first.GCInsns}, caches, true)
		Results(&got, "tc", "cheney", results, true)
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%d results render\n%s\nwant\n%s", len(results), got.Bytes(), want.Bytes())
		}
	}
}

// TestResultsRenderAllocatesLittle renders the 80-result grid and requires
// it to allocate under 1 MiB: a report reads each row's configuration and
// statistics and builds no cache (a 4 MiB cache with 16-byte blocks alone
// allocates several MB of tags and valid bits).
func TestResultsRenderAllocatesLittle(t *testing.T) {
	results := paperGrid()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	Results(io.Discard, "tc", "cheney", results, true)
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("rendering %d results allocated %d bytes", len(results), got)
	if got >= 1<<20 {
		t.Errorf("rendering %d results allocated %d bytes, want under 1 MiB", len(results), got)
	}
}
