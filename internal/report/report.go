// Package report renders the human-readable run reports the CLIs print.
// It exists so every consumer of sweep results — gcsim's local paths, the
// gcsimd server's /report endpoint, and gcsim's -remote client — formats
// the same data through the same code and therefore produces byte-identical
// text. Every row is a per-config result (a configuration and its
// statistics), never a live simulator object, so a report renders from a
// checkpoint or a server response as easily as from a just-finished run.
package report

import (
	"fmt"
	"io"

	"gcsim/internal/cache"
	"gcsim/internal/core"
	"gcsim/internal/gc"
)

// Run is the per-run header every report shares: the identity and global
// counts that do not vary across cache configurations.
type Run struct {
	Name      string // workload name or program path
	Collector string
	GCStats   gc.Stats
	Checksum  int64
	Insns     uint64 // I_prog
	GCInsns   uint64 // I_gc
}

// Results prints the standard report for per-config results, as a
// checkpointed or remote sweep holds them. The run header comes from the
// first result, which every other one matches (see
// core.PerConfigSweep.CheckConsistency). results must not be empty.
func Results(out io.Writer, workload, collector string, results []core.ConfigResult, verbose bool) {
	first := &results[0]
	render(out, Run{
		Name:      workload,
		Collector: collector,
		GCStats:   first.GCStats,
		Checksum:  first.Checksum,
		Insns:     first.Insns,
		GCInsns:   first.GCInsns,
	}, results, verbose)
}

// Render prints the standard report for a completed sweep's caches.
func Render(out io.Writer, run Run, caches []*cache.Cache, verbose bool) {
	render(out, run, Rows(caches), verbose)
}

// render prints the full single-configuration report when one
// configuration was swept, otherwise the sweep header followed by the
// per-configuration table.
func render(out io.Writer, run Run, rows []core.ConfigResult, verbose bool) {
	if len(rows) == 1 {
		Single(out, run, &rows[0], verbose)
		return
	}
	Header(out, run)
	Table(out, rows, run.Insns, verbose)
}

// Rows pairs each cache's configuration with its statistics: all of a
// per-config result that a report row reads.
func Rows(caches []*cache.Cache) []core.ConfigResult {
	rows := make([]core.ConfigResult, len(caches))
	for i, c := range caches {
		rows[i] = core.ConfigResult{Config: c.Config(), CacheStats: c.S}
	}
	return rows
}

// Single prints the one-configuration report.
func Single(out io.Writer, run Run, r *core.ConfigResult, verbose bool) {
	cfg, s := r.Config, &r.CacheStats
	fmt.Fprintf(out, "workload:    %s\n", run.Name)
	fmt.Fprintf(out, "collector:   %s (%d collections, %d words copied)\n",
		run.Collector, run.GCStats.Collections, run.GCStats.CopiedWords)
	fmt.Fprintf(out, "cache:       %v\n", cfg)
	fmt.Fprintf(out, "checksum:    %d\n", run.Checksum)
	fmt.Fprintf(out, "insns:       %d program + %d collector\n", run.Insns, run.GCInsns)
	fmt.Fprintf(out, "refs:        %d program + %d collector\n", s.Refs(), s.GCReads+s.GCWrites)
	fmt.Fprintf(out, "misses:      %d penalized (%d read, %d write), %d allocation claims\n",
		s.Misses(), s.ReadMisses, s.WriteMisses, s.WriteAllocs)
	fmt.Fprintf(out, "miss ratio:  %.5f\n", s.MissRatio())
	fmt.Fprintf(out, "writebacks:  %d\n", s.Writebacks)
	for _, p := range cache.Processors {
		o := p.CacheOverhead(s.Misses(), run.Insns, cfg.BlockBytes)
		fmt.Fprintf(out, "O_cache(%s, penalty %d cycles): %.4f\n", p.Name, p.MissPenalty(cfg.BlockBytes), o)
	}
	if verbose {
		fmt.Fprintf(out, "collector misses: %d; collector writebacks: %d\n", s.GCMisses(), s.GCWritebacks)
	}
}

// Header prints the per-run lines above a multi-configuration table.
func Header(out io.Writer, run Run) {
	fmt.Fprintf(out, "workload:    %s\n", run.Name)
	fmt.Fprintf(out, "collector:   %s (%d collections, %d words copied)\n",
		run.Collector, run.GCStats.Collections, run.GCStats.CopiedWords)
	fmt.Fprintf(out, "checksum:    %d\n", run.Checksum)
	fmt.Fprintf(out, "insns:       %d program + %d collector\n", run.Insns, run.GCInsns)
}

// Table prints one row per swept configuration.
func Table(out io.Writer, rows []core.ConfigResult, insns uint64, verbose bool) {
	fmt.Fprintf(out, "\n%-22s %12s %10s %12s %10s %10s\n",
		"config", "misses", "ratio", "writebacks", "O(slow)", "O(fast)")
	for i := range rows {
		cfg, s := rows[i].Config, &rows[i].CacheStats
		fmt.Fprintf(out, "%-22s %12d %10.5f %12d %10.4f %10.4f\n",
			cfg.String(), s.Misses(), s.MissRatio(), s.Writebacks,
			cache.Slow.CacheOverhead(s.Misses(), insns, cfg.BlockBytes),
			cache.Fast.CacheOverhead(s.Misses(), insns, cfg.BlockBytes))
		if verbose {
			fmt.Fprintf(out, "%-22s %12s reads %d, writes %d, allocs %d, GC misses %d\n",
				"", "", s.Reads, s.Writes, s.WriteAllocs, s.GCMisses())
		}
	}
}
