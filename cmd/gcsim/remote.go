package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"gcsim/internal/cache"
	"gcsim/internal/core"
	"gcsim/internal/gc"
	"gcsim/internal/server"
)

// runRemote submits the sweep to a gcsimd server instead of simulating
// locally: the job is posted, its progress stream followed (surfaced via
// -progress), and the final results rendered through the same report code
// the local paths use — so the printed report is byte-identical to the
// local run of the same sweep.
func runRemote(ctx context.Context, out io.Writer, base, workload string, scale int, gcName string, gcOpts gc.Options, cfgs []cache.Config, opts sweepOpts) error {
	spec := server.JobSpec{
		Workload: workload,
		Scale:    scale,
		GC:       gcName,
		GCOptions: server.GCOptions{
			SemispaceBytes: gcOpts.SemispaceBytes,
			NurseryBytes:   gcOpts.NurseryBytes,
			OldBytes:       gcOpts.OldBytes,
		},
		Retries:  opts.retries,
		Priority: opts.priority,
		Label:    "gcsim-remote",
		Configs:  cfgs,
	}

	prog := core.Progress()
	cl := server.NewClient(base)
	cl.APIKey = opts.apiKey
	cl.MaxRetries = opts.maxRetries
	cl.OnRetry = func(attempt int, status string, delay time.Duration) {
		prog.Printf("server busy (%s), retry %d in %s", status, attempt, delay.Round(time.Millisecond))
	}
	job, err := cl.Run(ctx, spec, func(e server.Event) {
		switch e.Type {
		case "state":
			prog.Printf("job %s %s", e.Job, e.State)
		case "config":
			prog.Printf("job %s config %s done (%d/%d)", e.Job, e.Config, e.Done, e.Total)
		}
	})
	if err != nil {
		return err
	}

	switch job.State {
	case server.StateDone:
		return job.RenderReport(out, opts.verbose)
	case server.StateFailed:
		// Partial results are still worth printing (the local checkpointed
		// sweep behaves the same way) before reporting the failure.
		if len(job.Results) > 0 {
			if rerr := job.RenderReport(out, opts.verbose); rerr != nil {
				return rerr
			}
		}
		return fmt.Errorf("remote job %s failed: %s", job.ID, job.Error)
	default:
		return fmt.Errorf("remote job %s ended %s: %s", job.ID, job.State, job.Error)
	}
}
