package server

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"gcsim/internal/core"
)

// The cluster fabric, worker side. A worker is a normal gcsimd whose
// trace cache has joined the fleet: blob reads fall back to the
// coordinator (GET /cluster/v1/blobs/{id}, pulled through into the local
// store on first use) and recording rights go through the coordinator's
// claim/publish arbitration, implemented here as core.RemoteTraceIndex
// over HTTP. The worker announces itself with a heartbeat loop carrying
// its node-local trace counters; the coordinator folds those into the
// fleet metrics and uses the heartbeat as the liveness signal for lease
// breaking and re-sharding.

// clusterClient is a worker's handle on its coordinator: the
// RemoteTraceIndex implementation plus the registration heartbeat, both
// over the ordinary API client.
type clusterClient struct {
	api  *Client
	node string // this worker's name
	url  string // this worker's advertise URL
}

// Claim implements core.RemoteTraceIndex: ask the coordinator for the
// recording lease on key. granted=false with a nil meta means another
// node is recording — the cache polls.
func (c *clusterClient) Claim(ctx context.Context, key string) (bool, *core.TraceMeta, error) {
	var resp claimResponse
	if err := c.api.doJSON(ctx, http.MethodPost, "/cluster/v1/traces/claim", claimRequest{Key: key, Node: c.node}, &resp); err != nil {
		return false, nil, err
	}
	switch resp.Status {
	case "granted":
		return true, nil, nil
	case "recorded":
		if resp.Meta == nil {
			return false, nil, fmt.Errorf("server: coordinator says recorded but sent no meta for %s", key)
		}
		return false, resp.Meta, nil
	case "pending":
		return false, nil, nil
	}
	return false, nil, fmt.Errorf("server: coordinator returned unknown claim status %q", resp.Status)
}

// Publish implements core.RemoteTraceIndex: announce a finished
// recording. The coordinator replicates the blob from this node's
// /castore/v1/blobs before acknowledging, so a slow publish is the
// replication, not a failure.
func (c *clusterClient) Publish(ctx context.Context, key string, meta *core.TraceMeta) error {
	return c.api.doJSON(ctx, http.MethodPost, "/cluster/v1/traces/publish", publishRequest{Key: key, Node: c.node, Meta: meta}, nil)
}

// hello registers (or refreshes) this worker with the coordinator.
func (c *clusterClient) hello(ctx context.Context, stats workerStats) error {
	return c.api.doJSON(ctx, http.MethodPost, "/cluster/v1/workers", workerHello{Name: c.node, URL: c.url, Stats: stats}, nil)
}

// workerStatsNow snapshots the counters this node reports upstream.
func (s *Server) workerStatsNow() workerStats {
	st := workerStats{JobsRunning: s.metrics.JobsRunning.Load()}
	if tc := s.cfg.TraceCache; tc != nil {
		cs := tc.Stats()
		st.TraceRecorded = cs.Recorded
		st.RemoteFetches = cs.RemoteFetches
		st.TraceHits = cs.Hits
		st.TraceMisses = cs.Misses
	}
	return st
}

// heartbeatLoop keeps the worker registered: one hello immediately (so a
// coordinator that is already sharding sees this node without waiting a
// tick), then one per interval until the stop channel closes. Failures
// are logged and retried on the next tick — a rebooting coordinator
// picks the fleet back up as the heartbeats land.
func (s *Server) heartbeatLoop(ctx context.Context, every time.Duration) {
	if every <= 0 {
		every = defaultHeartbeatEvery
	}
	beat := func() {
		hctx, cancel := context.WithTimeout(ctx, every*3)
		defer cancel()
		if err := s.worker.hello(hctx, s.workerStatsNow()); err != nil {
			s.logf("cluster: heartbeat to %s: %v", s.worker.api.BaseURL, err)
		}
	}
	beat()
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-s.stopHeartbeat:
			return
		case <-ctx.Done():
			return
		case <-tick.C:
			beat()
		}
	}
}
