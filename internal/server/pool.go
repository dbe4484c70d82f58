package server

import (
	"container/heap"
	"context"
	"fmt"
	"slices"
	"sync"
	"time"
)

// pool is the priority worker set that executes jobs. The backlog is a
// heap ordered by scheduling class (interactive > batch > bulk), FIFO
// within a class, so the highest-priority work always dispatches first.
// Each entry is stamped with its enqueue time (the start of the job's
// queue span) and carries its tenant, whose queued count is the number
// of its entries.
//
// Draining cancels the run context — the PR-3 cancellation plumbing
// interrupts the machines at their next safepoint, the resilient sweep
// checkpoints what completed — and waits for every worker to return. IDs
// still queued at drain time simply stay queued on disk and are
// re-enqueued by the next server.
type pool struct {
	run func(ctx context.Context, id string, queuedAt time.Time, class int)

	mu      sync.Mutex
	cond    *sync.Cond
	backlog jobHeap
	seq     uint64
	idle    int
	started bool
	drained bool
	ctx     context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup
}

// queued is one backlog entry.
type queued struct {
	id     string
	tenant string
	class  int
	seq    uint64 // FIFO tiebreak within a class
	at     time.Time
}

// jobHeap orders the backlog: higher class first, then lower sequence
// number (earlier submission).
type jobHeap []queued

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(i, j int) bool {
	if h[i].class != h[j].class {
		return h[i].class > h[j].class
	}
	return h[i].seq < h[j].seq
}
func (h jobHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *jobHeap) Push(x any)   { *h = append(*h, x.(queued)) }
func (h *jobHeap) Pop() any {
	old := *h
	n := len(old)
	q := old[n-1]
	*h = old[:n-1]
	return q
}

// queueCap bounds the backlog; submissions beyond it are rejected with
// 503 rather than growing without bound. Load shedding engages earlier,
// at the configured high-water mark.
const queueCap = 1024

func newPool(run func(ctx context.Context, id string, queuedAt time.Time, class int)) *pool {
	p := &pool{run: run}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// start launches n workers under a context derived from ctx.
func (p *pool) start(ctx context.Context, n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.started {
		return
	}
	p.started = true
	p.ctx, p.cancel = context.WithCancel(ctx)
	// Workers park on the cond while idle; wake them all when the run
	// context dies so they can observe it and exit. The broadcast must
	// hold the mutex: unlocked, it could fire between a worker's ctx
	// check and its cond.Wait and the wakeup would be lost.
	go func() {
		<-p.ctx.Done()
		p.mu.Lock()
		p.cond.Broadcast()
		p.mu.Unlock()
	}()
	for i := 0; i < n; i++ {
		p.wg.Add(1)
		go p.worker()
	}
}

func (p *pool) worker() {
	defer p.wg.Done()
	p.mu.Lock()
	for {
		if p.ctx.Err() != nil {
			p.mu.Unlock()
			return
		}
		if p.backlog.Len() == 0 {
			p.idle++
			p.cond.Wait()
			p.idle--
			continue
		}
		q := heap.Pop(&p.backlog).(queued)
		p.mu.Unlock()
		p.run(p.ctx, q.id, q.at, q.class)
		p.mu.Lock()
	}
}

// submit enqueues a tenant's job at the given scheduling class without
// blocking.
func (p *pool) submit(id, tenant string, class int, at time.Time) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.drained {
		return fmt.Errorf("server: draining, not accepting jobs")
	}
	if len(p.backlog) >= queueCap {
		return fmt.Errorf("server: job queue full (%d pending)", queueCap)
	}
	p.seq++
	heap.Push(&p.backlog, queued{id: id, tenant: tenant, class: class, seq: p.seq, at: at})
	p.cond.Signal()
	return nil
}

// remove drops every backlog entry for id (a job cancelled while queued).
func (p *pool) remove(id string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.backlog = slices.DeleteFunc(p.backlog, func(q queued) bool { return q.id == id })
	heap.Init(&p.backlog)
}

// queuedFor counts the tenant's backlog entries.
func (p *pool) queuedFor(tenant string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, q := range p.backlog {
		if q.tenant == tenant {
			n++
		}
	}
	return n
}

// depth reports the current backlog.
func (p *pool) depth() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.backlog)
}

// idleWorkers reports how many workers are parked waiting for work.
func (p *pool) idleWorkers() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.idle
}

// drain cancels the run context and waits for the workers to finish
// checkpointing their in-flight jobs. Safe to call more than once.
func (p *pool) drain() {
	p.mu.Lock()
	if !p.drained {
		p.drained = true
		if p.cancel != nil {
			p.cancel()
		}
		p.cond.Broadcast()
	}
	p.mu.Unlock()
	p.wg.Wait()
}
