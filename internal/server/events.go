package server

import (
	"sync"
	"time"
)

// eventHub fans each job's progress events out to its live subscribers
// while keeping the full per-job history for replay, so a client that
// connects mid-run (or after completion) still sees every line. Events
// are advisory — per-job subscribers are bounded and drop progress lines
// rather than block a worker on a slow reader — but a terminal state
// event is never dropped: termination is signalled by closing the
// subscriber channels, which no backlog can delay. Every dropped line is
// counted through the dropped hook (gcsimd_sse_dropped_total), so
// shedding is visible instead of silent.
type eventHub struct {
	// observe, when non-nil, is called with each publish's fan-out
	// duration — how long delivering the event to every subscriber took.
	// It feeds the gcsimd_fanout_seconds histogram.
	observe func(time.Duration)
	// dropped, when non-nil, is called with the count whenever events
	// are dropped because a per-job subscriber's buffer was full.
	dropped func(n uint64)

	mu     sync.Mutex
	events map[string][]Event
	subs   map[string]map[int]chan Event // per-job subscribers by ID
	closed map[string]bool
	nextID int
}

// subChanCap bounds each subscriber's in-flight buffer. A sweep emits one
// event per configuration, so 256 covers any realistic job with room to
// spare; a reader further behind than that loses progress lines only.
const subChanCap = 256

func newEventHub(observe func(time.Duration), dropped func(n uint64)) *eventHub {
	return &eventHub{
		observe: observe,
		dropped: dropped,
		events:  make(map[string][]Event),
		subs:    make(map[string]map[int]chan Event),
		closed:  make(map[string]bool),
	}
}

// publish appends the event to the job's history and delivers it to live
// per-job subscribers. A terminal state event also closes the job's
// stream: all per-job subscriber channels are closed and later
// subscribers get replay only.
func (h *eventHub) publish(e Event) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed[e.Job] {
		return // terminal already announced; nothing may follow it
	}
	t0 := time.Now()
	h.events[e.Job] = append(h.events[e.Job], e)
	terminal := e.Type == "state" && TerminalState(e.State)
	var slow uint64
	for _, ch := range h.subs[e.Job] {
		select {
		case ch <- e:
		default: // slow reader: drop the progress line, never block a worker
			slow++
		}
	}
	if slow > 0 && h.dropped != nil {
		h.dropped(slow)
	}
	if terminal {
		h.closed[e.Job] = true
		for _, ch := range h.subs[e.Job] {
			close(ch)
		}
		delete(h.subs, e.Job)
	}
	if h.observe != nil {
		h.observe(time.Since(t0))
	}
}

// subscribe returns the job's event history plus, for a still-open
// stream, a live channel (nil when the job's stream already terminated).
// cancel detaches the subscription; it is safe to call after the channel
// closed.
func (h *eventHub) subscribe(jobID string) (replay []Event, ch chan Event, cancel func()) {
	h.mu.Lock()
	defer h.mu.Unlock()
	replay = append(replay, h.events[jobID]...)
	if h.closed[jobID] {
		return replay, nil, func() {}
	}
	ch = make(chan Event, subChanCap)
	id := h.nextID
	h.nextID++
	if h.subs[jobID] == nil {
		h.subs[jobID] = make(map[int]chan Event)
	}
	h.subs[jobID][id] = ch
	cancel = func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		if subs, ok := h.subs[jobID]; ok {
			if _, live := subs[id]; live {
				delete(subs, id)
				close(ch)
			}
		}
	}
	return replay, ch, cancel
}

// seed records history for a job the hub has never seen (a job loaded
// from disk by a restarted server), so subscribers still get a coherent
// stream. It is a no-op if the job already has events.
func (h *eventHub) seed(j *Job) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.events[j.ID]) > 0 || h.closed[j.ID] {
		return
	}
	e := Event{Type: "state", Job: j.ID, State: j.State, Done: j.ConfigsDone, Total: j.ConfigsTotal, Error: j.Error, Tenant: j.Tenant, Priority: j.Priority}
	h.events[j.ID] = append(h.events[j.ID], e)
	if j.Terminal() {
		h.closed[j.ID] = true
	}
}
