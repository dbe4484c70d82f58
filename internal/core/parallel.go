package core

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// The experiment-level worker pool. Experiments that perform several
// independent runs (one per workload, or baseline + collected) execute
// them concurrently, bounded by the configured parallelism. Each run owns
// its machine, memory, collector, and bank, so runs share nothing; the
// parallel results are byte-identical to serial ones and only the
// wall-clock changes.

var parallelism atomic.Int32

func init() { parallelism.Store(int32(runtime.GOMAXPROCS(0))) }

// SetParallelism bounds the number of concurrently executing runs, the
// frame decoders of a replayed sweep, and the workers a sweep's cache bank
// shards its configurations across (n <= 1 keeps the decode and the lanes
// inline). It does not govern recording: a traceio.BatchWriter always
// encodes on its one encoder goroutine, whatever n is. CLIs plumb their
// -parallel flag here.
func SetParallelism(n int) {
	if n < 1 {
		n = 1
	}
	parallelism.Store(int32(n))
}

// Parallelism returns the current bound (default GOMAXPROCS).
func Parallelism() int { return int(parallelism.Load()) }

// PanicError wraps a panic recovered from a worker, preserving the panic
// value and the goroutine stack at the point of the panic.
type PanicError struct {
	Index int // which task panicked
	Value any
	Stack string
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("core: task %d panicked: %v", e.Index, e.Value)
}

// safeCall invokes f(i), converting a panic into a *PanicError so a bad
// task cannot crash the process or leak the pool's semaphore slot.
func safeCall(i int, f func(i int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Index: i, Value: r, Stack: string(debug.Stack())}
		}
	}()
	return f(i)
}

// forEachPar runs f(0..n-1), at most Parallelism() at a time, and returns
// the first error by index (a recovered panic counts as that task's
// error). Once any task has failed or ctx is done, no further tasks are
// dispatched; tasks already running are left to finish (they observe
// cancellation themselves, through the machine interrupt Run wires up).
// With parallelism 1 it degenerates to a plain loop on the calling
// goroutine.
func forEachPar(ctx context.Context, n int, f func(i int) error) error {
	limit := Parallelism()
	if limit <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := safeCall(i, f); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg     sync.WaitGroup
		sem    = make(chan struct{}, limit)
		errs   = make([]error, n)
		failed atomic.Bool
	)
dispatch:
	for i := 0; i < n; i++ {
		if failed.Load() {
			break
		}
		select {
		case <-ctx.Done():
			break dispatch
		case sem <- struct{}{}:
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			if err := safeCall(i, f); err != nil {
				errs[i] = err
				failed.Store(true)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}
