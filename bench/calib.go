package main

import (
	"runtime"
	"sync"
	"time"
)

// Host-speed calibration. The machines this benchmark runs on are shared:
// their speed drifts by tens of percent over minutes as other tenants come
// and go, and no median inside one run can remove drift between runs. So
// every run also times a fixed reference kernel at intervals, and its
// end-to-end times are reported at reference speed: scaled by refNominal
// over the run's median kernel time. The kernel calls no gcsim code, so
// no change to the simulator can move it. Raw times are printed too.

// refNominal is the kernel's time on the machine of the fingerprint in
// bench/README.md when nothing else runs on it.
const refNominal = 30 * time.Millisecond

// refEvery is how much elapsed time one kernel run stands for: between
// units the calibrator runs the kernel once per refEvery passed since it
// last ran (up to refBurst times), so long and short units are covered by
// reference samples alike.
const (
	refEvery = 500 * time.Millisecond
	refBurst = 8
)

// calibrator collects reference-kernel times over a run.
type calibrator struct {
	samples []float64
	last    time.Time
}

// maybe runs the kernel in proportion to the time since it last ran.
func (c *calibrator) maybe() {
	if n := int(time.Since(c.last) / refEvery); n > 0 {
		c.calibrate(min(n, refBurst))
	}
}

// calibrate runs the kernel n times.
func (c *calibrator) calibrate(n int) {
	for i := 0; i < n; i++ {
		c.samples = append(c.samples, refKernel().Seconds())
	}
	c.last = time.Now()
}

// factor converts this run's measured times to reference speed.
func (c *calibrator) factor() float64 {
	if m := median(c.samples); m > 0 {
		return refNominal.Seconds() / m
	}
	return 1
}

// refSink keeps the kernel's result live so the compiler cannot drop it.
var refSink uint64

// refKernel runs one direct-mapped cache simulation per CPU, each over 3M
// references of a pseudo-random stream with sequential runs, and returns
// the time until all have finished.
func refKernel() time.Duration {
	n := runtime.GOMAXPROCS(0)
	misses := make([]uint64, n)
	for g := 0; g < n; g++ {
		refTable(g)
	}
	t0 := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			misses[g] = refSimulate(g)
		}(g)
	}
	wg.Wait()
	d := time.Since(t0)
	for _, m := range misses {
		refSink += m
	}
	return d
}

// refLines is the size of each kernel goroutine's tag table.
const refLines = 1 << 18

// refTables are allocated once, so the kernel never waits on page faults.
var (
	refTablesMu sync.Mutex
	refTables   [][]uint64
)

func refTable(g int) []uint64 {
	refTablesMu.Lock()
	defer refTablesMu.Unlock()
	for len(refTables) <= g {
		refTables = append(refTables, make([]uint64, refLines))
	}
	return refTables[g]
}

func refSimulate(g int) uint64 {
	const lines = refLines
	tags := refTable(g)
	clear(tags)
	x := uint64(g) + 1
	var addr, miss uint64
	for i := 0; i < 3_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if x&3 == 0 {
			addr = x >> 38
		} else {
			addr++
		}
		blk := addr >> 3
		if idx := blk & (lines - 1); tags[idx] != blk {
			tags[idx] = blk
			miss++
		}
	}
	return miss
}
