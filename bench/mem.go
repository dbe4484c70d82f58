package main

import (
	"runtime/metrics"
	"syscall"
	"time"
)

// memSampler tracks two peaks while it runs: the largest live heap a
// garbage collection found (what the program needed), and the most memory
// the Go runtime held from the OS (mapped minus returned), which adds GC
// overshoot and heap growth steps on top. Set-up and the checks run
// unwatched, so both are the measured units' own.
type memSampler struct {
	stop chan struct{}
	done chan memPeaks
}

// memPeaks are a sampler's results, in bytes.
type memPeaks struct{ live, held uint64 }

// memSampleEvery is the sampling period; the live heap changes only when
// a collection ends, which is rarely more often than this.
const memSampleEvery = 2 * time.Millisecond

func startMemSampler() *memSampler {
	s := &memSampler{stop: make(chan struct{}), done: make(chan memPeaks, 1)}
	go func() {
		samples := []metrics.Sample{
			{Name: "/gc/heap/live:bytes"},
			{Name: "/memory/classes/total:bytes"},
			{Name: "/memory/classes/heap/released:bytes"},
		}
		var peak memPeaks
		read := func() {
			metrics.Read(samples)
			peak.live = max(peak.live, samples[0].Value.Uint64())
			peak.held = max(peak.held, samples[1].Value.Uint64()-samples[2].Value.Uint64())
		}
		read()
		tick := time.NewTicker(memSampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				read()
				s.done <- peak
				return
			case <-tick.C:
				read()
			}
		}
	}()
	return s
}

// peaks stops the sampler and returns its peaks in MB.
func (s *memSampler) peaks() (liveMB, heldMB float64) {
	close(s.stop)
	p := <-s.done
	return float64(p.live) / 1e6, float64(p.held) / 1e6
}

// peakRSSMB is the process's peak resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Maxrss is in KiB on Linux
}
