package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"gcsim/internal/castore"
	"gcsim/internal/core"
	"gcsim/internal/gc"
	"gcsim/internal/traceio"
	"gcsim/internal/vm"
	"gcsim/internal/workloads"
)

// semispaces are the Cheney semispace sizes the record workload uses.
var semispaces = []int{512 << 10, 1 << 20, 2 << 20}

// recordBench records the five programs with Cheney through
// traceio.BatchWriter into castore.Ingest on a castore.Dir, one round of
// five recordings per unit of work. In round i program k runs with
// semispace (k + i + seed) mod 3: the seed picks the phase, and every
// cycle of three rounds records each program at each size once, so a
// cycle does the same work whatever the seed.
type recordBench struct {
	p     *params
	dir   string
	store *castore.Dir
	seen  map[recKey]recSeen

	bytes, refs int64
	rounds      int
}

type recKey struct {
	prog      string
	semispace int
}

// recSeen is what the first recording of a program at one semispace
// produced; every later one must match it.
type recSeen struct {
	id    castore.ID
	refs  uint64
	times int
}

func setupRecord(ctx context.Context, p *params, dir string) (bench, error) {
	store, err := castore.NewDir(filepath.Join(dir, "blobs"))
	if err != nil {
		return nil, err
	}
	b := &recordBench{p: p, dir: dir, store: store, seen: map[recKey]recSeen{}}
	// Warm-up: one recording of tc, deleted at once.
	rec, err := b.recordOne(ctx, tcWorkload(), gc.DefaultSemispaceBytes, nil)
	if err != nil {
		return nil, err
	}
	return b, store.Delete(ctx, rec.id)
}

func (b *recordBench) semispace(k, round int) int {
	return semispaces[(uint64(k)+uint64(round)+b.p.seed)%uint64(len(semispaces))]
}

func (b *recordBench) op(ctx context.Context, i int, lay layers) opResult {
	r := opResult{start: time.Now()}
	for k, w := range workloads.All() {
		ss := b.semispace(k, i)
		r.attempted++
		runtime.GC() // each VM starts from a clean heap; outside the timed recording
		rec, err := b.recordOne(ctx, w, ss, lay)
		r.wall += rec.wall
		if err == nil {
			b.bytes += rec.bytes
			b.refs += int64(rec.refs)
			err = b.verify(recKey{w.Name, ss}, rec)
			if derr := b.store.Delete(ctx, rec.id); err == nil {
				err = derr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: round %d: %s semispace %d: %v\n", i, w.Name, ss, err)
			r.failed++
		}
	}
	b.rounds++
	if lay != nil && b.refs > 0 {
		lay["traceio.bytes_per_ref"] = float64(b.bytes) / float64(b.refs)
	}
	return r
}

// recording is one finished trace.
type recording struct {
	id          castore.ID
	refs        uint64
	bytes       int64
	wall        time.Duration
	counterRefs uint64 // references the machine counted
}

// recordOne records w at the given semispace. With lay non-nil every
// layer is timed: the tracer wrapper sees the writer's encode (and the
// blob writes its buffer flushes), the blob wrapper sees castore's put.
func (b *recordBench) recordOne(ctx context.Context, w *workloads.Workload, ss int, lay layers) (rec recording, err error) {
	start := time.Now()
	blobw, err := castore.Ingest(ctx, b.store)
	if err != nil {
		return rec, err
	}
	defer func() {
		if err != nil {
			blobw.Abort()
		}
	}()
	tw := &timedBlobWriter{BlobWriter: blobw}
	bw, err := traceio.NewBatchWriter(tw, traceio.WriterOpts{})
	if err != nil {
		return rec, err
	}
	var (
		tracer batchTracer = bw
		col    gc.Collector
		tt     *timedTracer
		tcol   *timedCheney
	)
	if lay != nil {
		tt = &timedTracer{next: bw}
		tcol = &timedCheney{Cheney: gc.NewCheney(ss), tracer: tt}
		tracer, col = tt, tcol
	} else {
		col = gc.NewCheney(ss)
	}
	r0 := time.Now()
	run, err := core.Run(ctx, core.RunSpec{
		Workload: w, Scale: b.p.scale(w), Collector: col, Tracer: tracer,
		OnMachine: func(m *vm.Machine) { bw.SetClock(m.Insns) },
	})
	runWall := time.Since(r0)
	if err != nil {
		return rec, err
	}
	c0 := time.Now()
	if err = bw.Close(); err != nil {
		return rec, err
	}
	closeWall := time.Since(c0)
	if rec.id, err = tw.Commit(); err != nil {
		return rec, err
	}
	rec.wall = time.Since(start)
	rec.refs = bw.Count()
	rec.counterRefs = run.Counters.Refs() + run.Counters.GCRefs()
	st, err := os.Stat(filepath.Join(b.store.Root(), rec.id.String()))
	if err != nil {
		return rec, err
	}
	rec.bytes = st.Size()
	if lay != nil {
		lay["vm.interpret_s"] += seconds(int64(runWall) - tt.ns - tcol.ns)
		lay["gc.collect_s"] += seconds(tcol.ns)
		lay["traceio.encode_s"] += seconds(tt.ns+int64(closeWall)) - seconds(tw.writeNs)
		lay["castore.put_s"] += seconds(tw.writeNs + tw.commitNs)
		lay["mem.chunks"] += float64(tt.chunks)
		lay["gc.collections"] += float64(run.GCStats.Collections)
		lay["gc.copied_words"] += float64(run.GCStats.CopiedWords)
	}
	return rec, nil
}

// verify checks a recording against the machine's own reference count
// and against the first recording of the same program and semispace.
func (b *recordBench) verify(key recKey, rec recording) error {
	if rec.refs != rec.counterRefs {
		return fmt.Errorf("trace holds %d refs, machine counted %d", rec.refs, rec.counterRefs)
	}
	s, ok := b.seen[key]
	if !ok {
		b.seen[key] = recSeen{id: rec.id, refs: rec.refs, times: 1}
		return nil
	}
	s.times++
	b.seen[key] = s
	if rec.id != s.id || rec.refs != s.refs {
		return fmt.Errorf("recorded %s (%d refs), earlier %s (%d refs)", rec.id, rec.refs, s.id, s.refs)
	}
	return nil
}

// check records each program once more at its round-0 semispace, unless
// the run already recorded that pair twice, and compares.
func (b *recordBench) check(ctx context.Context) (int, error) {
	failed := 0
	for k, w := range workloads.All() {
		key := recKey{w.Name, b.semispace(k, 0)}
		if s, ok := b.seen[key]; !ok || s.times > 1 {
			continue
		}
		rec, err := b.recordOne(ctx, w, key.semispace, nil)
		if err != nil {
			return failed, err
		}
		if err := b.verify(key, rec); err != nil {
			fmt.Fprintf(os.Stderr, "bench: check %s semispace %d: %v\n", w.Name, key.semispace, err)
			failed++
		}
		if err := b.store.Delete(ctx, rec.id); err != nil {
			return failed, err
		}
	}
	return failed, nil
}

func (b *recordBench) traceMB() float64 {
	return float64(b.bytes) / 1e6 / float64(max(b.rounds, 1))
}

func (b *recordBench) close() {}
