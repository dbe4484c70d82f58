package traceio

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"testing/quick"

	"gcsim/internal/cache"
	"gcsim/internal/gc"
	"gcsim/internal/mem"
	"gcsim/internal/vm"
)

type refRec struct {
	addr             uint64
	write, collector bool
}

// recorder is a plain per-reference tracer: replay must reach it through
// the per-ref compatibility loop, not a batch.
type recorder struct{ refs []refRec }

func (r *recorder) Ref(addr uint64, write, collector bool) {
	r.refs = append(r.refs, refRec{addr, write, collector})
}

// writeRecs records refs one at a time through the writer's per-ref path.
func writeRecs(t testing.TB, in []refRec) *bytes.Buffer {
	var buf bytes.Buffer
	w, err := NewBatchWriter(&buf, WriterOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range in {
		w.Ref(r.addr, r.write, r.collector)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != uint64(len(in)) {
		t.Errorf("Count = %d, want %d", w.Count(), len(in))
	}
	return &buf
}

func TestRoundTrip(t *testing.T) {
	in := []refRec{
		{mem.DynBase, true, false},
		{mem.DynBase + 1, true, false},
		{mem.StackBase, false, false},
		{mem.DynBase + 100, false, true},
		{mem.StaticBase, true, true},
	}
	var out recorder
	n, err := Replay(context.Background(), writeRecs(t, in), &out)
	if err != nil {
		t.Fatal(err)
	}
	if n != uint64(len(in)) {
		t.Errorf("replayed %d, want %d", n, len(in))
	}
	for i, r := range in {
		if out.refs[i] != r {
			t.Errorf("record %d: got %+v, want %+v", i, out.refs[i], r)
		}
	}
}

func TestSequentialSweepCompresses(t *testing.T) {
	in := make([]refRec, 10000)
	for i := range in {
		in[i] = refRec{mem.DynBase + uint64(i), true, false}
	}
	buf := writeRecs(t, in)
	perRef := float64(buf.Len()-len(Magic2)) / float64(len(in))
	if perRef > 1.1 {
		t.Errorf("sequential trace uses %.2f bytes/ref, want ~1", perRef)
	}
}

// TestRejectsGarbage: anything but a well-formed v2 trace is an error —
// including a retired format-v1 file, which is refused by name.
func TestRejectsGarbage(t *testing.T) {
	var out recorder
	if _, err := Replay(context.Background(), strings.NewReader("not a trace"), &out); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Replay(context.Background(), strings.NewReader(""), &out); err == nil {
		t.Error("empty input accepted")
	}
	// Truncated frame after a valid header.
	if _, err := Replay(context.Background(), strings.NewReader(Magic2+"\x01"), &out); err == nil {
		t.Error("truncated frame accepted")
	}
	_, err := Replay(context.Background(), strings.NewReader(magicV1+"\x01\x02"), &out)
	if err == nil || !strings.Contains(err.Error(), "v1 is no longer supported") {
		t.Errorf("v1 trace: err = %v, want the v1-unsupported error", err)
	}
}

// Property: arbitrary reference sequences round-trip exactly.
func TestPropertyRoundTrip(t *testing.T) {
	f := func(addrs []uint64, bits []bool) bool {
		var in []refRec
		for i, a := range addrs {
			in = append(in, refRec{a & (1<<50 - 1), i < len(bits) && bits[i], i%3 == 0})
		}
		var out recorder
		n, err := Replay(context.Background(), writeRecs(t, in), &out)
		if err != nil || n != uint64(len(in)) {
			return false
		}
		for i := range in {
			if out.refs[i] != in[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// runCaptureProg runs a small consing program under a Cheney collector
// with every reference going to tracer; a BatchWriter is clocked by the
// machine, as the trace cache records.
func runCaptureProg(t *testing.T, tracer mem.Tracer) {
	t.Helper()
	m := vm.NewLoaded(tracer, gc.NewCheney(64<<10))
	m.MaxInsns = 500_000_000
	if w, ok := tracer.(*BatchWriter); ok {
		w.SetClock(m.Insns)
	}
	m.MustEval(`
		(define (build n) (if (= n 0) '() (cons n (build (- n 1)))))
		(let loop ((i 0) (acc 0))
		  (if (= i 30) acc (loop (+ i 1) (+ acc (length (build 200))))))`)
	if w, ok := tracer.(*BatchWriter); ok {
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// End-to-end: capturing a VM run and replaying it once through the shared
// decoder into a sharded fused bank must give exactly the statistics of
// simulating every configuration live.
func TestCaptureAndReplayMatchesLive(t *testing.T) {
	cfgs := sweepConfigs8()
	live := cache.NewBank(cfgs)
	runCaptureProg(t, live)

	var buf bytes.Buffer
	w, err := NewBatchWriter(&buf, WriterOpts{})
	if err != nil {
		t.Fatal(err)
	}
	runCaptureProg(t, w)

	sr, err := NewSharedReplayer(&buf)
	if err != nil {
		t.Fatal(err)
	}
	replayed := cache.NewFusedBankWorkers(cfgs, 3)
	n, err := sr.Run(context.Background(), replayed)
	replayed.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("empty trace")
	}
	for i, lc := range live.Caches {
		if rc := replayed.Caches[i]; lc.S != rc.S {
			t.Errorf("%v: replayed stats differ:\nlive:     %+v\nreplayed: %+v", lc.Config(), lc.S, rc.S)
		}
	}
}
