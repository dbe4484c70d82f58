package traceio

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"gcsim/internal/cache"
	"gcsim/internal/mem"
)

// makeRefs builds a deterministic reference stream with jumps, runs, and
// both flag bits exercised.
func makeRefs(n int) []mem.Ref {
	refs := make([]mem.Ref, 0, n)
	addr := uint64(mem.DynBase)
	for i := 0; i < n; i++ {
		switch i % 7 {
		case 0:
			addr = mem.StackBase + uint64(i%100)
		case 3:
			addr = mem.DynBase + uint64(i*13%100000)
		default:
			addr++
		}
		refs = append(refs, mem.MakeRef(addr, i%2 == 0, i%5 == 0))
	}
	return refs
}

// writeV2 encodes refs into a v2 trace, chunk-at-a-time.
func writeV2(t *testing.T, refs []mem.Ref, opts WriterOpts, clock func() uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewBatchWriter(&buf, opts)
	if err != nil {
		t.Fatal(err)
	}
	if clock != nil {
		w.SetClock(clock)
	}
	for len(refs) > 0 {
		n := mem.ChunkRefs
		if n > len(refs) {
			n = len(refs)
		}
		w.RefBatch(refs[:n])
		refs = refs[n:]
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

type batchRecorder struct {
	refs   []mem.Ref
	stamps []uint64
	clock  func() uint64
}

func (r *batchRecorder) Ref(addr uint64, write, collector bool) {
	r.refs = append(r.refs, mem.MakeRef(addr, write, collector))
}

func (r *batchRecorder) RefBatch(refs []mem.Ref) {
	r.refs = append(r.refs, refs...)
	if r.clock != nil {
		r.stamps = append(r.stamps, r.clock())
	}
}

func TestV2RoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts WriterOpts
	}{
		{"raw", WriterOpts{}},
		{"compressed", WriterOpts{Compress: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := makeRefs(3*mem.ChunkRefs + 17)
			data := writeV2(t, in, tc.opts, nil)
			var out batchRecorder
			n, err := Replay(context.Background(), bytes.NewReader(data), &out)
			if err != nil {
				t.Fatal(err)
			}
			if n != uint64(len(in)) {
				t.Fatalf("replayed %d refs, want %d", n, len(in))
			}
			for i := range in {
				if out.refs[i] != in[i] {
					t.Fatalf("ref %d: got %v, want %v", i, out.refs[i], in[i])
				}
			}
		})
	}
}

func TestV2RoundTripParallel(t *testing.T) {
	in := makeRefs(20*mem.ChunkRefs + 5)
	data := writeV2(t, in, WriterOpts{Compress: true}, nil)
	for _, nd := range []int{2, 4, 8} {
		rp, err := NewReplayer(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		rp.SetDecoders(nd)
		var out batchRecorder
		n, err := rp.Run(context.Background(), &out)
		if err != nil {
			t.Fatalf("decoders=%d: %v", nd, err)
		}
		if n != uint64(len(in)) {
			t.Fatalf("decoders=%d: replayed %d refs, want %d", nd, n, len(in))
		}
		for i := range in {
			if out.refs[i] != in[i] {
				t.Fatalf("decoders=%d: ref %d mismatch", nd, i)
			}
		}
	}
}

// The per-ref Tracer fallback stages into chunks and must round-trip too.
func TestV2PerRefWriter(t *testing.T) {
	in := makeRefs(mem.ChunkRefs + 100)
	var buf bytes.Buffer
	w, err := NewBatchWriter(&buf, WriterOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range in {
		w.Ref(r.Addr(), r.Write(), r.Collector())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != uint64(len(in)) {
		t.Fatalf("Count = %d, want %d", w.Count(), len(in))
	}
	var out batchRecorder
	n, err := Replay(context.Background(), &buf, &out)
	if err != nil {
		t.Fatal(err)
	}
	if n != uint64(len(in)) {
		t.Fatalf("replayed %d refs, want %d", n, len(in))
	}
	for i := range in {
		if out.refs[i] != in[i] {
			t.Fatalf("ref %d: got %v, want %v", i, out.refs[i], in[i])
		}
	}
}

// Frames carry the writer's clock stamps, and the replayer publishes each
// frame's stamp (through Clock) before delivering its chunk — for serial
// and parallel replay alike.
func TestV2ClockStamps(t *testing.T) {
	in := makeRefs(5 * mem.ChunkRefs)
	var tick uint64
	data := writeV2(t, in, WriterOpts{}, func() uint64 { tick += 1000; return tick })
	want := []uint64{1000, 2000, 3000, 4000, 5000}

	for _, nd := range []int{1, 4} {
		rp, err := NewReplayer(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		rp.SetDecoders(nd)
		out := &batchRecorder{clock: rp.Clock}
		if _, err := rp.Run(context.Background(), out); err != nil {
			t.Fatal(err)
		}
		if len(out.stamps) != len(want) {
			t.Fatalf("decoders=%d: %d stamps, want %d", nd, len(out.stamps), len(want))
		}
		for i, s := range want {
			if out.stamps[i] != s {
				t.Errorf("decoders=%d: stamp %d = %d, want %d", nd, i, out.stamps[i], s)
			}
		}
	}
}

// The writer stamps each frame as its chunk is handed over, on the
// caller's goroutine, not when the encoder reaches it: the clock returns
// whatever the test set before each RefBatch, so a late read would stamp
// a later chunk's value (and, under -race, race with the test).
func TestV2ClockStampedAtHandoff(t *testing.T) {
	const chunks = 3 * writerRing
	in := makeRefs(chunks * mem.ChunkRefs)
	var now uint64
	var buf bytes.Buffer
	w, err := NewBatchWriter(&buf, WriterOpts{})
	if err != nil {
		t.Fatal(err)
	}
	w.SetClock(func() uint64 { return now })
	want := make([]uint64, chunks)
	for i := range want {
		want[i] = uint64(i+1) * 7919
		now = want[i]
		w.RefBatch(in[i*mem.ChunkRefs : (i+1)*mem.ChunkRefs])
	}
	now = 0
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rp, err := NewReplayer(&buf)
	if err != nil {
		t.Fatal(err)
	}
	out := &batchRecorder{clock: rp.Clock}
	if _, err := rp.Run(context.Background(), out); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(out.stamps, want) {
		t.Fatalf("frame stamps %v,\nwant %v", out.stamps, want)
	}
}

// An address outside the 61-bit ring fails the encoder mid-stream. The
// producer must not block on the failed encoder: every RefBatch returns,
// Close reports the ring error, and the output, which has no trailer,
// does not replay.
func TestV2EncoderErrorPath(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewBatchWriter(&buf, WriterOpts{})
	if err != nil {
		t.Fatal(err)
	}
	// Far-apart addresses take several bytes a ref, so the ten good chunks
	// overflow the writer's output buffer and a prefix reaches buf.
	good := make([]mem.Ref, mem.ChunkRefs)
	for i := range good {
		good[i] = mem.MakeRef(mem.DynBase+uint64(i)*0x9e3779b1%(1<<32), i%3 == 0, false)
	}
	bad := slices.Clone(good)
	bad[100] = mem.MakeRef(addrMask+1, false, false)
	closed := make(chan error, 1)
	go func() {
		for i := 0; i < 100; i++ {
			if i == 10 {
				w.RefBatch(bad)
			} else {
				w.RefBatch(good)
			}
		}
		closed <- w.Close()
	}()
	select {
	case err := <-closed:
		if err == nil || !strings.Contains(err.Error(), "outside the 61-bit trace ring") {
			t.Fatalf("Close = %v, want the ring error", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("RefBatch or Close blocked after an encoder error")
	}
	if w.Count() != 10*mem.ChunkRefs {
		t.Errorf("Count = %d, want the %d refs before the bad chunk", w.Count(), 10*mem.ChunkRefs)
	}
	if buf.Len() <= len(Magic2) {
		t.Fatalf("no frames reached the output (%d bytes); the test needs a flushed prefix", buf.Len())
	}
	if _, err := Replay(context.Background(), &buf, &batchRecorder{}); err == nil ||
		!strings.Contains(err.Error(), "truncated") {
		t.Fatalf("replaying the failed trace: %v, want a truncation error", err)
	}
}

// Abort stops the encoder without a trailer; it is idempotent, Close
// after it reports the abort, and after Close it does nothing.
func TestV2Abort(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewBatchWriter(&buf, WriterOpts{})
	if err != nil {
		t.Fatal(err)
	}
	in := makeRefs(40 * mem.ChunkRefs)
	w.RefBatch(in)
	w.Abort()
	w.Abort()
	w.RefBatch(in) // ignored
	if err := w.Close(); err == nil {
		t.Fatal("Close after Abort returned nil")
	}
	if _, err := Replay(context.Background(), &buf, &batchRecorder{}); err == nil {
		t.Fatal("an aborted trace replayed")
	}

	buf.Reset()
	w, err = NewBatchWriter(&buf, WriterOpts{})
	if err != nil {
		t.Fatal(err)
	}
	w.RefBatch(in)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w.Abort()
	if err := w.Err(); err != nil {
		t.Fatalf("Abort after Close: Err = %v", err)
	}
	if n, err := Replay(context.Background(), &buf, &batchRecorder{}); err != nil || n != uint64(len(in)) {
		t.Fatalf("replay after Close+Abort: %d refs, %v", n, err)
	}
}

func TestV2CorruptionDetected(t *testing.T) {
	in := makeRefs(2 * mem.ChunkRefs)
	valid := writeV2(t, in, WriterOpts{}, nil)

	corrupt := func(name string, mutate func([]byte) []byte) {
		t.Run(name, func(t *testing.T) {
			data := mutate(append([]byte(nil), valid...))
			for _, nd := range []int{1, 4} {
				rp, err := NewReplayer(bytes.NewReader(data))
				if err != nil {
					return // header-level rejection is also a pass
				}
				rp.SetDecoders(nd)
				var out batchRecorder
				if _, err := rp.Run(context.Background(), &out); err == nil {
					t.Errorf("decoders=%d: corruption not detected", nd)
				}
			}
		})
	}

	corrupt("bad magic", func(b []byte) []byte {
		b[0] ^= 0xff
		return b
	})
	corrupt("flipped payload byte", func(b []byte) []byte {
		b[len(Magic2)+20] ^= 0x40
		return b
	})
	corrupt("truncated mid-frame", func(b []byte) []byte {
		return b[:len(Magic2)+30]
	})
	corrupt("missing trailer", func(b []byte) []byte {
		return b[:len(b)-6]
	})
	corrupt("data after trailer", func(b []byte) []byte {
		return append(b, 0xaa)
	})
	corrupt("trailer count off by one", func(b []byte) []byte {
		// The trailer is 0:uvarint count:uvarint crc:4LE; the count's low
		// byte is 5 bytes from the end for these sizes.
		b[len(b)-5] ^= 0x01
		return b
	})
}

func TestReplayCancel(t *testing.T) {
	in := makeRefs(50 * mem.ChunkRefs)
	data := writeV2(t, in, WriterOpts{}, nil)
	for _, nd := range []int{1, 4} {
		rp, err := NewReplayer(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		rp.SetDecoders(nd)
		ctx, cancel := context.WithCancel(context.Background())
		delivered := 0
		out := &batchRecorder{clock: func() uint64 {
			delivered++
			if delivered == 3 {
				cancel()
			}
			return 0
		}}
		n, err := rp.Run(ctx, out)
		cancel()
		if err == nil {
			t.Fatalf("decoders=%d: cancelled replay returned nil error", nd)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("decoders=%d: error %v does not match context.Canceled", nd, err)
		}
		if n >= uint64(len(in)) {
			t.Fatalf("decoders=%d: replay did not stop early (%d refs)", nd, n)
		}
	}
}

func TestReplayerSingleShot(t *testing.T) {
	data := writeV2(t, makeRefs(10), WriterOpts{}, nil)
	rp, err := NewReplayer(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var out batchRecorder
	if _, err := rp.Run(context.Background(), &out); err != nil {
		t.Fatal(err)
	}
	if _, err := rp.Run(context.Background(), &out); err == nil {
		t.Fatal("second Run succeeded")
	}
}

// End-to-end: a VM run captured in v2 and replayed (serially and with a
// decoder pool) into a fresh cache must reproduce live statistics exactly.
func TestV2CaptureAndReplayMatchesLive(t *testing.T) {
	cfg := cache.Config{SizeBytes: 32 << 10, BlockBytes: 64, Policy: cache.WriteValidate}
	live := cache.New(cfg)
	runCaptureProg(t, live)

	var buf bytes.Buffer
	w, err := NewBatchWriter(&buf, WriterOpts{Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	runCaptureProg(t, w)

	for _, nd := range []int{1, 4} {
		rp, err := NewReplayer(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		rp.SetDecoders(nd)
		replayed := cache.New(cfg)
		n, err := rp.Run(context.Background(), replayed)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			t.Fatal("empty trace")
		}
		if live.S != replayed.S {
			t.Errorf("decoders=%d: replayed stats differ:\nlive:     %+v\nreplayed: %+v", nd, live.S, replayed.S)
		}
	}
}
