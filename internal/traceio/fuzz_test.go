package traceio

import (
	"bytes"
	"context"
	"testing"

	"gcsim/internal/mem"
)

// FuzzReplay feeds arbitrary bytes to the replayer: truncated, bit-flipped,
// or hostile traces must surface as errors, never as panics, runaway
// allocations, or hangs — for both the inline and the pooled decoder paths.
func FuzzReplay(f *testing.F) {
	refs := makeRefs(2*mem.ChunkRefs + 37)
	for _, opts := range []WriterOpts{{}, {Compress: true}} {
		var buf bytes.Buffer
		w, err := NewBatchWriter(&buf, opts)
		if err != nil {
			f.Fatal(err)
		}
		w.SetClock(func() uint64 { return 12345 })
		w.RefBatch(refs)
		if err := w.Close(); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()/2])
	}
	// A retired v1 trace and assorted junk.
	f.Add([]byte(magicV1 + "\x01\x02\x03\x04"))
	f.Add([]byte(Magic2))
	f.Add([]byte(Magic2 + "\x01\x00\x00\x01"))
	f.Add([]byte("not a trace at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, nd := range []int{1, 4} {
			rp, err := NewReplayer(bytes.NewReader(data))
			if err != nil {
				continue
			}
			rp.SetDecoders(nd)
			var out fuzzSink
			n, err := rp.Run(context.Background(), &out)
			if err == nil && n != out.n {
				t.Fatalf("decoders=%d: reported %d refs, delivered %d", nd, n, out.n)
			}
			// The shared-decode path must agree with the classic replayer
			// byte for byte: same acceptance, same ref count.
			sr, serr := NewSharedReplayer(bytes.NewReader(data))
			if serr != nil {
				t.Fatalf("shared replayer rejected a header the classic one accepted: %v", serr)
			}
			sr.SetDecoders(nd)
			var sout fuzzSink
			sn, serr := sr.Run(context.Background(), &sout)
			if serr == nil && sn != sout.n {
				t.Fatalf("decoders=%d: shared reported %d refs, delivered %d", nd, sn, sout.n)
			}
			if err == nil && serr == nil && n != sn {
				t.Fatalf("decoders=%d: classic replay %d refs, shared %d", nd, n, sn)
			}
			if (err == nil) != (serr == nil) {
				t.Fatalf("decoders=%d: classic err=%v, shared err=%v", nd, err, serr)
			}
		}
	})
}

type fuzzSink struct{ n uint64 }

func (s *fuzzSink) Ref(addr uint64, write, collector bool) { s.n++ }
func (s *fuzzSink) RefBatch(refs []mem.Ref)                { s.n += uint64(len(refs)) }
func (s *fuzzSink) ChunkBatch(refs []mem.Ref, insnsAt uint64) {
	s.n += uint64(len(refs))
}
