package traceio

import (
	"bytes"
	"context"
	"math/rand/v2"
	"slices"
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

// FuzzBatchWriterRoundTrip writes fuzzer-drawn chunks through the
// pipelined writer — empty, single-ref, exactly mem.ChunkRefs, and larger
// ones the writer must split — each stamped with its own clock value, raw
// or compressed, and replays the trace: every ref, every frame's stamp
// and Count must come back.
func FuzzBatchWriterRoundTrip(f *testing.F) {
	f.Add(uint64(1), []byte{0, 1, 2, 3, 4}, false)
	f.Add(uint64(2), []byte{3, 2, 1, 0, 3, 4, 4}, true)
	f.Add(uint64(3), bytes.Repeat([]byte{2}, 2*writerRing+1), false)
	f.Fuzz(func(t *testing.T, seed uint64, sizes []byte, compress bool) {
		if limit := 2*writerRing + 8; len(sizes) > limit { // enough to fill the ring
			sizes = sizes[:limit]
		}
		rng := rand.New(rand.NewPCG(seed, 0))
		var buf bytes.Buffer
		w, err := NewBatchWriter(&buf, WriterOpts{Compress: compress})
		if err != nil {
			t.Fatal(err)
		}
		var now uint64
		w.SetClock(func() uint64 { return now })
		var in []mem.Ref
		var stamps []uint64
		var addr uint64
		chunk := make([]mem.Ref, 3*mem.ChunkRefs)
		for _, b := range sizes {
			var n int
			switch b % 5 {
			case 0:
				n = 0
			case 1:
				n = 1
			case 2:
				n = mem.ChunkRefs
			case 3: // split into two or three frames
				n = mem.ChunkRefs + 1 + rng.IntN(2*mem.ChunkRefs-1)
			default:
				n = 2 + rng.IntN(mem.ChunkRefs-2)
			}
			for i := range chunk[:n] {
				// Mostly short strides, with jumps anywhere in the ring.
				if rng.IntN(8) == 0 {
					addr = rng.Uint64() & addrMask
				} else {
					addr = (addr + uint64(rng.IntN(64)) - 32) & addrMask
				}
				chunk[i] = mem.MakeRef(addr, rng.IntN(2) == 0, rng.IntN(4) == 0)
			}
			in = append(in, chunk[:n]...)
			now = rng.Uint64()
			for k := 0; k < n; k += mem.ChunkRefs {
				stamps = append(stamps, now)
			}
			w.RefBatch(chunk[:n]) // the writer copies it: chunk is reused
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if w.Count() != uint64(len(in)) {
			t.Fatalf("Count = %d, want %d", w.Count(), len(in))
		}
		rp, err := NewReplayer(&buf)
		if err != nil {
			t.Fatal(err)
		}
		out := &batchRecorder{clock: rp.Clock}
		n, err := rp.Run(context.Background(), out)
		if err != nil {
			t.Fatal(err)
		}
		if n != uint64(len(in)) || !slices.Equal(out.refs, in) {
			t.Fatalf("replayed %d refs, wrote %d; equal=%v", n, len(in), slices.Equal(out.refs, in))
		}
		if !slices.Equal(out.stamps, stamps) {
			t.Fatalf("frame stamps %v, want %v", out.stamps, stamps)
		}
	})
}

type fuzzSink struct{ n uint64 }

func (s *fuzzSink) Ref(addr uint64, write, collector bool) { s.n++ }
func (s *fuzzSink) RefBatch(refs []mem.Ref)                { s.n += uint64(len(refs)) }
func (s *fuzzSink) ChunkBatch(refs []mem.Ref, insnsAt uint64) {
	s.n += uint64(len(refs))
}
