// Trace format v2: length-prefixed frames of packed mem.Ref chunks.
//
// The format is framed: the writer consumes whole chunks from the batch
// reference pipeline (mem.BatchTracer), encodes each chunk into one
// self-contained frame, and the replayer can decode frames on a pool of
// goroutines because every frame restarts its address-delta chain from
// zero.
//
// Layout, after the 12-byte magic "GCSIMTRACE2\n":
//
//	frame    := refCount:uvarint(>0) flags:byte insnsAt:uvarint
//	            payloadLen:uvarint crc32:4×LE payload:bytes
//	trailer  := 0:uvarint totalRefs:uvarint runningCRC:4×LE
//
// The payload encodes refCount references, each as a single uvarint v:
// bits 0-1 are the reference flags (bit 0 = write, bit 1 = collector),
// bit 2 selects one of two address-delta chains — 0 for stack-segment
// addresses (below mem.StaticBase), 1 for static/heap addresses — and
// v>>3 is the zigzag-encoded delta of the word address from the previous
// reference on the same chain in the same frame, wrapping in the 61-bit
// address ring (each chain starts at address zero). Interpreted programs
// alternate stack and heap references constantly; giving each segment its
// own delta chain keeps both chains local, so the common reference costs
// one payload byte and the decoder's hot loop reads one short varint per
// reference. When frame flag bit 0 is set the payload is
// DEFLATE-compressed; the stored length and CRC always describe the
// stored (possibly compressed) bytes.
//
// insnsAt is the VM instruction clock at the moment the chunk was sealed
// (zero when the writer has no clock). Replaying hands the stamp back
// through Replayer.Clock, so periodic cache snapshots taken at chunk
// boundaries land on exactly the instruction counts a live run would use.
//
// The trailer carries the total reference count and the running CRC32 of
// every stored payload, so truncation — even at a frame boundary — is
// always detected.
package traceio

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"sync/atomic"
	"time"

	"gcsim/internal/mem"
)

// Magic2 identifies format v2 trace files.
const Magic2 = "GCSIMTRACE2\n"

// FormatVersion is the version new traces are written in.
const FormatVersion = 2

// frameCompressed marks a DEFLATE-compressed frame payload.
const frameCompressed = 1 << 0

// MaxFrameRefs bounds the reference count of a single frame. The writer
// never exceeds mem.ChunkRefs; the bound exists so a corrupt or hostile
// header cannot make the replayer allocate an absurd chunk.
const MaxFrameRefs = 1 << 16

// maxRefBytes is the worst-case encoded size of one reference: a single
// full-width varint carrying the flag bits and the address delta.
const maxRefBytes = binary.MaxVarintLen64

// addrMask bounds the 61-bit address ring reference records encode in.
// Deltas are computed modulo 1<<61, so their zigzag encoding fits in 61
// bits and v = zigzag<<3|chain<<2|flags never overflows uint64. Packed
// mem.Ref addresses are nominally 62-bit, but the simulated address space
// (mem.StackBase … mem.DynBase plus heap) is far below 2^61; the writer
// rejects addresses outside the ring rather than corrupt a trace.
const addrMask = 1<<61 - 1

// WriterOpts configures a BatchWriter.
type WriterOpts struct {
	// Compress enables per-frame DEFLATE compression (each frame keeps
	// whichever of the raw and compressed encodings is smaller).
	Compress bool
}

// writerRing is the number of chunk buffers a BatchWriter's producer and
// encoder pass between them: 16 chunks, 512 KiB of refs. Measured on the
// record benchmark (2 vCPUs), an 8-chunk ring behind a 1 MiB output
// buffer left the VM blocked for about 0.7 s per round, because each
// buffer flush outlasted 8 chunks of VM output; a 64-chunk ring saved a
// little more time but raised peak live memory by 10%.
const writerRing = 16

// writerBufBytes sizes the encoder's output buffer. Small flushes keep
// each write into w (for a blob store: hash plus file write) well inside
// the time the VM takes to fill the ring; ring and buffer together hold
// under 600 KiB.
const writerBufBytes = 64 << 10

// ringBuf is one ring buffer: a chunk on its way from the producer to
// the encoder, with its clock stamp.
type ringBuf struct {
	refs    []mem.Ref
	insnsAt uint64
}

// errAborted is what Close and Err report after Abort.
var errAborted = errors.New("recording aborted")

// BatchWriter streams references to w in format v2, one frame per chunk.
// It implements both mem.BatchTracer (the fast path: the Memory's chunk
// pipeline hands over sealed chunks and each becomes one frame) and
// mem.Tracer (stragglers are staged into chunks internally).
//
// The writer is a two-stage pipeline. The producer — the goroutine that
// calls RefBatch or Ref, the VM's — only stamps each chunk with the
// instruction clock, copies it into a buffer from a fixed ring and hands
// it over. One encoder goroutine, started by NewBatchWriter, encodes the
// frames in hand-off order and does every write into w. Call Close when
// the run completes: it seals any staged references, waits for the
// encoder, writes the trailer and reports any deferred write error. A
// recording that will not be completed must call Abort instead, or the
// encoder goroutine never exits.
type BatchWriter struct {
	opts  WriterOpts
	clock func() uint64

	// Producer side.
	staged    []mem.Ref     // per-ref Tracer fallback staging
	free      chan *ringBuf // recycled buffers; empty when the encoder is behind
	queue     chan *ringBuf // stamped chunks, in hand-off order
	done      chan struct{} // closed when the encoder goroutine exits
	handoffNs int64
	closed    bool        // Close or Abort has run
	aborted   atomic.Bool // tells the encoder to drop the frames still queued

	// Encoder side: owned by the encoder goroutine until done is closed,
	// then by Close or Abort.
	w        *bufio.Writer
	count    uint64
	runCRC   uint32
	err      error
	encodeNs int64
	enc      []byte       // raw payload scratch
	cmp      bytes.Buffer // compressed payload scratch
	fw       *flate.Writer
}

// NewBatchWriter starts a v2 trace on w and the writer's encoder
// goroutine. Every writer must be finished with Close or Abort.
func NewBatchWriter(w io.Writer, opts WriterOpts) (*BatchWriter, error) {
	bw := bufio.NewWriterSize(w, writerBufBytes)
	if _, err := bw.WriteString(Magic2); err != nil {
		return nil, fmt.Errorf("traceio: writing header: %w", err)
	}
	t := &BatchWriter{
		w:     bw,
		opts:  opts,
		free:  make(chan *ringBuf, writerRing),
		queue: make(chan *ringBuf, writerRing),
		done:  make(chan struct{}),
	}
	for range writerRing {
		t.free <- &ringBuf{refs: make([]mem.Ref, 0, mem.ChunkRefs)}
	}
	go t.encode()
	return t, nil
}

// SetClock installs the instruction clock used to stamp frames. The
// experiment engine wires it to the machine's instruction counter, so the
// stamps equal what a live sweep's snapshot clock would read at each
// chunk boundary. The clock is read only on the producer's goroutine, as
// each chunk is handed over. Must be set before the first reference.
func (t *BatchWriter) SetClock(clock func() uint64) { t.clock = clock }

// Count returns the number of references written. Valid after Close or
// Abort.
func (t *BatchWriter) Count() uint64 { return t.count }

// Err returns the first deferred write error, if any. Valid after Close
// or Abort.
func (t *BatchWriter) Err() error {
	if t.err != nil {
		return fmt.Errorf("traceio: %w", t.err)
	}
	return nil
}

// EncodeSeconds returns the encoder's busy time: encoding frames and
// writing them into w, plus the trailer and final flush in Close. Valid
// after Close or Abort.
func (t *BatchWriter) EncodeSeconds() float64 { return float64(t.encodeNs) / 1e9 }

// HandoffSeconds returns the time the producer waited for a free ring
// buffer, plus the time Close or Abort waited for the encoder to drain.
// Valid after Close or Abort.
func (t *BatchWriter) HandoffSeconds() float64 { return float64(t.handoffNs) / 1e9 }

// RefBatch implements mem.BatchTracer: each chunk becomes one frame
// (chunks larger than mem.ChunkRefs are split, so frames stay bounded).
// The chunk is copied before RefBatch returns, so the caller may reuse it.
func (t *BatchWriter) RefBatch(refs []mem.Ref) {
	for len(refs) > mem.ChunkRefs {
		t.handOff(refs[:mem.ChunkRefs])
		refs = refs[mem.ChunkRefs:]
	}
	t.handOff(refs)
}

// Ref implements mem.Tracer for per-reference producers; references are
// staged into chunk-sized frames internally.
func (t *BatchWriter) Ref(addr uint64, write, collector bool) {
	if t.staged == nil {
		t.staged = make([]mem.Ref, 0, mem.ChunkRefs)
	}
	t.staged = append(t.staged, mem.MakeRef(addr, write, collector))
	if len(t.staged) == cap(t.staged) {
		t.handOff(t.staged)
		t.staged = t.staged[:0]
	}
}

// handOff is the producer's stage. It reads the clock while the machine
// is still paused in RefBatch, so the stamp is what an inline encoder
// would have read, copies the chunk into a ring buffer and queues it for
// the encoder, blocking only while every ring buffer is in flight.
func (t *BatchWriter) handOff(refs []mem.Ref) {
	if t.closed || len(refs) == 0 {
		return
	}
	var h *ringBuf
	select {
	case h = <-t.free:
	default:
		t0 := time.Now()
		h = <-t.free
		t.handoffNs += int64(time.Since(t0))
	}
	h.refs = append(h.refs[:0], refs...)
	h.insnsAt = 0
	if t.clock != nil {
		h.insnsAt = t.clock()
	}
	t.queue <- h // never blocks: the queue holds the whole ring
}

// encode is the encoder goroutine: it writes each queued chunk as one
// frame, in hand-off order, and recycles its buffer. After the first
// error, or once Abort is under way, it drops the frames but keeps
// recycling, so the producer can never deadlock on the ring.
func (t *BatchWriter) encode() {
	defer close(t.done)
	for h := range t.queue {
		if t.err == nil && !t.aborted.Load() {
			t0 := time.Now()
			t.writeFrame(h.refs, h.insnsAt)
			t.encodeNs += int64(time.Since(t0))
		}
		t.free <- h
	}
}

// join ends the hand-off and waits for the encoder goroutine to exit.
func (t *BatchWriter) join() {
	t.closed = true
	close(t.queue)
	t0 := time.Now()
	<-t.done
	t.handoffNs += int64(time.Since(t0))
}

// writeFrame encodes and writes one frame. It runs on the encoder
// goroutine.
func (t *BatchWriter) writeFrame(refs []mem.Ref, insnsAt uint64) {
	if cap(t.enc) < len(refs)*maxRefBytes {
		t.enc = make([]byte, 0, len(refs)*maxRefBytes)
	}
	// Encode with direct indexed writes into the pre-sized buffer rather
	// than binary.AppendUvarint: the append form re-checks capacity per
	// byte and defeats inlining, and this loop runs once per captured
	// reference — it is the measured hot spot of live capture. The byte
	// output is identical to AppendUvarint's.
	buf := t.enc[:cap(t.enc)]
	j := 0
	// The two delta-chain cursors live in locals, not an indexed array, so
	// the loop-carried dependency runs through registers instead of a
	// store-to-load round trip per reference.
	var prev0, prev1 uint64
	for _, r := range refs {
		addr := r.Addr()
		if addr > addrMask {
			t.err = fmt.Errorf("reference address %#x outside the 61-bit trace ring", addr)
			return
		}
		var d, chainBit uint64
		if addr >= mem.StaticBase {
			d = (addr - prev1) & addrMask
			prev1 = addr
			chainBit = 1 << 2
		} else {
			d = (addr - prev0) & addrMask
			prev0 = addr
		}
		s := int64(d<<3) >> 3 // sign-extend the 61-bit ring delta
		v := (uint64(s<<1)^uint64(s>>63))<<3 | chainBit | uint64(r.Flags())
		switch {
		case v < 1<<7: // deltas within ±7 words — most stack traffic
			buf[j] = byte(v)
			j++
		case v < 1<<14: // within ±1Ki words — locals and nearby heap
			buf[j] = byte(v) | 0x80
			buf[j+1] = byte(v >> 7)
			j += 2
		default:
			for v >= 0x80 {
				buf[j] = byte(v) | 0x80
				j++
				v >>= 7
			}
			buf[j] = byte(v)
			j++
		}
	}
	enc := buf[:j]
	t.enc = enc

	payload := enc
	var flags byte
	if t.opts.Compress {
		t.cmp.Reset()
		if t.fw == nil {
			t.fw, _ = flate.NewWriter(&t.cmp, flate.BestSpeed)
		} else {
			t.fw.Reset(&t.cmp)
		}
		if _, err := t.fw.Write(enc); err == nil && t.fw.Close() == nil && t.cmp.Len() < len(enc) {
			payload = t.cmp.Bytes()
			flags |= frameCompressed
		}
	}

	crc := crc32.ChecksumIEEE(payload)
	t.runCRC = crc32.Update(t.runCRC, crc32.IEEETable, payload)

	var hdr [3*binary.MaxVarintLen64 + 5]byte
	h := binary.AppendUvarint(hdr[:0], uint64(len(refs)))
	h = append(h, flags)
	h = binary.AppendUvarint(h, insnsAt)
	h = binary.AppendUvarint(h, uint64(len(payload)))
	h = binary.LittleEndian.AppendUint32(h, crc)
	if _, err := t.w.Write(h); err != nil {
		t.err = err
		return
	}
	if _, err := t.w.Write(payload); err != nil {
		t.err = err
		return
	}
	t.count += uint64(len(refs))
}

// Close seals any staged references, waits for the encoder to write
// every queued frame, then writes the trailer and flushes on the
// caller's goroutine. The trace is complete only if Close returns nil.
// Close is idempotent.
func (t *BatchWriter) Close() error {
	if t.closed {
		return t.Err()
	}
	if len(t.staged) > 0 {
		t.handOff(t.staged)
		t.staged = t.staged[:0]
	}
	t.join()
	if t.err != nil {
		return t.Err()
	}
	t0 := time.Now()
	defer func() { t.encodeNs += int64(time.Since(t0)) }()
	var hdr [binary.MaxVarintLen64 + 5]byte
	h := binary.AppendUvarint(hdr[:0], 0)
	h = binary.AppendUvarint(h, t.count)
	h = binary.LittleEndian.AppendUint32(h, t.runCRC)
	if _, err := t.w.Write(h); err != nil {
		t.err = err
		return t.Err()
	}
	if err := t.w.Flush(); err != nil {
		t.err = err
	}
	return t.Err()
}

// Abort ends a recording that will not be completed: the encoder drops
// the frames still queued, Abort waits for it to exit, and no trailer is
// written, so w may be discarded as soon as Abort returns. Call it on
// every path that does not reach Close. Abort is idempotent and does
// nothing after Close; a Close after Abort reports the abort.
func (t *BatchWriter) Abort() {
	if t.closed {
		return
	}
	t.aborted.Store(true)
	t.join()
	if t.err == nil {
		t.err = errAborted
	}
}

// frame is one decoded frame header plus its stored payload.
type frame struct {
	refs       int
	compressed bool
	insnsAt    uint64
	crc        uint32
	payload    []byte
}

// readFrame reads the next frame header and payload from br. It returns
// trailer=true (with the trailer's total count and running CRC) at the
// end-of-trace marker. When reuse is non-nil, the payload is read into it
// (growing as needed) instead of a fresh allocation — the serial replay
// path uses this; the parallel path hands each payload to a decoder
// goroutine and must not reuse the buffer.
func readFrame(br *bufio.Reader, f *frame, reuse []byte) (trailer bool, total uint64, runCRC uint32, err error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		if err == io.EOF {
			return false, 0, 0, fmt.Errorf("traceio: truncated trace: missing trailer")
		}
		return false, 0, 0, fmt.Errorf("traceio: frame header: %w", err)
	}
	if n == 0 {
		total, err = binary.ReadUvarint(br)
		if err != nil {
			return false, 0, 0, fmt.Errorf("traceio: truncated trailer: %w", err)
		}
		var crcb [4]byte
		if _, err := io.ReadFull(br, crcb[:]); err != nil {
			return false, 0, 0, fmt.Errorf("traceio: truncated trailer: %w", err)
		}
		if _, err := br.ReadByte(); err != io.EOF {
			return false, 0, 0, fmt.Errorf("traceio: data after trailer")
		}
		return true, total, binary.LittleEndian.Uint32(crcb[:]), nil
	}
	if n > MaxFrameRefs {
		return false, 0, 0, fmt.Errorf("traceio: frame claims %d refs (max %d)", n, MaxFrameRefs)
	}
	flags, err := br.ReadByte()
	if err != nil {
		return false, 0, 0, fmt.Errorf("traceio: truncated frame header: %w", err)
	}
	if flags&^frameCompressed != 0 {
		return false, 0, 0, fmt.Errorf("traceio: unknown frame flags %#x", flags)
	}
	insnsAt, err := binary.ReadUvarint(br)
	if err != nil {
		return false, 0, 0, fmt.Errorf("traceio: truncated frame header: %w", err)
	}
	plen, err := binary.ReadUvarint(br)
	if err != nil {
		return false, 0, 0, fmt.Errorf("traceio: truncated frame header: %w", err)
	}
	if plen == 0 || plen > uint64(n)*maxRefBytes {
		return false, 0, 0, fmt.Errorf("traceio: frame payload length %d out of range for %d refs", plen, n)
	}
	var crcb [4]byte
	if _, err := io.ReadFull(br, crcb[:]); err != nil {
		return false, 0, 0, fmt.Errorf("traceio: truncated frame header: %w", err)
	}
	payload := reuse
	if uint64(cap(payload)) < plen {
		payload = make([]byte, plen)
	}
	payload = payload[:plen]
	if _, err := io.ReadFull(br, payload); err != nil {
		return false, 0, 0, fmt.Errorf("traceio: truncated frame payload: %w", err)
	}
	f.refs = int(n)
	f.compressed = flags&frameCompressed != 0
	f.insnsAt = insnsAt
	f.crc = binary.LittleEndian.Uint32(crcb[:])
	f.payload = payload
	return false, 0, 0, nil
}

// frameDecoder turns stored frames into packed refs. Each decoder
// goroutine owns one (the flate reader and scratch buffers are reused
// across frames but are not safe for concurrent use).
type frameDecoder struct {
	raw []byte // decompression scratch
	src bytes.Reader
	fr  io.ReadCloser
}

// decode appends f's references to dst and returns it. It verifies the
// stored payload CRC and every structural invariant of the encoding, so
// corruption surfaces as an error rather than a bogus reference stream.
func (d *frameDecoder) decode(f *frame, dst []mem.Ref) ([]mem.Ref, error) {
	if crc32.ChecksumIEEE(f.payload) != f.crc {
		return dst, fmt.Errorf("traceio: frame CRC mismatch")
	}
	raw := f.payload
	if f.compressed {
		d.src.Reset(f.payload)
		if d.fr == nil {
			d.fr = flate.NewReader(&d.src)
		} else if err := d.fr.(flate.Resetter).Reset(&d.src, nil); err != nil {
			return dst, fmt.Errorf("traceio: flate reset: %w", err)
		}
		max := f.refs * maxRefBytes
		if cap(d.raw) < max+1 {
			d.raw = make([]byte, max+1)
		}
		n, err := io.ReadFull(d.fr, d.raw[:max+1])
		if err != io.ErrUnexpectedEOF && err != io.EOF {
			if err == nil {
				return dst, fmt.Errorf("traceio: frame decompresses beyond %d bytes", max)
			}
			return dst, fmt.Errorf("traceio: frame decompression: %w", err)
		}
		raw = d.raw[:n]
	}
	base := len(dst)
	need := base + f.refs
	if cap(dst) < need {
		grown := make([]mem.Ref, base, need)
		copy(grown, dst)
		dst = grown
	}
	out := dst[:need]
	var prev [2]uint64
	i, nraw := 0, len(raw)
	for k := base; k < need; k++ {
		// Hot loop: one varint per reference. While at least 8 payload
		// bytes remain the whole varint is extracted from a single
		// unaligned load — one byte covers the dominant small-delta case,
		// and longer records avoid byte-at-a-time bounds checks.
		var v uint64
		if i+8 <= nraw {
			x := binary.LittleEndian.Uint64(raw[i:])
			if x&0x80 == 0 {
				v = x & 0x7f
				i++
			} else if stop := ^x & 0x8080808080808080; stop != 0 {
				n := bits.TrailingZeros64(stop) >> 3 // varint length - 1, in [1,7]
				for j := n; j >= 0; j-- {
					v = v<<7 | (x>>(uint(j)*8))&0x7f
				}
				i += n + 1
			} else {
				u, n := binary.Uvarint(raw[i:])
				if n <= 0 {
					return out[:k], fmt.Errorf("traceio: bad reference record %d of %d", k-base, f.refs)
				}
				v = u
				i += n
			}
		} else {
			u, n := binary.Uvarint(raw[i:])
			if n <= 0 {
				return out[:k], fmt.Errorf("traceio: bad reference record %d of %d", k-base, f.refs)
			}
			v = u
			i += n
		}
		zz := v >> 3
		chain := v >> 2 & 1
		a := (prev[chain] + uint64(int64(zz>>1)^-int64(zz&1))) & addrMask
		prev[chain] = a
		out[k] = mem.Ref(a) | refFlagTab[v&3]
	}
	if i != nraw {
		return out[:base], fmt.Errorf("traceio: %d trailing payload bytes", nraw-i)
	}
	return out, nil
}

// refFlagTab maps the two low flag bits of a reference record to packed
// mem.Ref flag bits (the layout mem.MakeRefFlags implements), keeping the
// decoder's hot loop to a single indexed OR.
var refFlagTab = [4]mem.Ref{0, mem.RefWrite, mem.RefCollector, mem.RefWrite | mem.RefCollector}

var _ mem.Tracer = (*BatchWriter)(nil)
var _ mem.BatchTracer = (*BatchWriter)(nil)
