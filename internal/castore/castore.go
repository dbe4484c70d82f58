// Package castore provides content-addressed blob storage.
//
// Every blob is identified by the SHA-256 of its bytes; stores are
// interchangeable key-value backends (in-memory, local directory,
// read-only HTTP peer) that can be composed with copy-on-write and
// union wrappers. The trace cache sits on top of this package: a trace
// is recorded once anywhere in a cluster and fetched by hash everywhere
// else.
package castore

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
)

// ID is the SHA-256 content address of a blob.
type ID [sha256.Size]byte

// Sum returns the content address of data.
func Sum(data []byte) ID { return sha256.Sum256(data) }

// ParseID parses a lowercase hex content address.
func ParseID(s string) (ID, error) {
	var id ID
	raw, err := hex.DecodeString(s)
	if err != nil {
		return id, fmt.Errorf("castore: bad id %q: %w", s, err)
	}
	if len(raw) != sha256.Size {
		return id, fmt.Errorf("castore: bad id %q: want %d bytes, got %d", s, sha256.Size, len(raw))
	}
	copy(id[:], raw)
	return id, nil
}

// String returns the lowercase hex form of the address.
func (id ID) String() string { return hex.EncodeToString(id[:]) }

// IsZero reports whether the address is the zero value.
func (id ID) IsZero() bool { return id == ID{} }

// ErrNotFound is returned by Get/Open when no blob has the given address.
var ErrNotFound = errors.New("castore: blob not found")

// ErrReadOnly is returned by write operations on read-only stores.
var ErrReadOnly = errors.New("castore: store is read-only")

// ErrBadBlob is returned when a blob's bytes do not hash to its address.
var ErrBadBlob = errors.New("castore: blob does not match its address")

// Store is a content-addressed blob store. Implementations must be
// safe for concurrent use.
type Store interface {
	// Post stores data and returns its content address. Posting a
	// blob that already exists is a no-op.
	Post(ctx context.Context, data []byte) (ID, error)
	// Get returns the blob with the given address, verified against
	// it, or ErrNotFound.
	Get(ctx context.Context, id ID) ([]byte, error)
	// Exists reports whether the blob is present.
	Exists(ctx context.Context, id ID) (bool, error)
}

// Opener is an optional Store extension for streaming reads; large
// trace blobs are replayed without buffering the whole file.
type Opener interface {
	Open(ctx context.Context, id ID) (io.ReadSeekCloser, error)
}

// BlobWriter streams one blob into a store. Commit seals the blob and
// returns the content address of everything written; Abort discards
// it. Exactly one of the two must be called.
type BlobWriter interface {
	io.Writer
	Commit() (ID, error)
	Abort() error
}

// Ingester is an optional Store extension for streaming writes.
type Ingester interface {
	Ingest(ctx context.Context) (BlobWriter, error)
}

// Open returns a streaming reader for the blob, using the store's
// Opener when it has one and buffering through Get otherwise.
func Open(ctx context.Context, s Store, id ID) (io.ReadSeekCloser, error) {
	if o, ok := s.(Opener); ok {
		return o.Open(ctx, id)
	}
	data, err := s.Get(ctx, id)
	if err != nil {
		return nil, err
	}
	return nopSeekCloser{bytes.NewReader(data)}, nil
}

// Ingest returns a streaming writer into the store, using the store's
// Ingester when it has one and buffering into Post otherwise.
func Ingest(ctx context.Context, s Store) (BlobWriter, error) {
	if ing, ok := s.(Ingester); ok {
		return ing.Ingest(ctx)
	}
	return &bufWriter{ctx: ctx, dst: s}, nil
}

type nopSeekCloser struct{ *bytes.Reader }

func (nopSeekCloser) Close() error { return nil }

type bufWriter struct {
	ctx  context.Context
	dst  Store
	buf  bytes.Buffer
	done bool
}

func (w *bufWriter) Write(p []byte) (int, error) {
	if w.done {
		return 0, errors.New("castore: write after commit")
	}
	return w.buf.Write(p)
}

func (w *bufWriter) Commit() (ID, error) {
	if w.done {
		return ID{}, errors.New("castore: double commit")
	}
	w.done = true
	return w.dst.Post(w.ctx, w.buf.Bytes())
}

func (w *bufWriter) Abort() error {
	w.done = true
	w.buf.Reset()
	return nil
}

// verify checks data against id, returning ErrBadBlob on mismatch.
func verify(id ID, data []byte) error {
	if Sum(data) != id {
		return fmt.Errorf("%w: %s", ErrBadBlob, id)
	}
	return nil
}
