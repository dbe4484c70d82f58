package castore

import (
	"context"
	"crypto/sha256"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
)

// Dir is a content-addressed store backed by a local directory: one
// file per blob, named by its hex address, written atomically via a
// temp file + rename so crashed writers never leave partial blobs.
type Dir struct {
	root string
}

// NewDir opens (creating if needed) a directory-backed store.
func NewDir(root string) (*Dir, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("castore: create %s: %w", root, err)
	}
	return &Dir{root: root}, nil
}

// Root returns the backing directory.
func (d *Dir) Root() string { return d.root }

func (d *Dir) path(id ID) string { return filepath.Join(d.root, id.String()) }

func (d *Dir) Post(ctx context.Context, data []byte) (ID, error) {
	w, err := d.Ingest(ctx)
	if err != nil {
		return ID{}, err
	}
	if _, err := w.Write(data); err != nil {
		w.Abort()
		return ID{}, err
	}
	return w.Commit()
}

func (d *Dir) Get(ctx context.Context, id ID) ([]byte, error) {
	data, err := os.ReadFile(d.path(id))
	if os.IsNotExist(err) {
		return nil, ErrNotFound
	}
	if err != nil {
		return nil, err
	}
	if err := verify(id, data); err != nil {
		return nil, err
	}
	return data, nil
}

func (d *Dir) Exists(ctx context.Context, id ID) (bool, error) {
	_, err := os.Stat(d.path(id))
	if os.IsNotExist(err) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	return true, nil
}

// Delete removes the blob if present; deleting an absent blob is a
// no-op.
func (d *Dir) Delete(ctx context.Context, id ID) error {
	err := os.Remove(d.path(id))
	if os.IsNotExist(err) {
		return nil
	}
	return err
}

// Open streams a blob from disk. Integrity was verified when the blob
// was ingested (the address is computed from the bytes as they are
// written); reads trust the local filesystem.
func (d *Dir) Open(ctx context.Context, id ID) (io.ReadSeekCloser, error) {
	f, err := os.Open(d.path(id))
	if os.IsNotExist(err) {
		return nil, ErrNotFound
	}
	return f, err
}

// Ingest streams a new blob through a hasher into a temp file; Commit
// renames it to its content address.
func (d *Dir) Ingest(ctx context.Context) (BlobWriter, error) {
	f, err := os.CreateTemp(d.root, "ingest-*.tmp")
	if err != nil {
		return nil, err
	}
	return &dirWriter{dir: d, f: f, h: sha256.New()}, nil
}

type dirWriter struct {
	dir  *Dir
	f    *os.File
	h    hash.Hash
	done bool
}

func (w *dirWriter) Write(p []byte) (int, error) {
	n, err := w.f.Write(p)
	w.h.Write(p[:n])
	return n, err
}

func (w *dirWriter) Commit() (ID, error) {
	if w.done {
		return ID{}, fmt.Errorf("castore: double commit")
	}
	w.done = true
	var id ID
	w.h.Sum(id[:0])
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		os.Remove(w.f.Name())
		return ID{}, err
	}
	if err := w.f.Close(); err != nil {
		os.Remove(w.f.Name())
		return ID{}, err
	}
	if err := os.Rename(w.f.Name(), w.dir.path(id)); err != nil {
		os.Remove(w.f.Name())
		return ID{}, err
	}
	return id, nil
}

func (w *dirWriter) Abort() error {
	if w.done {
		return nil
	}
	w.done = true
	w.f.Close()
	return os.Remove(w.f.Name())
}
