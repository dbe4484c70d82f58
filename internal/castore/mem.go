package castore

import (
	"bytes"
	"context"
	"io"
	"sync"
)

// Mem is an in-memory content-addressed store.
type Mem struct {
	mu    sync.RWMutex
	blobs map[ID][]byte
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem { return &Mem{blobs: make(map[ID][]byte)} }

func (m *Mem) Post(ctx context.Context, data []byte) (ID, error) {
	id := Sum(data)
	cp := make([]byte, len(data))
	copy(cp, data)
	m.mu.Lock()
	m.blobs[id] = cp
	m.mu.Unlock()
	return id, nil
}

func (m *Mem) Get(ctx context.Context, id ID) ([]byte, error) {
	m.mu.RLock()
	data, ok := m.blobs[id]
	m.mu.RUnlock()
	if !ok {
		return nil, ErrNotFound
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	return cp, nil
}

func (m *Mem) Exists(ctx context.Context, id ID) (bool, error) {
	m.mu.RLock()
	_, ok := m.blobs[id]
	m.mu.RUnlock()
	return ok, nil
}

// Open streams a blob without re-copying it: the underlying bytes are
// immutable once posted.
func (m *Mem) Open(ctx context.Context, id ID) (io.ReadSeekCloser, error) {
	m.mu.RLock()
	data, ok := m.blobs[id]
	m.mu.RUnlock()
	if !ok {
		return nil, ErrNotFound
	}
	return nopSeekCloser{bytes.NewReader(data)}, nil
}

// Len returns the number of stored blobs.
func (m *Mem) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.blobs)
}
