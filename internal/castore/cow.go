package castore

import (
	"context"
	"io"
	"sync/atomic"
)

// COW composes a writable layer over a (possibly remote) base store.
// Writes go to the layer only; reads try the layer first and pull
// misses through from the base into the layer, so repeated reads of a
// remote blob hit local storage after the first fetch. This is how a
// cluster worker caches traces recorded elsewhere.
type COW struct {
	layer Store
	base  Store
	pulls atomic.Uint64
}

// NewCOW returns a copy-on-write composition of layer over base.
func NewCOW(layer, base Store) *COW { return &COW{layer: layer, base: base} }

// Pulls returns how many blobs have been pulled through from the base.
func (c *COW) Pulls() uint64 { return c.pulls.Load() }

func (c *COW) Post(ctx context.Context, data []byte) (ID, error) {
	return c.layer.Post(ctx, data)
}

// pullThrough copies a blob from the base into the layer, returning
// its bytes. Blobs are verified by the layer's Post path.
func (c *COW) pullThrough(ctx context.Context, id ID) ([]byte, error) {
	data, err := c.base.Get(ctx, id)
	if err != nil {
		return nil, err
	}
	if err := verify(id, data); err != nil {
		return nil, err
	}
	if _, err := c.layer.Post(ctx, data); err != nil {
		return nil, err
	}
	c.pulls.Add(1)
	return data, nil
}

func (c *COW) Get(ctx context.Context, id ID) ([]byte, error) {
	data, err := c.layer.Get(ctx, id)
	if err == nil {
		return data, nil
	}
	if err != ErrNotFound {
		return nil, err
	}
	return c.pullThrough(ctx, id)
}

func (c *COW) Exists(ctx context.Context, id ID) (bool, error) {
	ok, err := c.layer.Exists(ctx, id)
	if err != nil || ok {
		return ok, err
	}
	return c.base.Exists(ctx, id)
}

// Open streams from the layer, pulling through from the base on miss
// so large traces recorded on another node are fetched once and then
// replayed from local storage.
func (c *COW) Open(ctx context.Context, id ID) (io.ReadSeekCloser, error) {
	ok, err := c.layer.Exists(ctx, id)
	if err != nil {
		return nil, err
	}
	if !ok {
		if _, err := c.pullThrough(ctx, id); err != nil {
			return nil, err
		}
	}
	return Open(ctx, c.layer, id)
}

// Ingest streams into the layer.
func (c *COW) Ingest(ctx context.Context) (BlobWriter, error) {
	return Ingest(ctx, c.layer)
}
