package castore

import (
	"context"
	"io"
)

// Union is a read-only view over several stores: reads try each
// member in order. A member that errors (an unreachable peer) is
// skipped, and its error surfaces only when no other member has the
// blob. The coordinator uses a union of every live worker to serve any
// trace recorded anywhere in the fleet.
type Union []Store

// NewUnion returns a read-only union of the given stores.
func NewUnion(stores ...Store) Union { return Union(stores) }

// Post is not supported; unions are read-only.
func (u Union) Post(ctx context.Context, data []byte) (ID, error) {
	return ID{}, ErrReadOnly
}

func (u Union) Get(ctx context.Context, id ID) ([]byte, error) {
	miss := ErrNotFound
	for _, s := range u {
		data, err := s.Get(ctx, id)
		if err == nil {
			return data, nil
		}
		if miss == ErrNotFound {
			miss = err
		}
	}
	return nil, miss
}

func (u Union) Exists(ctx context.Context, id ID) (bool, error) {
	var miss error
	for _, s := range u {
		ok, err := s.Exists(ctx, id)
		if ok && err == nil {
			return true, nil
		}
		if miss == nil {
			miss = err
		}
	}
	return false, miss
}

// Open streams from the first member holding the blob.
func (u Union) Open(ctx context.Context, id ID) (io.ReadSeekCloser, error) {
	miss := ErrNotFound
	for _, s := range u {
		rc, err := Open(ctx, s, id)
		if err == nil {
			return rc, nil
		}
		if miss == ErrNotFound {
			miss = err
		}
	}
	return nil, miss
}
