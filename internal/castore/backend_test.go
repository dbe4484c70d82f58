package castore

import (
	"context"
	"testing"
)

func TestMemLen(t *testing.T) {
	ctx := context.Background()
	m := NewMem()
	if m.Len() != 0 {
		t.Fatalf("fresh Mem.Len = %d, want 0", m.Len())
	}
	if _, err := m.Post(ctx, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Post(ctx, []byte("one")); err != nil { // dedup: same content
		t.Fatal(err)
	}
	if _, err := m.Post(ctx, []byte("two")); err != nil {
		t.Fatal(err)
	}
	if m.Len() != 2 {
		t.Fatalf("Mem.Len after 3 posts of 2 contents = %d, want 2", m.Len())
	}
}
