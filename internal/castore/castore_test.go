package castore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// backends returns one freshly constructed store per backend, keyed
// by name. The HTTP backend reads through a client over a mem-backed
// Handler, so the golden-equivalence test exercises the wire protocol
// too; the protocol is read-only, so its writes go to the backing store.
func backends(t *testing.T) map[string]Store {
	t.Helper()
	dir, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	backing := NewMem()
	srv := httptest.NewServer(Handler(backing))
	t.Cleanup(srv.Close)
	return map[string]Store{
		"dir":  dir,
		"mem":  NewMem(),
		"http": wireStore{NewHTTPStore(srv.URL, srv.Client()), backing},
	}
}

// wireStore reads over HTTP and posts straight to the store the server
// serves.
type wireStore struct {
	*HTTPStore
	backing Store
}

func (s wireStore) Post(ctx context.Context, data []byte) (ID, error) {
	return s.backing.Post(ctx, data)
}

func testBlobs() [][]byte {
	return [][]byte{
		[]byte(""),
		[]byte("a"),
		[]byte("the same trace bytes on every backend"),
		bytes.Repeat([]byte{0xde, 0xad, 0xbe, 0xef}, 4096),
	}
}

// TestGoldenEquivalence: identical content must yield identical
// addresses and identical bytes back on every backend.
func TestGoldenEquivalence(t *testing.T) {
	ctx := context.Background()
	blobs := testBlobs()
	want := make([]ID, len(blobs))
	for i, b := range blobs {
		want[i] = Sum(b)
	}
	for name, s := range backends(t) {
		t.Run(name, func(t *testing.T) {
			for i, b := range blobs {
				id, err := s.Post(ctx, b)
				if err != nil {
					t.Fatalf("post blob %d: %v", i, err)
				}
				if id != want[i] {
					t.Fatalf("blob %d: address %s, want %s", i, id, want[i])
				}
				got, err := s.Get(ctx, id)
				if err != nil {
					t.Fatalf("get blob %d: %v", i, err)
				}
				if !bytes.Equal(got, b) {
					t.Fatalf("blob %d: bytes differ after round trip", i)
				}
				ok, err := s.Exists(ctx, id)
				if err != nil || !ok {
					t.Fatalf("blob %d: exists = %v, %v", i, ok, err)
				}
			}
		})
	}
}

func TestGetAbsentAndDelete(t *testing.T) {
	ctx := context.Background()
	for name, s := range backends(t) {
		t.Run(name, func(t *testing.T) {
			absent := Sum([]byte("never posted"))
			if _, err := s.Get(ctx, absent); err != ErrNotFound {
				t.Fatalf("get absent: %v, want ErrNotFound", err)
			}
			if ok, err := s.Exists(ctx, absent); err != nil || ok {
				t.Fatalf("exists absent = %v, %v", ok, err)
			}
			d, ok := s.(*Dir) // the one store that deletes
			if !ok {
				return
			}
			if err := d.Delete(ctx, absent); err != nil {
				t.Fatalf("delete absent: %v", err)
			}
			id, err := d.Post(ctx, []byte("doomed"))
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Delete(ctx, id); err != nil {
				t.Fatalf("delete: %v", err)
			}
			if ok, _ := d.Exists(ctx, id); ok {
				t.Fatal("blob still present after delete")
			}
		})
	}
}

// TestOpenIngestEquivalence: the streaming extensions must agree with
// Post/Get on every backend, whether native or via the buffering
// fallbacks.
func TestOpenIngestEquivalence(t *testing.T) {
	ctx := context.Background()
	payload := bytes.Repeat([]byte("stream me "), 1000)
	for name, s := range backends(t) {
		t.Run(name, func(t *testing.T) {
			w, err := Ingest(ctx, s)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < len(payload); i += 100 {
				end := min(i+100, len(payload))
				if _, err := w.Write(payload[i:end]); err != nil {
					t.Fatal(err)
				}
			}
			id, err := w.Commit()
			if err != nil {
				t.Fatal(err)
			}
			if id != Sum(payload) {
				t.Fatalf("ingest address %s, want %s", id, Sum(payload))
			}
			rc, err := Open(ctx, s, id)
			if err != nil {
				t.Fatal(err)
			}
			defer rc.Close()
			got, err := io.ReadAll(rc)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, payload) {
				t.Fatal("streamed bytes differ")
			}
			// Seek back and re-read: replay fallback paths need this.
			if _, err := rc.Seek(0, io.SeekStart); err != nil {
				t.Fatalf("seek: %v", err)
			}
			again, err := io.ReadAll(rc)
			if err != nil || !bytes.Equal(again, payload) {
				t.Fatalf("re-read after seek differs (err=%v)", err)
			}
		})
	}
}

func TestIngestAbort(t *testing.T) {
	ctx := context.Background()
	for name, s := range backends(t) {
		t.Run(name, func(t *testing.T) {
			w, err := Ingest(ctx, s)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.Write([]byte("abandoned")); err != nil {
				t.Fatal(err)
			}
			if err := w.Abort(); err != nil {
				t.Fatal(err)
			}
			if ok, _ := s.Exists(ctx, Sum([]byte("abandoned"))); ok {
				t.Fatal("aborted blob is present")
			}
		})
	}
}

// TestCOWLaws: writes stay in the layer; reads pull through exactly
// once; the base is never written.
func TestCOWLaws(t *testing.T) {
	ctx := context.Background()
	layer, base := NewMem(), NewMem()
	remote := []byte("recorded on another node")
	remoteID, err := base.Post(ctx, remote)
	if err != nil {
		t.Fatal(err)
	}
	cow := NewCOW(layer, base)

	local := []byte("recorded here")
	localID, err := cow.Post(ctx, local)
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := base.Exists(ctx, localID); ok {
		t.Fatal("post leaked into the base")
	}
	if ok, _ := layer.Exists(ctx, localID); !ok {
		t.Fatal("post missing from the layer")
	}

	if ok, _ := cow.Exists(ctx, remoteID); !ok {
		t.Fatal("remote blob invisible through COW")
	}
	if ok, _ := layer.Exists(ctx, remoteID); ok {
		t.Fatal("remote blob claimed local before any read")
	}
	if cow.Pulls() != 0 {
		t.Fatalf("pulls = %d before any read", cow.Pulls())
	}
	got, err := cow.Get(ctx, remoteID)
	if err != nil || !bytes.Equal(got, remote) {
		t.Fatalf("get remote: %v", err)
	}
	if cow.Pulls() != 1 {
		t.Fatalf("pulls = %d after first read, want 1", cow.Pulls())
	}
	if ok, _ := layer.Exists(ctx, remoteID); !ok {
		t.Fatal("pull-through did not populate the layer")
	}
	if _, err := cow.Get(ctx, remoteID); err != nil {
		t.Fatal(err)
	}
	if cow.Pulls() != 1 {
		t.Fatalf("pulls = %d after cached read, want 1", cow.Pulls())
	}

	// Open must pull through too.
	streamID, _ := base.Post(ctx, []byte("streamed remote"))
	rc, err := cow.Open(ctx, streamID)
	if err != nil {
		t.Fatal(err)
	}
	rc.Close()
	if cow.Pulls() != 2 {
		t.Fatalf("pulls = %d after open, want 2", cow.Pulls())
	}
}

// TestUnionLaws: read-only fan-out over members in order.
func TestUnionLaws(t *testing.T) {
	ctx := context.Background()
	a, b := NewMem(), NewMem()
	idA, _ := a.Post(ctx, []byte("only on a"))
	idB, _ := b.Post(ctx, []byte("only on b"))
	both := []byte("on both")
	a.Post(ctx, both)
	idBoth, _ := b.Post(ctx, both)
	u := NewUnion(a, b)

	for _, id := range []ID{idA, idB, idBoth} {
		if ok, err := u.Exists(ctx, id); err != nil || !ok {
			t.Fatalf("exists %s = %v, %v", id, ok, err)
		}
		if _, err := u.Get(ctx, id); err != nil {
			t.Fatalf("get %s: %v", id, err)
		}
		rc, err := u.Open(ctx, id)
		if err != nil {
			t.Fatalf("open %s: %v", id, err)
		}
		rc.Close()
	}
	if _, err := u.Get(ctx, Sum([]byte("nowhere"))); err != ErrNotFound {
		t.Fatalf("get absent: %v", err)
	}
	if _, err := u.Post(ctx, []byte("x")); err != ErrReadOnly {
		t.Fatalf("post on union: %v, want ErrReadOnly", err)
	}
}

// failingStore errors on every call, like an unreachable peer.
type failingStore struct{ err error }

func (f failingStore) Post(context.Context, []byte) (ID, error) { return ID{}, f.err }
func (f failingStore) Get(context.Context, ID) ([]byte, error)  { return nil, f.err }
func (f failingStore) Exists(context.Context, ID) (bool, error) { return false, f.err }

// TestUnionSkipsErroringMember: a member that errors does not hide a
// blob another member holds; its error surfaces only when no member
// has the blob.
func TestUnionSkipsErroringMember(t *testing.T) {
	ctx := context.Background()
	down := errors.New("peer unreachable")
	live := NewMem()
	id, _ := live.Post(ctx, []byte("held by the live member"))
	u := NewUnion(failingStore{down}, live)

	if ok, err := u.Exists(ctx, id); err != nil || !ok {
		t.Fatalf("exists past an erroring member = %v, %v", ok, err)
	}
	if _, err := u.Get(ctx, id); err != nil {
		t.Fatalf("get past an erroring member: %v", err)
	}
	rc, err := u.Open(ctx, id)
	if err != nil {
		t.Fatalf("open past an erroring member: %v", err)
	}
	rc.Close()

	missing := Sum([]byte("nowhere"))
	if ok, err := u.Exists(ctx, missing); ok || err != down {
		t.Fatalf("exists absent = %v, %v; want false with the member's error", ok, err)
	}
	if _, err := u.Get(ctx, missing); err != down {
		t.Fatalf("get absent: %v, want the member's error", err)
	}
	if _, err := u.Open(ctx, missing); err != down {
		t.Fatalf("open absent: %v, want the member's error", err)
	}
}

// TestConcurrentPutGet hammers each backend from many goroutines;
// run with -race.
func TestConcurrentPutGet(t *testing.T) {
	ctx := context.Background()
	for name, s := range backends(t) {
		t.Run(name, func(t *testing.T) {
			const workers = 8
			const blobsPerWorker = 16
			var wg sync.WaitGroup
			errs := make(chan error, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < blobsPerWorker; i++ {
						// Shared payloads so goroutines race on the same addresses.
						payload := []byte(fmt.Sprintf("blob-%d", i))
						id, err := s.Post(ctx, payload)
						if err != nil {
							errs <- fmt.Errorf("worker %d post: %w", w, err)
							return
						}
						got, err := s.Get(ctx, id)
						if err != nil {
							errs <- fmt.Errorf("worker %d get: %w", w, err)
							return
						}
						if !bytes.Equal(got, payload) {
							errs <- fmt.Errorf("worker %d: corrupt read", w)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
		})
	}
}

// TestHandlerIsReadOnly: the blob protocol has no write verb. POST and
// DELETE on a blob answer 405 and leave the served store as it was, and
// the HTTP client refuses to post.
func TestHandlerIsReadOnly(t *testing.T) {
	ctx := context.Background()
	s := NewMem()
	id, err := s.Post(ctx, []byte("served, never written"))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()
	for _, method := range []string{http.MethodPost, http.MethodDelete} {
		req, err := http.NewRequest(method, srv.URL+"/"+id.String(), strings.NewReader("overwrite"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s on a blob: status %d, want 405", method, resp.StatusCode)
		}
	}
	if ok, _ := s.Exists(ctx, id); !ok || s.Len() != 1 {
		t.Fatalf("store changed through the handler: blob present=%v, %d blobs", ok, s.Len())
	}
	if _, err := NewHTTPStore(srv.URL, srv.Client()).Post(ctx, []byte("x")); err != ErrReadOnly {
		t.Fatalf("post through the HTTP client: %v, want ErrReadOnly", err)
	}
}

// TestHTTPStoreRejectsCorruptPeer: a peer returning wrong bytes must
// not poison the client.
func TestHTTPStoreRejectsCorruptPeer(t *testing.T) {
	ctx := context.Background()
	evil := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("not what you asked for"))
	}))
	defer evil.Close()
	s := NewHTTPStore(evil.URL, evil.Client())
	if _, err := s.Get(ctx, Sum([]byte("the real thing"))); err == nil {
		t.Fatal("corrupt peer blob accepted")
	}
}

func TestParseID(t *testing.T) {
	id := Sum([]byte("round trip"))
	back, err := ParseID(id.String())
	if err != nil || back != id {
		t.Fatalf("ParseID round trip: %v", err)
	}
	for _, bad := range []string{"", "zz", "abcd", id.String() + "00"} {
		if _, err := ParseID(bad); err == nil {
			t.Fatalf("ParseID(%q) accepted", bad)
		}
	}
	if !(ID{}).IsZero() || id.IsZero() {
		t.Fatal("IsZero misbehaves")
	}
}
