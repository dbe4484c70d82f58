package castore

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// HTTPStore is a read-only Store client for a peer serving the blob
// protocol below (see Handler). Addresses are verified on every read,
// so a misbehaving peer cannot poison a cache.
type HTTPStore struct {
	base   string
	client *http.Client
}

// NewHTTPStore returns a store client for the given base URL (e.g.
// "http://host:port/castore/v1/blobs"). A nil client uses
// http.DefaultClient.
func NewHTTPStore(baseURL string, client *http.Client) *HTTPStore {
	if client == nil {
		client = http.DefaultClient
	}
	return &HTTPStore{base: strings.TrimRight(baseURL, "/"), client: client}
}

func (h *HTTPStore) url(id ID) string { return h.base + "/" + id.String() }

func (h *HTTPStore) do(req *http.Request) (*http.Response, error) {
	resp, err := h.client.Do(req)
	if err != nil {
		return nil, err
	}
	switch resp.StatusCode {
	case http.StatusOK:
		return resp, nil
	case http.StatusNotFound:
		resp.Body.Close()
		return nil, ErrNotFound
	default:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		return nil, fmt.Errorf("castore: peer %s: %s: %s", h.base, resp.Status, strings.TrimSpace(string(body)))
	}
}

// Post is not supported: peers serve their blobs read-only.
func (h *HTTPStore) Post(ctx context.Context, data []byte) (ID, error) {
	return ID{}, ErrReadOnly
}

func (h *HTTPStore) Get(ctx context.Context, id ID) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, h.url(id), nil)
	if err != nil {
		return nil, err
	}
	resp, err := h.do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if err := verify(id, data); err != nil {
		return nil, err
	}
	return data, nil
}

func (h *HTTPStore) Exists(ctx context.Context, id ID) (bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodHead, h.url(id), nil)
	if err != nil {
		return false, err
	}
	resp, err := h.do(req)
	if err == ErrNotFound {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	resp.Body.Close()
	return true, nil
}

// Handler serves s over HTTP, read-only:
//
//	GET  <prefix>/{id}  blob bytes (404 if absent)
//	HEAD <prefix>/{id}  presence probe
//
// Every other method answers 405. The handler must be mounted so that
// the path after the mount point is a single hex address.
func Handler(s Store) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		id, err := ParseID(strings.Trim(r.URL.Path, "/"))
		if err != nil {
			http.Error(w, "bad blob id", http.StatusBadRequest)
			return
		}
		if r.Method == http.MethodHead {
			ok, err := s.Exists(r.Context(), id)
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			if !ok {
				w.WriteHeader(http.StatusNotFound)
				return
			}
			w.WriteHeader(http.StatusOK)
			return
		}
		rc, err := Open(r.Context(), s, id)
		if err == ErrNotFound {
			http.Error(w, "not found", http.StatusNotFound)
			return
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		defer rc.Close()
		w.Header().Set("Content-Type", "application/octet-stream")
		io.Copy(w, rc)
	})
}
