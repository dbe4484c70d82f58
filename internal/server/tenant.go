package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
)

// Tenancy makes gcsimd safe to share: every /v1 request authenticates
// with an API key, each key maps to a tenant, and a tenant may carry a
// quota on its queued jobs, enforced at submit. A tenant's queued and
// running jobs are read from the pool backlog and the server's running
// set, so there is no second count to drift from them.

// TenantConfig is one entry of the -tenants file, a JSON document of the
// form {"tenants": [ ... ]}.
type TenantConfig struct {
	Name string `json:"name"`
	Key  string `json:"key"`
	// MaxQueued caps the tenant's backlog (0 = unlimited).
	MaxQueued int `json:"max_queued,omitempty"`
}

// Rejection reasons: the `reason` label on gcsimd_tenant_rejected_total.
const (
	RejectQuota    = "quota"    // queued-job quota reached
	RejectOverload = "overload" // global queue past the high-water mark
)

// rejectReasons fixes the exposition order of the reason label.
var rejectReasons = []string{RejectOverload, RejectQuota}

// Tenant is one authenticated principal and its admission counters.
type Tenant struct {
	name      string
	maxQueued int

	// mu serializes the tenant's quota-checked submissions: it is held
	// from counting the tenant's backlog entries until the admitted job
	// is in the backlog, so two submissions cannot both take the last
	// slot.
	mu        sync.Mutex
	submitted atomic.Uint64
	rejected  map[string]*atomic.Uint64 // fixed keys: rejectReasons
}

func newTenant(cfg TenantConfig) *Tenant {
	t := &Tenant{name: cfg.Name, maxQueued: cfg.MaxQueued, rejected: make(map[string]*atomic.Uint64, len(rejectReasons))}
	for _, reason := range rejectReasons {
		t.rejected[reason] = new(atomic.Uint64)
	}
	return t
}

// Name returns the tenant's configured name.
func (t *Tenant) Name() string {
	if t == nil {
		return ""
	}
	return t.name
}

// reject counts one rejected submission.
func (t *Tenant) reject(reason string) { t.rejected[reason].Add(1) }

// TenantStats is a point-in-time copy of one tenant's accounting, for
// the /metrics exposition.
type TenantStats struct {
	Name      string
	Submitted uint64
	Rejected  map[string]uint64
	Queued    int
	Running   int
}

// TenantRegistry resolves API keys to tenants. A registry without a
// config file runs in open mode: no authentication, every request acts
// as one unlimited "default" tenant.
type TenantRegistry struct {
	open    bool
	tenants []*Tenant // name order, fixed after load
	byKey   map[string]*Tenant
}

// newOpenRegistry builds the open-mode registry.
func newOpenRegistry() *TenantRegistry {
	return &TenantRegistry{open: true, tenants: []*Tenant{newTenant(TenantConfig{Name: "default"})}}
}

// LoadTenants reads and validates a -tenants config file.
func LoadTenants(path string) (*TenantRegistry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("server: read tenants config: %w", err)
	}
	var doc struct {
		Tenants []TenantConfig `json:"tenants"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("server: parse tenants config %s: %w", path, err)
	}
	if len(doc.Tenants) == 0 {
		return nil, fmt.Errorf("server: tenants config %s lists no tenants", path)
	}
	reg := &TenantRegistry{byKey: make(map[string]*Tenant, len(doc.Tenants))}
	names := make(map[string]bool, len(doc.Tenants))
	for i, cfg := range doc.Tenants {
		if cfg.Name == "" {
			return nil, fmt.Errorf("server: tenants config %s: entry %d has no name", path, i)
		}
		if cfg.Key == "" {
			return nil, fmt.Errorf("server: tenants config %s: tenant %s has no key", path, cfg.Name)
		}
		if names[cfg.Name] {
			return nil, fmt.Errorf("server: tenants config %s: duplicate tenant name %s", path, cfg.Name)
		}
		if _, dup := reg.byKey[cfg.Key]; dup {
			return nil, fmt.Errorf("server: tenants config %s: tenant %s reuses another tenant's key", path, cfg.Name)
		}
		if cfg.MaxQueued < 0 {
			return nil, fmt.Errorf("server: tenants config %s: tenant %s has a negative limit", path, cfg.Name)
		}
		t := newTenant(cfg)
		reg.tenants = append(reg.tenants, t)
		reg.byKey[cfg.Key] = t
		names[cfg.Name] = true
	}
	sort.Slice(reg.tenants, func(i, j int) bool { return reg.tenants[i].name < reg.tenants[j].name })
	return reg, nil
}

// Open reports whether the registry runs without authentication.
func (r *TenantRegistry) Open() bool { return r.open }

// Authenticate resolves an API key. In open mode every key (including
// none) resolves to the default tenant.
func (r *TenantRegistry) Authenticate(key string) (*Tenant, bool) {
	if r.open {
		return r.tenants[0], true
	}
	t, ok := r.byKey[key]
	return t, ok
}

// tenantStats snapshots every tenant's accounting in name order, its
// queued and running jobs counted from the backlog and the running set.
func (s *Server) tenantStats() []TenantStats {
	out := make([]TenantStats, 0, len(s.tenants.tenants))
	for _, t := range s.tenants.tenants {
		st := TenantStats{
			Name:      t.name,
			Submitted: t.submitted.Load(),
			Rejected:  make(map[string]uint64, len(t.rejected)),
			Queued:    s.pool.queuedFor(t.name),
			Running:   s.runningFor(t.name),
		}
		for reason, n := range t.rejected {
			st.Rejected[reason] = n.Load()
		}
		out = append(out, st)
	}
	return out
}
