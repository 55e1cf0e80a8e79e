// Package host multiplexes many independent inference engines — one
// per tenant — behind a single serving process. Each tenant owns a
// private world (its own base inputs, derived deterministically from
// its spec), a private data directory (write-ahead log + snapshots,
// via rpi.Open), and a private supervisor.Guard, so a fault in one
// tenant quarantines and heals that tenant alone; its siblings never
// notice.
//
// The host is lazy and elastic: registering a tenant costs a manifest
// entry, the engine is built (or recovered from its directory) on the
// first lease, and a tenant idle past IdleTimeout is evicted — its
// engine closes cleanly, publishing a final snapshot so the next lease
// reopens from the snapshot without replay. Active leases pin a tenant:
// a long-lived subscriber blocks eviction for exactly as long as it is
// attached.
//
// Tenant lifecycle, as the serving plane sees it:
//
//	registered ──first lease──▶ serving ──idle──▶ evicted (cold)
//	     ▲                        │  ▲              │
//	     │                 fault  ▼  │ healed       │ lease
//	  Create              quarantined               ▼
//	                                             serving
//
// Deletion is graceful under load: the tenant disappears from the
// registry immediately (new leases fail with ErrUnknownTenant), while
// requests already holding a lease finish against the old guard; the
// engine closes when the last lease releases.
package host

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"sync"
	"time"

	"rpeer/internal/supervisor"
	"rpeer/internal/wal"
	"rpeer/pkg/rpi"
)

var (
	// ErrUnknownTenant is returned for a tenant that was never created
	// or has been deleted. Upstream maps it to 404.
	ErrUnknownTenant = errors.New("host: unknown tenant")
	// ErrTenantExists is returned by Create for a duplicate name (409).
	ErrTenantExists = errors.New("host: tenant already exists")
	// ErrBadTenantName rejects names that are not path- and URL-safe.
	ErrBadTenantName = errors.New("host: bad tenant name (want [a-zA-Z0-9][a-zA-Z0-9_-]{0,63})")
	// ErrTooManyTenants is returned by Create past Config.MaxTenants.
	ErrTooManyTenants = errors.New("host: tenant limit reached")
	// ErrHostClosed is returned once Close has begun: the process is
	// draining (503 upstream).
	ErrHostClosed = errors.New("host: shutting down")
)

// tenantName is the path-safe shape of a tenant name: it becomes a
// directory under Dir and a URL segment under /v1/t/.
var tenantName = regexp.MustCompile(`^[a-zA-Z0-9][a-zA-Z0-9_-]{0,63}$`)

// TenantSpec is the durable identity of a tenant: everything needed to
// rebuild its base world deterministically. It is what the manifest
// persists and what Create accepts over the wire.
type TenantSpec struct {
	Name string `json:"name"`
	// Seed derives the tenant's base world; two tenants with the same
	// seed and profile hold identical (but fully independent) worlds.
	Seed int64 `json:"seed,omitempty"`
	// Profile selects the world scale; interpretation belongs to the
	// Config.Inputs factory (cmd/rpi-serve maps "paper", "paper-N" and "tiny").
	Profile string `json:"profile,omitempty"`
}

// Config tunes a Host.
type Config struct {
	// Dir is the root data directory; each tenant persists under
	// Dir/tenants/<name>. Empty makes the host fully in-memory: no
	// manifest, and tenant WALs and snapshots live on one wal.MemFS for
	// the process's lifetime, each tenant keeping only its newest
	// snapshot and the log after it, so memory stays bounded under
	// churn (an rpi.WithWALFS or rpi.WithSnapshotRetention in Options
	// still wins).
	Dir string
	// Inputs builds a tenant's base world from its spec. Required. It
	// is called on every open of a tenant, including a supervisor's
	// reopen from its own goroutine, so it must be safe for concurrent
	// use and return the same world for the same spec each time.
	Inputs func(TenantSpec) (rpi.Inputs, error)
	// Options is passed through to every rpi.Open (WAL filesystem,
	// snapshot cadence, ...).
	Options []rpi.Option
	// MaxTenants bounds the registry (default 64).
	MaxTenants int
	// IdleTimeout evicts a tenant with no active leases after this long
	// since its last release; zero disables eviction.
	IdleTimeout time.Duration
	// SweepInterval is how often the eviction sweep runs (default
	// IdleTimeout/4, floored at 1s).
	SweepInterval time.Duration
	// DrainTimeout bounds how long Close waits for active leases before
	// closing engines under them (default 5s).
	DrainTimeout time.Duration
	// Logger receives open/evict/delete events (default log.Default()).
	Logger *log.Logger
}

// tenant is one registry entry. Its mutex serializes lifecycle
// transitions (open, evict, delete, drain) for this tenant only —
// tenants never block one another.
type tenant struct {
	spec   TenantSpec
	dir    string
	onDisk bool // dir is on the OS filesystem (the host has a Dir)

	mu      sync.Mutex
	guard   *supervisor.Guard // nil while cold
	leases  int               // active leases; nonzero pins the engine
	lastUse time.Time         // of the most recent release
	deleted bool
	purge   bool // remove the data directory once drained

	opens     uint64
	evictions uint64
}

// Host is the tenant registry.
type Host struct {
	cfg Config

	mu      sync.Mutex
	tenants map[string]*tenant
	closed  bool
	stop    chan struct{}
	done    chan struct{}
}

// Open builds a Host and reloads the tenant manifest from Dir (specs
// only — engines stay cold until first lease, so a host fronting a
// hundred tenants restarts in milliseconds and pays recovery per
// tenant on first touch).
func Open(cfg Config) (*Host, error) {
	if cfg.Inputs == nil {
		return nil, errors.New("host: Config.Inputs factory is required")
	}
	if cfg.MaxTenants <= 0 {
		cfg.MaxTenants = 64
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 5 * time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = log.Default()
	}
	if cfg.Dir == "" {
		// Prepended, so a caller's own options override them. Nothing
		// outlives the process, so there is no history worth keeping.
		cfg.Options = append([]rpi.Option{rpi.WithWALFS(wal.NewMemFS()), rpi.WithSnapshotRetention(1)}, cfg.Options...)
	}
	if cfg.IdleTimeout > 0 && cfg.SweepInterval <= 0 {
		cfg.SweepInterval = cfg.IdleTimeout / 4
		if cfg.SweepInterval < time.Second {
			cfg.SweepInterval = time.Second
		}
	}
	h := &Host{
		cfg:     cfg,
		tenants: make(map[string]*tenant),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	specs, err := h.loadManifest()
	if err != nil {
		return nil, err
	}
	for _, sp := range specs {
		h.tenants[sp.Name] = h.newTenant(sp)
	}
	if cfg.IdleTimeout > 0 {
		go h.sweepLoop()
	} else {
		close(h.done)
	}
	return h, nil
}

func (h *Host) newTenant(sp TenantSpec) *tenant {
	return &tenant{
		spec:    sp,
		dir:     filepath.Join(h.cfg.Dir, "tenants", sp.Name),
		onDisk:  h.cfg.Dir != "",
		lastUse: time.Now(),
	}
}

// Create registers a tenant. The engine is not built yet — the first
// lease pays for the world.
func (h *Host) Create(sp TenantSpec) error {
	if !tenantName.MatchString(sp.Name) {
		return fmt.Errorf("%w: %q", ErrBadTenantName, sp.Name)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return ErrHostClosed
	}
	if _, ok := h.tenants[sp.Name]; ok {
		return fmt.Errorf("%w: %q", ErrTenantExists, sp.Name)
	}
	if len(h.tenants) >= h.cfg.MaxTenants {
		return fmt.Errorf("%w (%d)", ErrTooManyTenants, h.cfg.MaxTenants)
	}
	h.tenants[sp.Name] = h.newTenant(sp)
	if err := h.saveManifestLocked(); err != nil {
		delete(h.tenants, sp.Name)
		return err
	}
	h.cfg.Logger.Printf("host: tenant %q created (seed %d, profile %q)", sp.Name, sp.Seed, sp.Profile)
	return nil
}

// Delete unregisters a tenant. New leases fail immediately with
// ErrUnknownTenant; leases already held finish against the old guard
// and the engine closes when the last one releases. With purge the
// tenant's data directory is removed once drained — otherwise the
// durable state stays on disk and re-Creating the tenant resumes it.
func (h *Host) Delete(name string, purge bool) error {
	h.mu.Lock()
	t, ok := h.tenants[name]
	if !ok {
		h.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownTenant, name)
	}
	delete(h.tenants, name)
	err := h.saveManifestLocked()
	h.mu.Unlock()
	if err != nil {
		h.cfg.Logger.Printf("host: tenant %q deleted but manifest rewrite failed: %v", name, err)
	}

	t.mu.Lock()
	t.deleted = true
	t.purge = purge
	drained := t.leases == 0
	if drained {
		t.closeLocked("deleted")
	}
	t.mu.Unlock()
	if drained {
		h.cfg.Logger.Printf("host: tenant %q deleted", name)
	} else {
		h.cfg.Logger.Printf("host: tenant %q deleted; draining active leases", name)
	}
	return nil
}

// Lease pins a tenant's engine for the duration of one request (or one
// stream): the engine is opened — built fresh or recovered from its
// directory — on first touch, and cannot be evicted or finally closed
// while leases are outstanding. Callers must Release.
func (h *Host) Lease(ctx context.Context, name string) (*Lease, error) {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil, ErrHostClosed
	}
	t, ok := h.tenants[name]
	h.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTenant, name)
	}

	t.mu.Lock()
	defer t.mu.Unlock()
	if t.deleted {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTenant, name)
	}
	if t.guard == nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := h.openLocked(t); err != nil {
			return nil, err
		}
	}
	t.leases++
	return &Lease{host: h, t: t, g: t.guard}, nil
}

// openLocked builds the tenant's guard and engine. Called with t.mu
// held: concurrent first leases build the world exactly once, and an
// open can never interleave with an eviction's close on the same
// directory.
//
// The guard's reopen builds the inputs again through Config.Inputs
// rather than holding the first build's: the engine keeps the one copy
// it needs, and a reopen (after a quarantining panic, from the
// supervisor's goroutine) starts from freshly built base inputs.
func (h *Host) openLocked(t *tenant) error {
	spec, inputs, dir, opts, logger := t.spec, h.cfg.Inputs, t.dir, h.cfg.Options, h.cfg.Logger
	reopen := func() (*rpi.Engine, *rpi.RecoveryInfo, error) {
		in, err := inputs(spec)
		if err != nil {
			return nil, nil, fmt.Errorf("inputs: %w", err)
		}
		return rpi.Open(dir, in, opts...)
	}
	start := time.Now()
	eng, info, err := reopen()
	if err != nil {
		return fmt.Errorf("host: tenant %q open: %w", t.spec.Name, err)
	}
	t.guard = supervisor.New(eng, supervisor.Options{Reopen: reopen, Logger: logger})
	t.opens++
	logger.Printf("host: tenant %q open: seq %d (replayed %d) in %s",
		t.spec.Name, info.Seq, info.Replayed, time.Since(start).Round(time.Millisecond))
	return nil
}

// closeLocked tears the engine down (final snapshot via Engine.Close
// inside Guard.Close) and purges the directory if requested. Called
// with t.mu held and t.leases == 0.
func (t *tenant) closeLocked(why string) {
	if t.guard != nil {
		if err := t.guard.Close(); err != nil {
			log.Printf("host: tenant %q close (%s): %v", t.spec.Name, why, err)
		}
		t.guard = nil
	}
	if t.deleted && t.purge && t.onDisk {
		_ = os.RemoveAll(t.dir)
	}
}

// Lease pins one tenant's guard. The guard pointer is stable for the
// lease's lifetime even if the tenant is deleted or the host closes
// underneath it.
type Lease struct {
	host *Host
	t    *tenant
	g    *supervisor.Guard

	mu       sync.Mutex
	released bool
}

// Guard returns the tenant's supervisor for the duration of the lease.
func (l *Lease) Guard() *supervisor.Guard { return l.g }

// Release unpins the tenant. The last release of a deleted tenant
// closes its engine (and purges its directory if requested). Safe to
// call more than once.
func (l *Lease) Release() {
	l.mu.Lock()
	if l.released {
		l.mu.Unlock()
		return
	}
	l.released = true
	l.mu.Unlock()

	t := l.t
	t.mu.Lock()
	t.leases--
	t.lastUse = time.Now()
	if t.deleted && t.leases == 0 {
		t.closeLocked("drained after delete")
	}
	t.mu.Unlock()
}

// sweepLoop evicts idle tenants until the host closes.
func (h *Host) sweepLoop() {
	defer close(h.done)
	tick := time.NewTicker(h.cfg.SweepInterval)
	defer tick.Stop()
	for {
		select {
		case <-h.stop:
			return
		case <-tick.C:
			h.Sweep(time.Now())
		}
	}
}

// Sweep evicts every tenant whose engine is open, lease-free and idle
// since before now-IdleTimeout, returning how many were evicted. The
// background loop calls it on SweepInterval; tests call it directly to
// make eviction deterministic. Eviction closes the engine cleanly —
// final snapshot published — so the next lease reopens without replay.
func (h *Host) Sweep(now time.Time) int {
	if h.cfg.IdleTimeout <= 0 {
		return 0
	}
	h.mu.Lock()
	ts := make([]*tenant, 0, len(h.tenants))
	for _, t := range h.tenants {
		ts = append(ts, t)
	}
	h.mu.Unlock()

	n := 0
	for _, t := range ts {
		t.mu.Lock()
		if t.guard != nil && t.leases == 0 && !t.deleted && now.Sub(t.lastUse) >= h.cfg.IdleTimeout {
			// A quarantined tenant is healing in the background; let the
			// recovery finish rather than racing its republish.
			if !t.guard.Quarantined() {
				t.closeLocked("idle")
				t.evictions++
				n++
				h.cfg.Logger.Printf("host: tenant %q evicted after %s idle", t.spec.Name, h.cfg.IdleTimeout)
			}
		}
		t.mu.Unlock()
	}
	return n
}

// TenantStatus is one tenant's observable state.
type TenantStatus struct {
	Name    string `json:"name"`
	Seed    int64  `json:"seed,omitempty"`
	Profile string `json:"profile,omitempty"`
	// State is cold (registered, engine not open), serving, or
	// quarantined (healing; reads keep serving the last good snapshot).
	State     string `json:"state"`
	Leases    int    `json:"leases"`
	Opens     uint64 `json:"opens"`
	Evictions uint64 `json:"evictions"`
	// Supervisor and engine detail, present while the engine is open.
	AckedSeq             uint64 `json:"acked_seq,omitempty"`
	Generation           uint64 `json:"generation,omitempty"`
	Faults               uint64 `json:"faults,omitempty"`
	Recoveries           uint64 `json:"recoveries,omitempty"`
	ContinuityViolations uint64 `json:"continuity_violations,omitempty"`
	// DroppedUpdates counts stream updates the current engine shed from
	// slow subscribers.
	DroppedUpdates uint64 `json:"dropped_updates,omitempty"`
}

// Tenants lists every registered tenant's status, sorted by name.
func (h *Host) Tenants() []TenantStatus {
	h.mu.Lock()
	ts := make([]*tenant, 0, len(h.tenants))
	for _, t := range h.tenants {
		ts = append(ts, t)
	}
	h.mu.Unlock()

	out := make([]TenantStatus, 0, len(ts))
	for _, t := range ts {
		out = append(out, t.status())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Len returns the number of registered tenants.
func (h *Host) Len() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.tenants)
}

// Status returns one tenant's status; false if it is not registered.
func (h *Host) Status(name string) (TenantStatus, bool) {
	h.mu.Lock()
	t, ok := h.tenants[name]
	h.mu.Unlock()
	if !ok {
		return TenantStatus{}, false
	}
	return t.status(), true
}

func (t *tenant) status() TenantStatus {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := TenantStatus{
		Name: t.spec.Name, Seed: t.spec.Seed, Profile: t.spec.Profile,
		State: "cold", Leases: t.leases, Opens: t.opens, Evictions: t.evictions,
	}
	if t.guard != nil {
		gs := t.guard.Stats()
		st.State = "serving"
		if gs.Quarantined {
			st.State = "quarantined"
		}
		st.AckedSeq, st.Generation = gs.AckedSeq, gs.Generation
		st.Faults, st.Recoveries = gs.Faults, gs.Recoveries
		st.ContinuityViolations = gs.ContinuityViolations
		st.DroppedUpdates = t.guard.Engine().DroppedUpdates()
	}
	return st
}

// Close drains the host: new leases fail with ErrHostClosed, active
// leases get up to DrainTimeout to release, then every open engine is
// closed cleanly (final snapshot). Safe to call more than once.
func (h *Host) Close() error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		<-h.done
		return nil
	}
	h.closed = true
	close(h.stop)
	ts := make([]*tenant, 0, len(h.tenants))
	for _, t := range h.tenants {
		ts = append(ts, t)
	}
	h.mu.Unlock()
	<-h.done

	deadline := time.Now().Add(h.cfg.DrainTimeout)
	for _, t := range ts {
		for {
			t.mu.Lock()
			if t.leases == 0 || time.Now().After(deadline) {
				if t.leases != 0 {
					h.cfg.Logger.Printf("host: tenant %q closing with %d leases still active", t.spec.Name, t.leases)
				}
				t.closeLocked("host shutdown")
				t.mu.Unlock()
				break
			}
			t.mu.Unlock()
			time.Sleep(5 * time.Millisecond)
		}
	}
	return nil
}

// manifestPath is where the tenant specs persist under Dir.
func (h *Host) manifestPath() string { return filepath.Join(h.cfg.Dir, "tenants.json") }

type manifest struct {
	Tenants []TenantSpec `json:"tenants"`
}

func (h *Host) loadManifest() ([]TenantSpec, error) {
	if h.cfg.Dir == "" {
		return nil, nil
	}
	b, err := os.ReadFile(h.manifestPath())
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("host: read manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("host: parse manifest: %w", err)
	}
	for _, sp := range m.Tenants {
		if !tenantName.MatchString(sp.Name) {
			return nil, fmt.Errorf("%w: %q (in manifest)", ErrBadTenantName, sp.Name)
		}
	}
	return m.Tenants, nil
}

// saveManifestLocked rewrites the manifest atomically (temp + rename).
// Called with h.mu held.
func (h *Host) saveManifestLocked() error {
	if h.cfg.Dir == "" {
		return nil
	}
	m := manifest{Tenants: make([]TenantSpec, 0, len(h.tenants))}
	for _, t := range h.tenants {
		m.Tenants = append(m.Tenants, t.spec)
	}
	sort.Slice(m.Tenants, func(i, j int) bool { return m.Tenants[i].Name < m.Tenants[j].Name })
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(h.cfg.Dir, 0o755); err != nil {
		return fmt.Errorf("host: manifest dir: %w", err)
	}
	if err := wal.WriteFileAtomic(wal.OS(), h.manifestPath(), append(b, '\n')); err != nil {
		return fmt.Errorf("host: manifest: %w", err)
	}
	return nil
}
