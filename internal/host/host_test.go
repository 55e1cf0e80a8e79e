package host

import (
	"context"
	"errors"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rpeer/internal/netsim"
	"rpeer/internal/wal"
	"rpeer/pkg/rpi"
)

// tinyFactory builds millisecond-scale worlds: the standard inputs
// seam for host tests (each tenant's world derives from its seed).
func tinyFactory() func(TenantSpec) (rpi.Inputs, error) {
	return func(sp TenantSpec) (rpi.Inputs, error) {
		cfg := netsim.TinyConfig()
		if sp.Seed != 0 {
			cfg.Seed = sp.Seed
		}
		return rpi.InputsFromConfig(cfg, sp.Seed)
	}
}

func quiet() *log.Logger { return log.New(io.Discard, "", 0) }

func newHost(t *testing.T, cfg Config) *Host {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	if cfg.Inputs == nil {
		cfg.Inputs = tinyFactory()
	}
	if cfg.Logger == nil {
		cfg.Logger = quiet()
	}
	h, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = h.Close() })
	return h
}

func mustCreate(t *testing.T, h *Host, name string, seed int64) {
	t.Helper()
	if err := h.Create(TenantSpec{Name: name, Seed: seed}); err != nil {
		t.Fatal(err)
	}
}

// churn returns a small valid delta for the tenant's world.
func churn(t *testing.T, h *Host, lease *Lease) rpi.Delta {
	t.Helper()
	eng := lease.Guard().Engine()
	if eng == nil {
		t.Fatal("no engine under lease")
	}
	return rpi.ChurnDelta(eng.Inputs(), 0.02, 7)
}

func TestLifecycleBasics(t *testing.T) {
	h := newHost(t, Config{MaxTenants: 2})
	mustCreate(t, h, "a", 1)

	if err := h.Create(TenantSpec{Name: "a"}); !errors.Is(err, ErrTenantExists) {
		t.Fatalf("duplicate create: %v", err)
	}
	if err := h.Create(TenantSpec{Name: "../evil"}); !errors.Is(err, ErrBadTenantName) {
		t.Fatalf("bad name: %v", err)
	}
	mustCreate(t, h, "b", 2)
	if err := h.Create(TenantSpec{Name: "c"}); !errors.Is(err, ErrTooManyTenants) {
		t.Fatalf("over limit: %v", err)
	}
	if _, err := h.Lease(context.Background(), "nope"); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("unknown lease: %v", err)
	}

	// Registered tenants are cold until first touch.
	if st := h.Tenants(); st[0].State != "cold" || st[1].State != "cold" {
		t.Fatalf("fresh tenants not cold: %+v", st)
	}
	lease, err := h.Lease(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	if rep, _, _ := lease.Guard().Published(); rep.Len() == 0 {
		t.Fatal("snapshot under lease has no inferences")
	}
	if st := h.Tenants()[0]; st.State != "serving" || st.Leases != 1 || st.Opens != 1 {
		t.Fatalf("leased tenant status: %+v", st)
	}
	lease.Release()
	lease.Release() // double release must not double-decrement
	if st := h.Tenants()[0]; st.Leases != 0 {
		t.Fatalf("leases did not drain: %+v", st)
	}

	if err := h.Delete("a", true); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Lease(context.Background(), "a"); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("deleted lease: %v", err)
	}
	if err := h.Delete("a", false); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("double delete: %v", err)
	}
}

// TestManifestPersistsTenants: tenants survive a host restart (cold —
// engines reopen lazily from their directories).
func TestManifestPersistsTenants(t *testing.T) {
	dir := t.TempDir()
	h := newHost(t, Config{Dir: dir})
	mustCreate(t, h, "a", 1)
	mustCreate(t, h, "b", 2)

	// Touch "a" and move its world so the restart has state to recover.
	lease, err := h.Lease(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	up, err := lease.Guard().Apply(context.Background(), churn(t, h, lease))
	if err != nil {
		t.Fatal(err)
	}
	lease.Release()
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}

	h2 := newHost(t, Config{Dir: dir})
	st := h2.Tenants()
	if len(st) != 2 || st[0].Name != "a" || st[1].Name != "b" || st[0].State != "cold" {
		t.Fatalf("reloaded tenants: %+v", st)
	}
	lease2, err := h2.Lease(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	defer lease2.Release()
	if got := lease2.Guard().Engine().Seq(); got != up.Seq {
		t.Fatalf("recovered seq = %d, want %d", got, up.Seq)
	}
}

// TestIdleEvictionAndReopen: an idle tenant is evicted with a final
// checkpoint; the next lease reopens it at the same seq, under a fresh
// guard.
func TestIdleEvictionAndReopen(t *testing.T) {
	h := newHost(t, Config{IdleTimeout: time.Hour})
	mustCreate(t, h, "a", 1)

	lease, err := h.Lease(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	g1 := lease.Guard()
	up, err := g1.Apply(context.Background(), churn(t, h, lease))
	if err != nil {
		t.Fatal(err)
	}

	// An active lease pins the tenant: no eviction however idle the
	// clock claims it is.
	if n := h.Sweep(time.Now().Add(2 * time.Hour)); n != 0 {
		t.Fatalf("evicted %d tenants under an active lease", n)
	}
	lease.Release()
	if n := h.Sweep(time.Now()); n != 0 {
		t.Fatalf("evicted %d tenants before IdleTimeout", n)
	}
	if n := h.Sweep(time.Now().Add(2 * time.Hour)); n != 1 {
		t.Fatalf("idle sweep evicted %d tenants, want 1", n)
	}
	if st := h.Tenants()[0]; st.State != "cold" || st.Evictions != 1 {
		t.Fatalf("evicted status: %+v", st)
	}

	lease2, err := h.Lease(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	defer lease2.Release()
	if lease2.Guard() == g1 {
		t.Fatal("reopened tenant kept the old guard")
	}
	if got := lease2.Guard().Engine().Seq(); got != up.Seq {
		t.Fatalf("reopened seq = %d, want %d", got, up.Seq)
	}
	if st := h.Tenants()[0]; st.Opens != 2 {
		t.Fatalf("opens = %d, want 2", st.Opens)
	}
}

// TestDeleteDrainsActiveLeases: deletion under load is graceful — the
// tenant vanishes from the registry immediately, in-flight holders
// keep a working engine, and the engine closes on the last release.
func TestDeleteDrainsActiveLeases(t *testing.T) {
	h := newHost(t, Config{})
	mustCreate(t, h, "a", 1)

	lease, err := h.Lease(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Delete("a", false); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Lease(context.Background(), "a"); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("lease after delete: %v", err)
	}
	// The holder's engine still serves — reads and writes both.
	if rep, _, _ := lease.Guard().Published(); rep == nil {
		t.Fatal("read under draining delete: no report")
	}
	if _, err := lease.Guard().Apply(context.Background(), churn(t, h, lease)); err != nil {
		t.Fatalf("write under draining delete: %v", err)
	}
	g := lease.Guard()
	lease.Release()
	// Drained: the engine is closed now.
	if _, err := g.Apply(context.Background(), rpi.Delta{}); err == nil {
		t.Fatal("apply after drain-close succeeded")
	}
}

// TestEvictionRacesLease hammers Sweep against lease/release churn
// under -race: every admitted lease must observe a working engine, and
// the sweep must never close one out from under a holder.
func TestEvictionRacesLease(t *testing.T) {
	h := newHost(t, Config{IdleTimeout: time.Nanosecond})
	mustCreate(t, h, "a", 1)

	// Warm once so the race runs over reopen, not first build.
	lease, err := h.Lease(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	lease.Release()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				h.Sweep(time.Now().Add(time.Hour))
			}
		}
	}()
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				l, err := h.Lease(context.Background(), "a")
				if err != nil {
					t.Errorf("lease: %v", err)
					return
				}
				if rep, _, _ := l.Guard().Published(); rep == nil {
					t.Error("published under lease: no report")
				}
				l.Release()
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()

	l, err := h.Lease(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Release()
	if rep, _, _ := l.Guard().Published(); rep == nil {
		t.Fatal("no report after the lease storm")
	}
}

// TestCreateDeleteRacingTraffic churns one tenant's existence while
// readers hammer all three: the only error a reader may see is
// ErrUnknownTenant, and the survivors never miss a beat.
func TestCreateDeleteRacingTraffic(t *testing.T) {
	h := newHost(t, Config{})
	for i, name := range []string{"t0", "t1", "t2"} {
		mustCreate(t, h, name, int64(i+1))
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, name := range []string{"t0", "t1", "t2"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				l, err := h.Lease(context.Background(), name)
				if err != nil {
					if errors.Is(err, ErrUnknownTenant) {
						continue // t1 mid-recreate
					}
					t.Errorf("lease %s: %v", name, err)
					return
				}
				if rep, _, _ := l.Guard().Published(); rep == nil {
					t.Errorf("snapshot %s: no report", name)
				}
				l.Release()
			}
		}()
	}
	for i := 0; i < 10; i++ {
		if err := h.Delete("t1", true); err != nil {
			t.Fatalf("delete round %d: %v", i, err)
		}
		if err := h.Create(TenantSpec{Name: "t1", Seed: 2}); err != nil {
			t.Fatalf("recreate round %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()

	for _, st := range h.Tenants() {
		if st.Leases != 0 {
			t.Fatalf("%s leases did not drain: %+v", st.Name, st)
		}
	}
}

// TestQuarantineIsolation: a fault in one tenant quarantines and heals
// that tenant alone; its sibling keeps serving and writing throughout.
// The heal rebuilds the faulting tenant's inputs through Config.Inputs,
// from the supervisor's goroutine.
func TestQuarantineIsolation(t *testing.T) {
	var bomb atomic.Bool
	var builds [2]atomic.Int32 // Config.Inputs calls for a and b
	factory := tinyFactory()
	h := newHost(t, Config{
		Inputs: func(sp TenantSpec) (rpi.Inputs, error) {
			builds[sp.Seed-1].Add(1)
			return factory(sp)
		},
		Options: []rpi.Option{rpi.WithApplyHook(func(uint64, rpi.Delta) {
			if bomb.CompareAndSwap(true, false) {
				panic("host_test: injected engine fault")
			}
		})},
	})
	mustCreate(t, h, "a", 1)
	mustCreate(t, h, "b", 2)

	la, err := h.Lease(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	defer la.Release()
	lb, err := h.Lease(context.Background(), "b")
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Release()

	bomb.Store(true)
	if _, err := la.Guard().Apply(context.Background(), churn(t, h, la)); err == nil {
		t.Fatal("faulting apply succeeded")
	}
	if !la.Guard().Quarantined() {
		t.Fatal("tenant a not quarantined")
	}
	// Sibling untouched: b still reads and writes.
	if _, err := lb.Guard().Apply(context.Background(), churn(t, h, lb)); err != nil {
		t.Fatalf("sibling apply during a's quarantine: %v", err)
	}
	if lb.Guard().Stats().Faults != 0 {
		t.Fatal("sibling counted a fault")
	}
	// And a heals in place (same guard — the lease keeps working).
	deadline := time.Now().Add(10 * time.Second)
	for la.Guard().Quarantined() {
		if time.Now().After(deadline) {
			t.Fatal("tenant a never recovered")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := la.Guard().Apply(context.Background(), churn(t, h, la)); err != nil {
		t.Fatalf("apply after recovery: %v", err)
	}
	if st := h.Tenants(); st[0].Recoveries != 1 || st[1].Faults != 0 {
		t.Fatalf("isolation accounting: %+v", st)
	}
	if a, b := builds[0].Load(), builds[1].Load(); a != 2 || b != 1 {
		t.Fatalf("Config.Inputs built a %d and b %d times, want 2 (open, reopen) and 1", a, b)
	}
}

// TestInMemoryHostLeavesNoFiles: a host without a Dir keeps every
// tenant's WAL and snapshots in memory. Leasing, purging and closing
// must not write into (or delete from) the working directory.
func TestInMemoryHostLeavesNoFiles(t *testing.T) {
	t.Chdir(t.TempDir())
	h, err := Open(Config{Inputs: tinyFactory(), Logger: quiet()})
	if err != nil {
		t.Fatal(err)
	}
	mustCreate(t, h, "x", 1)
	lease, err := h.Lease(context.Background(), "x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lease.Guard().Apply(context.Background(), churn(t, h, lease)); err != nil {
		t.Fatal(err)
	}
	lease.Release()
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat("tenants"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("in-memory host touched the working directory: stat tenants: %v", err)
	}

	// A purge on an in-memory host must not reach a same-named directory
	// on disk either.
	if err := os.MkdirAll(filepath.Join("tenants", "y"), 0o755); err != nil {
		t.Fatal(err)
	}
	h, err = Open(Config{Inputs: tinyFactory(), Logger: quiet()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = h.Close() })
	mustCreate(t, h, "y", 2)
	if err := h.Delete("y", true); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join("tenants", "y")); err != nil {
		t.Fatalf("in-memory purge removed an on-disk directory: %v", err)
	}
}

// TestInMemoryHostBoundsItsLog: an in-memory host keeps each tenant's
// newest snapshot and the log after it, so applying several snapshot
// intervals' worth of deltas leaves one snapshot and one log segment
// of about the same size every time — memory does not grow with churn.
func TestInMemoryHostBoundsItsLog(t *testing.T) {
	fsys := wal.NewMemFS()
	h, err := Open(Config{Inputs: tinyFactory(), Logger: quiet(), Options: []rpi.Option{rpi.WithWALFS(fsys)}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = h.Close() })
	mustCreate(t, h, "x", 1)
	lease, err := h.Lease(context.Background(), "x")
	if err != nil {
		t.Fatal(err)
	}
	defer lease.Release()
	g := lease.Guard()
	fwd := churn(t, h, lease)
	deltas := [2]rpi.Delta{fwd, rpi.InvertDelta(g.Engine().Inputs(), fwd)}

	footprint := func() (size, snaps, segs int) {
		names, _ := fsys.ReadDir("tenants/x")
		for _, n := range names {
			b, _ := fsys.ReadFile("tenants/x/" + n)
			size += len(b)
			switch {
			case strings.HasPrefix(n, "snap-"):
				snaps++
			case strings.HasPrefix(n, "wal-"):
				segs++
			}
		}
		return size, snaps, segs
	}
	var first int
	for cycle := 1; cycle <= 4; cycle++ {
		for i := 0; i < rpi.DefaultSnapshotEvery; i++ {
			if _, err := g.Apply(context.Background(), deltas[i%2]); err != nil {
				t.Fatal(err)
			}
		}
		size, snaps, segs := footprint()
		if snaps != 1 || segs != 1 {
			t.Fatalf("after %d deltas: %d snapshots and %d log segments, want 1 of each",
				cycle*rpi.DefaultSnapshotEvery, snaps, segs)
		}
		if cycle == 1 {
			first = size
		} else if size > first+first/4 {
			t.Fatalf("after %d deltas the tenant holds %d bytes, %d after the first interval",
				cycle*rpi.DefaultSnapshotEvery, size, first)
		}
	}
}
