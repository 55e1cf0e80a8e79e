// Command rpi-serve runs the remote peering inference service: an
// internal/host tenant registry of long-lived rpi.Engines, exposed over
// HTTP/JSON (the /v1 wire schema of pkg/rpi). Each tenant owns its own
// world, engine, data directory and supervisor; all of them share one
// listener and one admission controller.
//
// Endpoints:
//
//	GET    /healthz                liveness
//	GET    /readyz                 readiness (503 until the default tenant has opened)
//	POST   /v1/tenants             {"name":"acme","seed":7,"profile":"tiny"}
//	GET    /v1/tenants             every tenant's live state
//	GET    /v1/tenants/{tenant}    one tenant's state
//	DELETE /v1/tenants/{tenant}    drop a tenant (?purge=1 removes its data)
//	GET    /v1/t/{tenant}/infer    that tenant's full report
//	GET    /v1/t/{tenant}/report/{ixp}
//	POST   /v1/t/{tenant}/apply    membership joins/leaves + RTT refreshes
//	GET    /v1/t/{tenant}/stream   server-sent events: verdict changes as they land
//
// The short routes /v1/infer, /v1/report/{ixp}, /v1/apply and
// /v1/stream are aliases for the -default-tenant ("default"), which
// rpi-serve creates at startup from -seed/-scale — or, with -world F,
// serves the pre-generated .rpw world file F. So with no flags at all
// rpi-serve is a one-world inference service.
//
// Usage:
//
//	rpi-serve [-seed N] [-scale N] [-world F] [-addr :8090] [-workers N]
//	          [-data-dir DIR] [-fsync every|interval|off] [-snapshot-every N]
//	          [-default-tenant NAME] [-max-tenants N] [-idle-evict D]
//	          [-request-timeout 0] [-admit-read N] [-admit-cheap N]
//	          [-admit-write N] [-admit-stream N]
//	          [-debug-addr :8091] [-shutdown-timeout 10s]
//
// With -data-dir set every tenant is crash-safe: each applied delta is
// journaled to a checksummed write-ahead log under
// DIR/tenants/<name> before it is acknowledged, columnar snapshots
// bound replay, and a restart recovers the exact pre-crash state (see
// pkg/rpi.Open). A DIR written by the older single-engine server, with
// its log and snapshots directly in DIR, is moved into
// DIR/tenants/<default tenant> at startup. Without -data-dir, tenant
// state lives in memory (one snapshot plus the log after it per
// tenant) and is lost on restart.
//
// The listener binds first and the default tenant is opened after, so
// /healthz answers during a long recovery and /readyz goes green when
// the default tenant's engine is up. The default tenant then stays
// open until shutdown; other tenants' engines open lazily on first
// request and, with -idle-evict, close (final snapshot) after sitting
// idle.
//
// Tenant profiles: "paper" (the paper-sized world; "paper-N" scales
// it Nx) and "tiny" (a millisecond-scale world for tests and demos). A
// tenant's world derives deterministically from its (seed, profile),
// so a host restart rebuilds or recovers every tenant exactly.
//
// The serving plane is overload-safe and self-healing. Every /v1
// endpoint passes through per-class admission control: cheap per-IXP
// reads, full-report reads, mutating applies and SSE streams are each
// independently bounded (machine-scaled defaults; override slots with
// the -admit-* flags), one tenant may hold at most
// admission.DefaultTenantShare of a class's slots, and saturation
// answers 503 + Retry-After instead of queueing without bound.
// -request-timeout caps the end-to-end time of non-streaming requests,
// and the deadline propagates into the engine. A panic escaping an
// engine's Apply (or a broken WAL) quarantines that tenant instead of
// killing the process: reads keep serving the last good snapshot,
// writes answer 503, and a background re-Open heals the engine from
// its journal.
//
// SIGINT/SIGTERM shut the service down gracefully: in-flight requests
// drain (bounded by -shutdown-timeout), then every open engine closes,
// publishing a final snapshot so the next start replays nothing.
//
// With -debug-addr set, a second listener exposes the Go runtime
// diagnostics — /debug/pprof/ and /debug/vars (expvar: rpi.host with
// each tenant's state, acked seq, faults, recoveries, continuity
// violations and dropped stream updates; rpi.admission with per-class
// and per-tenant admission counters; rpi.handler_panics) — kept off the
// service address so the profiling surface is never reachable from the
// API network.
//
// Example session:
//
//	curl localhost:8090/readyz
//	curl localhost:8090/v1/report/Frankfurt-IX
//	curl -X POST localhost:8090/v1/apply -d '{"leaves":[{"ixp":"Frankfurt-IX","iface":"185.0.0.9"}]}'
//	curl -N localhost:8090/v1/stream
//	go tool pprof localhost:8091/debug/pprof/heap
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rpeer/internal/admission"
	"rpeer/internal/host"
	"rpeer/internal/netsim"
	"rpeer/internal/worldfile"
	"rpeer/pkg/rpi"
	"rpeer/pkg/rpi/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rpi-serve: ")
	seed := flag.Int64("seed", 1, "default tenant's world generation seed")
	scale := flag.Int("scale", 1, "default tenant's world scale factor (1 = paper-sized)")
	worldPath := flag.String("world", "", "serve this .rpw world file (written by rpi-gen -o) as the default tenant's world (overrides -seed/-scale)")
	addr := flag.String("addr", ":8090", "listen address")
	workers := flag.Int("workers", 0, "inference shard workers (0 = one per CPU)")
	dataDir := flag.String("data-dir", "", "durable state root: per-tenant delta WAL + snapshots (empty = in-memory)")
	fsync := flag.String("fsync", "every", "WAL fsync policy: every (per record), interval, off")
	fsyncInterval := flag.Duration("fsync-interval", time.Second, "flush period for -fsync interval")
	snapEvery := flag.Int("snapshot-every", rpi.DefaultSnapshotEvery, "deltas between automatic snapshots (0 = only on shutdown)")
	reqTimeout := flag.Duration("request-timeout", 0, "end-to-end deadline for non-streaming requests (0 = none)")
	admitCheap := flag.Int("admit-cheap", 0, "concurrent per-IXP report reads (0 = scale to CPUs)")
	admitRead := flag.Int("admit-read", 0, "concurrent full-report reads (0 = scale to CPUs)")
	admitWrite := flag.Int("admit-write", 0, "concurrent applies (0 = default 1; applies serialize anyway)")
	admitStream := flag.Int("admit-stream", 0, "concurrent SSE streams (0 = scale to CPUs)")
	debugAddr := flag.String("debug-addr", "", "listen address for /debug/pprof and expvar (empty = disabled)")
	shutdownTimeout := flag.Duration("shutdown-timeout", 10*time.Second, "graceful-drain deadline on SIGINT/SIGTERM")
	defaultTenant := flag.String("default-tenant", "default", "tenant created at startup that the short /v1 routes alias to (empty = tenant routes only)")
	maxTenants := flag.Int("max-tenants", 64, "tenant registry bound")
	idleEvict := flag.Duration("idle-evict", 0, "evict a tenant's engine after this long without traffic (0 = never)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	inputs, err := inputsFor(*worldPath, *defaultTenant)
	if err != nil {
		log.Fatal(err)
	}
	opts, err := persistOpts(*fsync, *fsyncInterval, *snapEvery)
	if err != nil {
		log.Fatal(err)
	}
	opts = append(opts, rpi.WithWorkers(*workers))
	if *dataDir == "" {
		log.Print("no -data-dir: tenant state is in-memory (lost on restart)")
	} else if n, err := migrateLegacyDir(*dataDir, *defaultTenant); err != nil {
		log.Fatal(err)
	} else if n > 0 {
		log.Printf("moved %d single-engine WAL/snapshot files from %s into %s",
			n, *dataDir, filepath.Join(*dataDir, "tenants", *defaultTenant))
	}
	h, err := host.Open(host.Config{
		Dir:         *dataDir,
		Inputs:      inputs,
		Options:     opts,
		MaxTenants:  *maxTenants,
		IdleTimeout: *idleEvict,
	})
	if err != nil {
		log.Fatal(err)
	}
	if *defaultTenant != "" {
		// A restarted data dir already lists it in its manifest.
		err := h.Create(host.TenantSpec{Name: *defaultTenant, Seed: *seed, Profile: profileFor(*scale)})
		if err != nil && !errors.Is(err, host.ErrTenantExists) {
			log.Fatal(err)
		}
	}

	front := serve.NewHost(h, *defaultTenant, serve.Config{
		Admission:      admissionConfig(*admitCheap, *admitRead, *admitWrite, *admitStream),
		RequestTimeout: *reqTimeout,
	})
	publishVars(front)
	srv := &http.Server{
		Addr:              *addr,
		Handler:           front,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	srvErr := make(chan error, 1)
	go func() { srvErr <- srv.ListenAndServe() }()
	log.Printf("serving on %s (%d tenants registered)", *addr, len(h.Tenants()))

	var dbg *http.Server
	dbgErr := make(chan error, 1)
	if *debugAddr != "" {
		dbg = debugServer(*debugAddr)
		go func() { dbgErr <- dbg.ListenAndServe() }()
		log.Printf("serving /debug/pprof and /debug/vars on %s", *debugAddr)
	}

	// Open the default tenant now, after the port is bound: /healthz
	// answers during a long build or recovery, /readyz turns green when
	// this lease returns. The lease is held until shutdown, so
	// -idle-evict never closes the world the short routes serve.
	var pin *host.Lease
	if *defaultTenant != "" {
		pin, err = h.Lease(ctx, *defaultTenant)
		if err != nil {
			log.Print(err)
			srv.Close()
			_ = h.Close()
			os.Exit(1)
		}
		log.Printf("ready: tenant %q serving at seq %d", *defaultTenant, pin.Guard().Engine().Seq())
	}

	// Wait for a shutdown signal or a listener failure.
	select {
	case <-ctx.Done():
		log.Printf("signal received, draining connections (up to %s)...", *shutdownTimeout)
	case err := <-srvErr:
		log.Printf("service listener stopped: %v", err)
	case err := <-dbgErr:
		// Diagnostics are auxiliary: a busy port must not take the
		// healthy /v1 API down with it.
		log.Printf("debug listener stopped: %v", err)
		dbg = nil
		waitShutdown(ctx, srvErr)
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		log.Printf("drain incomplete: %v", err)
	}
	if dbg != nil {
		_ = dbg.Shutdown(drainCtx)
	}
	// Close after the listeners stop: no request can race the final
	// snapshots, and the last acknowledged delta is on disk.
	if pin != nil {
		pin.Release()
	}
	if err := h.Close(); err != nil {
		log.Printf("host close: %v", err)
		os.Exit(1)
	}
	log.Print("shut down cleanly")
}

// inputsFor returns the host's tenant world factory: tenantInputs, with
// the default tenant's world read from worldPath when one is given.
// A world file needs a default tenant to serve it.
func inputsFor(worldPath, defaultTenant string) (func(host.TenantSpec) (rpi.Inputs, error), error) {
	if worldPath == "" {
		return tenantInputs, nil
	}
	if defaultTenant == "" {
		return nil, errors.New("-world needs a -default-tenant to serve it")
	}
	return func(sp host.TenantSpec) (rpi.Inputs, error) {
		if sp.Name != defaultTenant {
			return tenantInputs(sp)
		}
		log.Printf("loading world bundle %s...", worldPath)
		start := time.Now()
		in, err := worldfile.Load(worldPath)
		if err != nil {
			return rpi.Inputs{}, err
		}
		log.Printf("world loaded in %s: %d memberships, seed %d",
			time.Since(start).Round(time.Millisecond), len(in.World.Members), in.Seed)
		return in, nil
	}, nil
}

// migrateLegacyDir upgrades a data directory written by the
// single-engine server, which kept its WAL segments (wal-*) and
// snapshots (snap-*) at the top of dir: they move into
// dir/tenants/<tenant>, where the default tenant recovers them. The
// files gather in a staging directory first and publish with one
// rename, so a crash mid-move is finished by the next start. It
// returns how many files moved, and fails rather than guess when the
// tenant directory already exists or there is no default tenant.
func migrateLegacyDir(dir, tenant string) (int, error) {
	ents, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	var legacy []string
	for _, e := range ents {
		if n := e.Name(); !e.IsDir() && (strings.HasPrefix(n, "wal-") || strings.HasPrefix(n, "snap-")) {
			legacy = append(legacy, n)
		}
	}
	stage := filepath.Join(dir, "tenants", "."+tenant+".migrating")
	if _, err := os.Stat(stage); len(legacy) == 0 && err != nil {
		return 0, nil // nothing to move and no move to finish
	}
	if tenant == "" {
		return 0, fmt.Errorf("%s holds a single-engine WAL/snapshot layout, which needs a -default-tenant to recover into", dir)
	}
	dst := filepath.Join(dir, "tenants", tenant)
	if _, err := os.Stat(dst); err == nil {
		return 0, fmt.Errorf("%s holds a single-engine WAL/snapshot layout and %s already exists: move one of them aside", dir, dst)
	}
	if err := os.MkdirAll(stage, 0o755); err != nil {
		return 0, err
	}
	for _, n := range legacy {
		if err := os.Rename(filepath.Join(dir, n), filepath.Join(stage, n)); err != nil {
			return 0, err
		}
	}
	return len(legacy), os.Rename(stage, dst)
}

// tenantInputs derives a tenant's base world from its spec, and only
// its spec — a restarted host rebuilds every tenant identically.
// Profiles: "" / "paper" (paper-sized world), "paper-N" (scaled Nx),
// "tiny" (millisecond-scale world for tests and demos).
func tenantInputs(sp host.TenantSpec) (rpi.Inputs, error) {
	switch {
	case sp.Profile == "" || sp.Profile == "paper":
		return rpi.SyntheticInputs(sp.Seed, 1)
	case sp.Profile == "tiny":
		cfg := netsim.TinyConfig()
		if sp.Seed != 0 {
			cfg.Seed = sp.Seed
		}
		return rpi.InputsFromConfig(cfg, sp.Seed)
	case strings.HasPrefix(sp.Profile, "paper-"):
		scale, err := strconv.Atoi(strings.TrimPrefix(sp.Profile, "paper-"))
		if err != nil || scale < 1 {
			return rpi.Inputs{}, fmt.Errorf("bad profile %q: want paper-N with N >= 1", sp.Profile)
		}
		return rpi.SyntheticInputs(sp.Seed, scale)
	default:
		return rpi.Inputs{}, fmt.Errorf("unknown profile %q (want paper, paper-N or tiny)", sp.Profile)
	}
}

func profileFor(scale int) string {
	if scale <= 1 {
		return "paper"
	}
	return fmt.Sprintf("paper-%d", scale)
}

// persistOpts translates the -fsync/-snapshot-every flags into engine
// options.
func persistOpts(fsync string, fsyncInterval time.Duration, snapEvery int) ([]rpi.Option, error) {
	var opts []rpi.Option
	switch fsync {
	case "every":
		opts = append(opts, rpi.WithSync(rpi.SyncEveryDelta))
	case "interval":
		opts = append(opts, rpi.WithSyncInterval(fsyncInterval))
	case "off":
		opts = append(opts, rpi.WithSync(rpi.SyncOff))
	default:
		return nil, errors.New("bad -fsync: want every, interval or off")
	}
	return append(opts, rpi.WithSnapshotEvery(snapEvery)), nil
}

// admissionConfig translates the -admit-* slot flags into per-class
// limits: a set flag gets a queue twice its depth and the class's
// default patience; an unset flag keeps the machine-scaled default.
func admissionConfig(cheap, read, write, stream int) admission.Config {
	var cfg admission.Config
	if cheap > 0 {
		cfg.Cheap = admission.Limits{Slots: cheap, Queue: 2 * cheap, MaxWait: 2 * time.Second}
	}
	if read > 0 {
		cfg.Read = admission.Limits{Slots: read, Queue: 2 * read, MaxWait: 2 * time.Second}
	}
	if write > 0 {
		cfg.Write = admission.Limits{Slots: write, Queue: 2 * write, MaxWait: 5 * time.Second}
	}
	if stream > 0 {
		cfg.Stream = admission.Limits{Slots: stream}
	}
	return cfg
}

// waitShutdown keeps serving after a debug-listener failure until a
// real stop condition arrives.
func waitShutdown(ctx context.Context, srvErr chan error) {
	select {
	case <-ctx.Done():
	case err := <-srvErr:
		log.Printf("service listener stopped: %v", err)
	}
}

// publishVars exposes the serving gauges through expvar (served on the
// debug listener): per-tenant state (rpi.host), per-class and
// per-tenant admission counters (rpi.admission), and the handler panic
// net.
func publishVars(front *serve.HostServer) {
	h := front.Host()
	expvar.Publish("rpi.host", expvar.Func(func() interface{} { return h.Tenants() }))
	expvar.Publish("rpi.admission", front.Admission().Expvar())
	expvar.Publish("rpi.handler_panics", expvar.Func(func() interface{} { return front.HandlerPanics() }))
}

// debugServer builds the diagnostics listener: pprof + expvar, with
// the same timeout hygiene as the service listener.
func debugServer(addr string) *http.Server {
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return &http.Server{
		Addr:              addr,
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}
