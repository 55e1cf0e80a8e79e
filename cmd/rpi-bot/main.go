// Command rpi-bot is the fleet-scale load generator: it stands up (or
// targets) a multi-tenant serving host and drives every tenant with a
// mixed population of readers, appliers and SSE streamers, then
// reports per-tenant, per-class admitted p50/p99 latency and shed
// percentage — the serving plane's SLO-under-load numbers.
//
// Default mode is self-contained: an in-process host with N tiny-world
// tenants over an in-memory WAL, so `rpi-bot` with no flags is a
// complete fleet benchmark. After the run it cross-checks every
// tenant: the host's /v1/t/{tenant}/infer bytes must be byte-identical
// to the wire report of a fresh engine built over the same inputs —
// multi-tenancy must not change a single served byte. Every run fails
// on a protocol violation: a status outside the allowed set, or a 503
// without Retry-After.
//
// With -faults N the same load runs against an in-process host whose
// engines can be made to fail: N fault cycles alternate an engine
// panic mid-apply with a WAL append error, under tight fixed admission
// limits plus a stalled streamer and a deadline storm per tenant, and
// the run asserts the serving plane's recovery SLOs (see faults.go).
//
//	rpi-bot -tenants 4 -readers 6 -appliers 1 -streamers 2 -duration 5s
//	rpi-bot -tenants 1 -faults 2         # fault injection (make chaos)
//	rpi-bot -o BENCH_PR8.json -merge     # record/refresh the SLO snapshot
//	rpi-bot -addr http://host:8090       # drive an external rpi-serve
//
// With -o the results are written as benchmark records in the same
// JSON shape as rpi-benchsnap; -merge folds them into an existing file
// (replacing records with the same name) instead of overwriting it.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"rpeer/internal/bot"
	"rpeer/internal/host"
	"rpeer/internal/netsim"
	"rpeer/internal/wal"
	"rpeer/internal/worldfile"
	"rpeer/pkg/rpi"
	"rpeer/pkg/rpi/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rpi-bot: ")
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("rpi-bot", flag.ContinueOnError)
	addr := fs.String("addr", "", "drive an external host at this base URL instead of an in-process one")
	tenants := fs.Int("tenants", 4, "number of tenants to drive")
	readers := fs.Int("readers", 6, "reader workers per tenant (infer + cheap per-IXP reads)")
	appliers := fs.Int("appliers", 1, "applier workers per tenant (churn + inverse deltas)")
	streamers := fs.Int("streamers", 2, "SSE streamer workers per tenant")
	duration := fs.Duration("duration", 5*time.Second, "load duration (ignored with -faults: the run ends after the last recovery)")
	seed := fs.Int64("seed", 1, "base world seed; tenant i uses seed+i")
	worldPath := fs.String("world", "", "serve this pre-generated .rpw world bundle to every tenant (in-process mode) instead of per-tenant tiny worlds")
	churn := fs.Float64("churn", 0.02, "membership fraction churned per applier delta")
	faults := fs.Int("faults", 0, "run N fault cycles (engine panic, WAL append error, alternating) under tight admission limits and assert the recovery SLOs (in-process mode only)")
	out := fs.String("o", "", "write benchmark records to this JSON file (rpi-benchsnap shape)")
	merge := fs.Bool("merge", false, "with -o: merge into the existing file, replacing same-name records")
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	if *tenants < 1 {
		log.Print("need at least one tenant")
		return 2
	}
	if *faults > 0 && *addr != "" {
		log.Print("-faults needs the in-process host; it cannot be combined with -addr")
		return 2
	}
	names := make([]string, *tenants)
	for i := range names {
		names[i] = fmt.Sprintf("t%d", i)
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	cfg := bot.Config{
		Tenants:   names,
		Readers:   *readers,
		Appliers:  *appliers,
		Streamers: *streamers,
		Duration:  *duration,
		ChurnFrac: *churn,
	}

	var h *host.Host
	var inj *injector
	if *addr == "" {
		opts, sc := []rpi.Option(nil), serve.Config{RequestTimeout: 10 * time.Second}
		if *faults > 0 {
			inj = &injector{fsys: wal.NewMemFS()}
			opts, sc = inj.options(), faultServe
			cfg.Hostile, cfg.Duration = true, 0
		}
		var shutdown func()
		var err error
		h, cfg.BaseURL, shutdown, err = inProcessHost(names, *seed, *worldPath, opts, sc)
		if err != nil {
			log.Print(err)
			return 1
		}
		defer shutdown()
		cfg.Inputs = func(tn string) (rpi.Inputs, error) { return liveInputs(h, tn) }
		worlds := "tiny worlds"
		if *worldPath != "" {
			worlds = "world bundle " + *worldPath
		}
		log.Printf("in-process host on %s: %d tenants, %s, in-memory WAL", cfg.BaseURL, *tenants, worlds)
	} else {
		cfg.BaseURL = strings.TrimRight(*addr, "/")
		if err := ensureTenants(ctx, cfg.BaseURL, names, *seed); err != nil {
			log.Print(err)
			return 1
		}
		// The remote engine's inputs are invisible, so deltas are
		// generated against the deterministic base world; the applier's
		// churn-then-inverse pairing keeps that view valid at pair
		// boundaries, and validation races surface as rejected counts.
		cfg.Inputs = func(tn string) (rpi.Inputs, error) {
			return tinyInputs(tenantSeed(*seed, names, tn))
		}
		log.Printf("driving external host %s: %d tenants", cfg.BaseURL, *tenants)
	}

	loadCtx, stop := context.WithCancel(ctx)
	defer stop()
	load, err := bot.Start(loadCtx, cfg)
	if err != nil {
		log.Print(err)
		return 1
	}
	var faultErr error
	if inj != nil {
		faultErr = inj.drive(load, h, cfg.BaseURL, names, *faults)
		stop()
	}
	rep := load.Wait()
	printReport(rep)
	if faultErr != nil {
		log.Printf("FAULT SLO FAILED: %v", faultErr)
		return 1
	}
	if rep.BadStatus != "" {
		log.Printf("PROTOCOL VIOLATION: %s", rep.BadStatus)
		return 1
	}
	if inj != nil {
		if err := checkFaultRun(rep, h, cfg.BaseURL, names, *faults); err != nil {
			log.Printf("FAULT SLO FAILED: %v", err)
			return 1
		}
		log.Printf("faults: %d cycles injected and recovered, all SLOs held", *faults)
	}

	if h != nil {
		if err := verifyByteIdentity(h, cfg.BaseURL, names); err != nil {
			log.Printf("BYTE IDENTITY FAILED: %v", err)
			return 1
		}
		log.Printf("byte identity: all %d tenants match a cold engine over the same inputs", *tenants)
	}

	if *out != "" {
		if err := writeSnapshot(*out, *merge, rep); err != nil {
			log.Print(err)
			return 1
		}
		log.Printf("wrote %s", *out)
	}
	return 0
}

// tinyInputs is the deterministic per-tenant base world.
func tinyInputs(seed int64) (rpi.Inputs, error) {
	cfg := netsim.TinyConfig()
	cfg.Seed = seed
	return rpi.InputsFromConfig(cfg, seed)
}

func tenantSeed(base int64, names []string, tn string) int64 {
	for i, n := range names {
		if n == tn {
			return base + int64(i)
		}
	}
	return base
}

// inProcessHost stands up the self-contained fleet: a host with one
// tiny world per tenant (or one shared pre-generated .rpw bundle) over
// an in-memory WAL (the host has no data dir; opts may swap it), fronted
// by the shared serving plane, configured by sc, on a loopback listener.
func inProcessHost(names []string, seed int64, worldPath string, opts []rpi.Option, sc serve.Config) (*host.Host, string, func(), error) {
	inputs := func(sp host.TenantSpec) (rpi.Inputs, error) {
		return tinyInputs(sp.Seed)
	}
	if worldPath != "" {
		// Load once; the bundle is read-only shared state, so every
		// tenant's engine can serve the same decoded world.
		in, err := worldfile.Load(worldPath)
		if err != nil {
			return nil, "", nil, err
		}
		inputs = func(host.TenantSpec) (rpi.Inputs, error) { return in, nil }
	}
	h, err := host.Open(host.Config{
		Inputs:     inputs,
		Options:    opts,
		MaxTenants: len(names),
		Logger:     log.New(io.Discard, "", 0),
	})
	if err != nil {
		return nil, "", nil, err
	}
	for i, tn := range names {
		if err := h.Create(host.TenantSpec{Name: tn, Seed: seed + int64(i), Profile: "tiny"}); err != nil {
			_ = h.Close()
			return nil, "", nil, err
		}
	}
	front := serve.NewHost(h, "", sc)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = h.Close()
		return nil, "", nil, err
	}
	srv := &http.Server{Handler: front}
	go func() { _ = srv.Serve(ln) }()
	// The load has finished by the time this runs, so nothing is left
	// to drain: a graceful Shutdown would only wait out connections a
	// client pooled but never used.
	shutdown := func() {
		_ = srv.Close()
		_ = h.Close()
	}
	return h, "http://" + ln.Addr().String(), shutdown, nil
}

// liveInputs reads a tenant's current engine inputs under a lease (the
// bot serializes per-tenant writers, so the snapshot stays valid for
// delta generation until its forward+inverse pair completes).
func liveInputs(h *host.Host, tn string) (rpi.Inputs, error) {
	lease, err := h.Lease(context.Background(), tn)
	if err != nil {
		return rpi.Inputs{}, err
	}
	defer lease.Release()
	eng := lease.Guard().Engine()
	if eng == nil {
		return rpi.Inputs{}, errors.New("tenant has no engine (quarantined?)")
	}
	return eng.Inputs(), nil
}

// ensureTenants registers the bot's tenants on an external host,
// tolerating ones that already exist.
func ensureTenants(ctx context.Context, base string, names []string, seed int64) error {
	cl := &http.Client{Timeout: 10 * time.Second}
	for i, tn := range names {
		body, _ := json.Marshal(host.TenantSpec{Name: tn, Seed: seed + int64(i), Profile: "tiny"})
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/tenants", bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := cl.Do(req)
		if err != nil {
			return fmt.Errorf("create tenant %q: %w", tn, err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusCreated:
		case http.StatusConflict:
			log.Printf("tenant %q already exists: assuming seed %d, profile tiny", tn, seed+int64(i))
		default:
			return fmt.Errorf("create tenant %q: status %d", tn, resp.StatusCode)
		}
	}
	return nil
}

// verifyByteIdentity proves multi-tenancy, faults and recovery are
// invisible to readers: for each tenant, a fresh engine built over the
// tenant engine's current inputs must marshal exactly the bytes the
// host serves. (Engine inputs track every applied delta, so a cold
// rebuild over them equals the incrementally-maintained world.) The
// tenants' writes must be held off meanwhile; a read the front end
// sheds is retried.
func verifyByteIdentity(h *host.Host, base string, names []string) error {
	cl := &http.Client{Timeout: 30 * time.Second}
	for _, tn := range names {
		lease, err := h.Lease(context.Background(), tn)
		if err != nil {
			return fmt.Errorf("tenant %q: %w", tn, err)
		}
		eng := lease.Guard().Engine()
		if eng == nil {
			lease.Release()
			return fmt.Errorf("tenant %q: no engine", tn)
		}
		cold, err := rpi.New(eng.Inputs())
		lease.Release()
		if err != nil {
			return fmt.Errorf("tenant %q: cold rebuild: %w", tn, err)
		}
		coldBytes, err := rpi.MarshalReport(cold.Snapshot())
		cold.Abandon()
		if err != nil {
			return fmt.Errorf("tenant %q: marshal cold report: %w", tn, err)
		}
		hostBytes, err := getBody(cl, base+"/v1/t/"+tn+"/infer")
		for deadline := time.Now().Add(recoveryBound); errors.Is(err, errShed) && time.Now().Before(deadline); {
			time.Sleep(20 * time.Millisecond)
			hostBytes, err = getBody(cl, base+"/v1/t/"+tn+"/infer")
		}
		if err != nil {
			return fmt.Errorf("tenant %q: host read: %w", tn, err)
		}
		if !bytes.Equal(hostBytes, coldBytes) {
			return fmt.Errorf("tenant %q: host served %d bytes != cold engine %d bytes",
				tn, len(hostBytes), len(coldBytes))
		}
	}
	return nil
}

// errShed marks a read the front end answered with 503.
var errShed = errors.New("shed (503)")

func getBody(cl *http.Client, url string) ([]byte, error) {
	resp, err := cl.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusServiceUnavailable:
		return nil, fmt.Errorf("%s: %w", url, errShed)
	default:
		return nil, fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	return b, nil
}

func printReport(rep *bot.Report) {
	tns := make([]string, 0, len(rep.Tenants))
	for tn := range rep.Tenants {
		tns = append(tns, tn)
	}
	sort.Strings(tns)
	log.Printf("%-8s %-7s %9s %9s %7s %6s %6s %9s %9s",
		"tenant", "class", "requests", "admitted", "shed", "rej", "err", "p50(ms)", "p99(ms)")
	for _, tn := range tns {
		for _, cl := range []string{"read", "cheap", "write", "stream"} {
			st, ok := rep.Tenants[tn][cl]
			if !ok || st.Requests == 0 {
				continue
			}
			log.Printf("%-8s %-7s %9d %9d %6.1f%% %6d %6d %9.2f %9.2f",
				tn, cl, st.Requests, st.Admitted, st.ShedPct(), st.Rejected, st.Errors, st.P50Ms, st.P99Ms)
		}
		if ev := rep.StreamEvents[tn]; ev > 0 {
			log.Printf("%-8s %-7s %9d stream update events", tn, "", ev)
		}
	}
}

// Record / Snapshot mirror rpi-benchsnap's JSON file layout, so bot
// results land in the same BENCH_PRn.json files the CI snapshots.
type record struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  *float64           `json:"b_per_op,omitempty"`
	AllocsPerOp *float64           `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

type snapshot struct {
	GoOS   string   `json:"goos,omitempty"`
	GoArch string   `json:"goarch,omitempty"`
	Pkg    string   `json:"pkg,omitempty"`
	CPU    string   `json:"cpu,omitempty"`
	Bench  []record `json:"benchmarks"`
}

// writeSnapshot renders the run as one benchmark record per (tenant,
// class) with p50/p99/shed% metrics, plus a fleet-wide read aggregate,
// and writes (or merges) the rpi-benchsnap-shaped file.
func writeSnapshot(path string, merge bool, rep *bot.Report) error {
	var recs []record
	tns := make([]string, 0, len(rep.Tenants))
	for tn := range rep.Tenants {
		tns = append(tns, tn)
	}
	sort.Strings(tns)
	var aggReq, aggAdm, aggShed uint64
	var aggLatMs float64
	for _, tn := range tns {
		for _, cl := range []string{"read", "write", "stream"} {
			st, ok := rep.Tenants[tn][cl]
			if !ok || st.Requests == 0 {
				continue
			}
			recs = append(recs, record{
				Name:       fmt.Sprintf("BotHostLoad/tenant=%s/class=%s", tn, cl),
				Iterations: int64(st.Admitted),
				NsPerOp:    st.MeanMs * 1e6,
				Metrics: map[string]float64{
					"p50-ms":   st.P50Ms,
					"p99-ms":   st.P99Ms,
					"shed-pct": st.ShedPct(),
				},
			})
			if cl == "read" {
				aggReq += st.Requests
				aggAdm += st.Admitted
				aggShed += st.Shed
				aggLatMs += st.MeanMs * float64(st.Admitted)
			}
		}
	}
	if aggAdm > 0 {
		shedPct := 100 * float64(aggShed) / float64(aggReq)
		recs = append(recs, record{
			Name:       "BotHostLoad/fleet/class=read",
			Iterations: int64(aggAdm),
			NsPerOp:    aggLatMs / float64(aggAdm) * 1e6,
			Metrics: map[string]float64{
				"shed-pct":  shedPct,
				"tenants":   float64(len(rep.Tenants)),
				"reads-sec": float64(aggAdm) / rep.Duration.Seconds(),
			},
		})
	}

	snap := snapshot{
		GoOS:   runtime.GOOS,
		GoArch: runtime.GOARCH,
		Pkg:    "rpeer/cmd/rpi-bot",
		Bench:  recs,
	}
	if merge {
		if prev, err := os.ReadFile(path); err == nil {
			var old snapshot
			if err := json.Unmarshal(prev, &old); err != nil {
				return fmt.Errorf("merge %s: %w", path, err)
			}
			mine := make(map[string]bool, len(recs))
			for _, r := range recs {
				mine[r.Name] = true
			}
			kept := make([]record, 0, len(old.Bench)+len(recs))
			for _, r := range old.Bench {
				if !mine[r.Name] {
					kept = append(kept, r)
				}
			}
			snap.Bench = append(kept, recs...)
			if old.Pkg != "" && old.Pkg != snap.Pkg {
				snap.Pkg = old.Pkg + "+rpi-bot"
			}
			if old.CPU != "" {
				snap.CPU = old.CPU
			}
		} else if !errors.Is(err, os.ErrNotExist) {
			return err
		}
	}
	b, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
