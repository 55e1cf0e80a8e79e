// Package serve exposes rpi engines over HTTP/JSON: the
// traffic-serving front end of the inference system (cmd/rpi-serve is
// the binary). All responses use the versioned /v1 wire schema of
// package rpi.
//
// HostServer wraps an internal/host tenant host: one engine per
// tenant, each served under /v1/t/{tenant}/..., plus tenant lifecycle
// endpoints:
//
//	GET    /healthz                 liveness
//	GET    /readyz                  readiness (see below)
//	POST   /v1/tenants              create a tenant (JSON TenantSpec)
//	GET    /v1/tenants              list tenants + live state
//	GET    /v1/tenants/{tenant}     one tenant's state
//	DELETE /v1/tenants/{tenant}     delete (durable state kept; ?purge=1 removes it)
//	GET    /v1/t/{tenant}/infer     full wire report (current snapshot)
//	GET    /v1/t/{tenant}/report/{ixp}  one IXP's wire report
//	POST   /v1/t/{tenant}/apply     apply a world delta, returns the verdict changes
//	GET    /v1/t/{tenant}/stream    server-sent events: verdict changes as they land
//
// When built with a default tenant, the short routes (/v1/infer,
// /v1/report/{ixp}, /v1/apply, /v1/stream) are aliases for it, so a
// one-tenant deployment serves the classic single-world surface.
//
// Liveness and readiness are distinct probes: /healthz answers 200 as
// soon as the listener is up (the process is alive — don't kill it).
// With a default tenant, /readyz answers 200 only while that tenant's
// engine is open and serving: 503 + Retry-After before it has opened
// (built or recovered from its data directory), after an idle eviction
// closed it, and while it is quarantined and healing (don't route
// traffic yet — though reads that do arrive are still served from the
// last good snapshot). The serving binary holds a lease on its default
// tenant for its whole life, so that tenant is never evicted. Without
// a default tenant engines open lazily per tenant, so the host is
// ready once its registry is loaded; per-tenant health is what
// GET /v1/tenants reports.
//
// The server is overload-safe by construction: every /v1 endpoint
// passes through per-class admission control (internal/admission) and
// answers 503 + Retry-After instead of queueing unboundedly. Admission
// is shared across tenants (one machine's worth of limits) with
// per-tenant fairness on top: while the host holds more than one
// tenant, one tenant may hold at most Admission.TenantShare of a
// class's slots, so a hot tenant sheds before it starves its siblings.
// Request deadlines propagate into the engine (a caller that gives up
// stops costing anything), and each engine sits behind a
// supervisor.Guard, so a panic escaping Apply quarantines that tenant
// (reads keep serving, writes answer 503) while a background re-Open
// heals it from the write-ahead log.
//
// Requests hold a host lease for their lifetime — a stream pins its
// tenant's engine against idle eviction for exactly as long as the
// subscriber is attached. Reads are served from a per-publication
// report byte plane (rpi.Plane): the first read of a (guard
// generation, delta seq) encodes the wire report once, and every read
// at that publication writes bytes of it. A full read writes the whole
// slab; a per-IXP read writes a small header and byte ranges of the
// slab. A quarantined tenant serves its last good publication's plane.
// Reads never wait on an apply: the engine publishes each report
// atomically, and a read during an apply serves the previous one.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"rpeer/internal/admission"
	"rpeer/internal/host"
	"rpeer/internal/netsim"
	"rpeer/internal/pingsim"
	"rpeer/internal/supervisor"
	"rpeer/pkg/rpi"
)

// StatusClientClosedRequest is the nginx-convention status for "the
// client disconnected before the response was ready". It never reaches
// the (gone) client; it makes access logs and metrics tell the truth.
const StatusClientClosedRequest = 499

// Config tunes the serving plane. The zero value is production-safe:
// machine-scaled admission limits, no request timeout, 5s stream write
// timeout, 15s stream heartbeat, 64-update stream buffers.
type Config struct {
	// Admission bounds per-class concurrency; zero-valued classes take
	// admission.DefaultConfig. Admission.TenantShare bounds one
	// tenant's share of each class.
	Admission admission.Config
	// RequestTimeout caps the end-to-end time of non-streaming requests
	// (queue wait + engine work + report encoding). Zero means no cap.
	RequestTimeout time.Duration
	// StreamWriteTimeout bounds one SSE write: a consumer that cannot
	// drain an event batch within it is disconnected (it can resubscribe
	// and resynchronize from /v1/infer).
	StreamWriteTimeout time.Duration
	// StreamHeartbeat is the idle keep-alive interval on /v1/stream.
	StreamHeartbeat time.Duration
	// StreamBuffer is the per-subscriber update buffer; a consumer that
	// falls further behind has its oldest updates shed by the engine
	// (a tenant's dropped_updates counts them).
	StreamBuffer int
	// Logger receives handler panics and client-gone notices (default
	// log.Default()).
	Logger *log.Logger
}

func (c Config) withDefaults() Config {
	if c.StreamWriteTimeout <= 0 {
		c.StreamWriteTimeout = 5 * time.Second
	}
	if c.StreamHeartbeat <= 0 {
		c.StreamHeartbeat = 15 * time.Second
	}
	if c.StreamBuffer <= 0 {
		c.StreamBuffer = 64
	}
	if c.Logger == nil {
		c.Logger = log.Default()
	}
	return c
}

// backend is one tenant's supervised engine as the handlers see it:
// the guard plus the current publication's report plane. It is
// replaced when the tenant's guard is (idle eviction and reopen,
// delete and recreate).
type backend struct {
	g *supervisor.Guard

	// plane is the wire bytes of the latest publication a read has
	// seen, keyed on (generation, seq).
	plane atomic.Pointer[publication]
}

// publication is one (generation, seq) publication's report plane.
type publication struct {
	gen, seq uint64
	*rpi.Plane
}

// HostServer is the HTTP facade over a tenant host. Reads take no
// engine lock and scale across connections; applies serialize behind
// the engine's write lock; all of it is bounded by admission
// control and survives engine faults via each tenant's supervisor.
type HostServer struct {
	adm *admission.Controller
	cfg Config
	mux *http.ServeMux
	h   *host.Host
	def string // default tenant for the short /v1 routes; "" disables them

	// bes holds one backend per tenant, replaced whenever the tenant's
	// guard changes (evict + reopen, delete + recreate).
	bes sync.Map // string -> *backend

	// panics counts handler panics absorbed by the recover middleware
	// (read-path bugs: the engine quarantine is the guard's job).
	panics atomic.Uint64
}

// NewHost builds the HTTP handler over a caller-owned host.
// defaultTenant, when non-empty, must name a tenant that exists (or
// will exist) in the host: the short /v1 routes alias to it and
// /readyz follows it.
func NewHost(h *host.Host, defaultTenant string, cfg Config) *HostServer {
	s := &HostServer{
		adm: admission.New(cfg.Admission), cfg: cfg.withDefaults(), mux: http.NewServeMux(),
		h: h, def: defaultTenant,
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)

	s.mux.HandleFunc("POST /v1/tenants", s.lifecycle(s.handleCreate))
	s.mux.HandleFunc("GET /v1/tenants", s.lifecycle(s.handleList))
	s.mux.HandleFunc("GET /v1/tenants/{tenant}", s.lifecycle(s.handleGet))
	s.mux.HandleFunc("DELETE /v1/tenants/{tenant}", s.lifecycle(s.handleDelete))

	report := func(w http.ResponseWriter, r *http.Request, be *backend) {
		s.report(w, r, be, r.PathValue("ixp"))
	}
	pathTenant := func(r *http.Request) string { return r.PathValue("tenant") }
	s.mux.HandleFunc("GET /v1/t/{tenant}/infer", s.forTenant(admission.Read, pathTenant, s.infer))
	s.mux.HandleFunc("GET /v1/t/{tenant}/report/{ixp}", s.forTenant(admission.Cheap, pathTenant, report))
	s.mux.HandleFunc("POST /v1/t/{tenant}/apply", s.forTenant(admission.Write, pathTenant, s.apply))
	s.mux.HandleFunc("GET /v1/t/{tenant}/stream", s.forTenant(admission.Stream, pathTenant, s.stream))

	if defaultTenant != "" {
		def := func(*http.Request) string { return defaultTenant }
		s.mux.HandleFunc("GET /v1/infer", s.forTenant(admission.Read, def, s.infer))
		s.mux.HandleFunc("GET /v1/report/{ixp}", s.forTenant(admission.Cheap, def, report))
		s.mux.HandleFunc("POST /v1/apply", s.forTenant(admission.Write, def, s.apply))
		s.mux.HandleFunc("GET /v1/stream", s.forTenant(admission.Stream, def, s.stream))
	}
	return s
}

// Host exposes the underlying tenant host (expvar publication,
// shutdown wiring in the serving binary).
func (s *HostServer) Host() *host.Host { return s.h }

// Admission exposes the admission controller (expvar publication).
func (s *HostServer) Admission() *admission.Controller { return s.adm }

// HandlerPanics returns the number of handler panics absorbed so far.
func (s *HostServer) HandlerPanics() uint64 { return s.panics.Load() }

// respWriter tracks whether the response has been committed, so the
// panic middleware knows if a 500 can still be sent, and unreachable
// clients can be detected. Unwrap keeps http.ResponseController (SSE
// flushes and write deadlines) working through the wrapper.
type respWriter struct {
	http.ResponseWriter
	wroteHeader bool
}

func (rw *respWriter) WriteHeader(code int) {
	rw.wroteHeader = true
	rw.ResponseWriter.WriteHeader(code)
}

func (rw *respWriter) Write(b []byte) (int, error) {
	rw.wroteHeader = true
	return rw.ResponseWriter.Write(b)
}

func (rw *respWriter) Unwrap() http.ResponseWriter { return rw.ResponseWriter }

// ServeHTTP implements http.Handler: no-store headers (every response
// reflects live, churning state), then the panic net, then the mux.
func (s *HostServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rw := &respWriter{ResponseWriter: w}
	rw.Header().Set("Cache-Control", "no-store")
	defer func() {
		if rec := recover(); rec != nil {
			if rec == http.ErrAbortHandler { //nolint:errorlint // sentinel by identity, per net/http docs
				panic(rec)
			}
			s.panics.Add(1)
			s.cfg.Logger.Printf("serve: panic in %s %s: %v", r.Method, r.URL.Path, rec)
			if !rw.wroteHeader {
				http.Error(rw, "internal error", http.StatusInternalServerError)
			}
		}
	}()
	s.mux.ServeHTTP(rw, r)
}

// admitted wraps a handler in the request deadline and admission
// control: the slot is held for the handler's whole run, and the
// request context carries the configured timeout so the deadline
// reaches the engine (streams are exempt from the timeout — they are
// supposed to be long-lived). name resolves the tenant the request is
// attributed to, which applies the per-tenant fairness cap; "" means
// no tenant (the control-plane endpoints). On a host with a single
// registered tenant the cap would protect nobody, so the request is
// admitted on the class gates alone, as a one-world server should be.
func (s *HostServer) admitted(cl admission.Class, name func(*http.Request) string, h func(http.ResponseWriter, *http.Request, string)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tn := name(r)
		if s.cfg.RequestTimeout > 0 && cl != admission.Stream {
			ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		attr := tn
		if s.h.Len() <= 1 {
			attr = ""
		}
		release, err := s.adm.AdmitTenant(r.Context(), cl, attr)
		if err != nil {
			s.writeError(w, r, err)
			return
		}
		defer release()
		h(w, r, tn)
	}
}

// forTenant is the per-tenant request spine: resolve the tenant name,
// apply the request deadline, pass shared admission with per-tenant
// fairness, take a host lease (first touch opens or recovers the
// engine — inside the admission slot, so cold starts are bounded by
// the class gate too), and hand the tenant's backend to the handler.
func (s *HostServer) forTenant(cl admission.Class, name func(*http.Request) string, fn func(http.ResponseWriter, *http.Request, *backend)) http.HandlerFunc {
	return s.admitted(cl, name, func(w http.ResponseWriter, r *http.Request, tn string) {
		lease, err := s.h.Lease(r.Context(), tn)
		if err != nil {
			s.writeError(w, r, err)
			return
		}
		defer lease.Release()
		fn(w, r, s.backendFor(tn, lease))
	})
}

// backendFor returns the tenant's backend — guard plus report plane —
// creating or replacing it when the guard changed (the tenant was
// evicted and reopened, or deleted and recreated). Matching on the
// guard pointer is what keeps cached bytes from ever crossing engine
// instances: a backend only serves requests whose lease holds the same
// guard it was built for.
func (s *HostServer) backendFor(tn string, lease *host.Lease) *backend {
	g := lease.Guard()
	if v, ok := s.bes.Load(tn); ok {
		if be := v.(*backend); be.g == g {
			return be
		}
	}
	be := &backend{g: g}
	s.bes.Store(tn, be)
	return be
}

// lifecycle wraps tenant-management endpoints: cheap-class admission,
// no tenant attribution (they are control plane, not tenant traffic).
func (s *HostServer) lifecycle(h http.HandlerFunc) http.HandlerFunc {
	noTenant := func(*http.Request) string { return "" }
	return s.admitted(admission.Cheap, noTenant, func(w http.ResponseWriter, r *http.Request, _ string) { h(w, r) })
}

func (s *HostServer) handleCreate(w http.ResponseWriter, r *http.Request) {
	var sp host.TenantSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		http.Error(w, fmt.Sprintf("bad tenant spec: %v", err), http.StatusBadRequest)
		return
	}
	if err := s.h.Create(sp); err != nil {
		s.writeError(w, r, err)
		return
	}
	s.writeJSON(w, http.StatusCreated, sp)
}

func (s *HostServer) handleList(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{"tenants": s.h.Tenants()})
}

func (s *HostServer) handleGet(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("tenant")
	st, ok := s.h.Status(name)
	if !ok {
		s.writeError(w, r, fmt.Errorf("%w: %q", host.ErrUnknownTenant, name))
		return
	}
	s.writeJSON(w, http.StatusOK, st)
}

func (s *HostServer) handleDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("tenant")
	purge := r.URL.Query().Get("purge") == "1"
	if err := s.h.Delete(name, purge); err != nil {
		s.writeError(w, r, err)
		return
	}
	// The tenant's admission attribution and cached backend go with it;
	// a recreated tenant starts from zero on both.
	s.adm.ForgetTenant(name)
	s.bes.Delete(name)
	w.WriteHeader(http.StatusNoContent)
}

// handleHealthz: host-level liveness — the process and registry are up.
func (s *HostServer) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{"ok": true, "tenants": len(s.h.Tenants())})
}

// handleReadyz: without a default tenant the host is ready as soon as
// its registry is loaded. With one, readiness follows that tenant: 200
// only while its engine is open and serving, 503 while it is cold
// (never opened, or evicted) or quarantined. The seq comes from the
// live guard.
func (s *HostServer) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.def == "" {
		s.writeJSON(w, http.StatusOK, map[string]any{"ready": true, "tenants": len(s.h.Tenants())})
		return
	}
	st, ok := s.h.Status(s.def)
	switch {
	case ok && st.State == "serving":
		s.writeJSON(w, http.StatusOK, map[string]any{"ready": true, "seq": st.AckedSeq})
	case ok && st.State == "quarantined":
		// Healing: stop routing new traffic here, but requests that do
		// arrive are answered from the last good snapshot.
		w.Header().Set("Retry-After", "1")
		s.writeJSON(w, http.StatusServiceUnavailable,
			map[string]any{"ready": false, "quarantined": true})
	default:
		w.Header().Set("Retry-After", "1")
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false})
	}
}

// plane returns the report plane of the tenant's current publication
// (the last good one while quarantined), building it on the first read
// of that publication. Concurrent misses encode the same publication to
// identical bytes; the last store wins, and all are correct.
func (s *HostServer) plane(r *http.Request, be *backend) (*rpi.Plane, error) {
	rep, gen, seq := be.g.Published()
	if p := be.plane.Load(); p != nil && p.gen == gen && p.seq == seq {
		return p.Plane, nil
	}
	p, err := rpi.BuildPlane(r.Context(), rep, be.g.IXPs())
	if err != nil {
		return nil, err
	}
	be.plane.Store(&publication{gen: gen, seq: seq, Plane: p})
	return p, nil
}

// infer serves the full wire report: the plane's slab.
func (s *HostServer) infer(w http.ResponseWriter, r *http.Request, be *backend) {
	p, err := s.plane(r, be)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(p.Full())
}

// report serves one IXP's wire report: a small header, the IXP's row
// range and router rows of the plane, and the closing bytes. An IXP
// off the roster is a 404.
func (s *HostServer) report(w http.ResponseWriter, r *http.Request, be *backend, ixp string) {
	p, err := s.plane(r, be)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	rep, ok := p.IXP(ixp)
	if !ok {
		s.writeError(w, r, fmt.Errorf("%w: %q", rpi.ErrUnknownIXP, ixp))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = rep.WriteTo(w)
}

// WireDelta is the JSON body of POST /v1/apply.
type WireDelta struct {
	Joins  []WireJoin `json:"joins,omitempty"`
	Leaves []WireKey  `json:"leaves,omitempty"`
	RTT    []WireRTT  `json:"rtt,omitempty"`
}

// WireJoin is one membership join.
type WireJoin struct {
	IXP      string `json:"ixp"`
	Iface    string `json:"iface"`
	ASN      uint32 `json:"asn"`
	PortMbps int    `json:"port_mbps,omitempty"`
}

// WireKey identifies one membership.
type WireKey struct {
	IXP   string `json:"ixp"`
	Iface string `json:"iface"`
}

// WireRTT is one refreshed RTT aggregate. VPID selects the measuring
// vantage point; when omitted the interface's current best VP is kept.
// Drop revokes the interface's measurement instead.
type WireRTT struct {
	Iface    string  `json:"iface"`
	RTTMinMs float64 `json:"rtt_min_ms"`
	VPID     *int    `json:"vp_id,omitempty"`
	RoundsUp bool    `json:"rounds_up,omitempty"`
	Drop     bool    `json:"drop,omitempty"`
}

func (s *HostServer) apply(w http.ResponseWriter, r *http.Request, be *backend) {
	var wd WireDelta
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&wd); err != nil {
		// Malformed JSON, unknown fields and an oversized body are all
		// the client's fault: 400, never 500. (MaxBytesReader surfaces
		// the size breach as *http.MaxBytesError through Decode.)
		http.Error(w, fmt.Sprintf("bad delta body: %v", err), http.StatusBadRequest)
		return
	}
	d, err := toDelta(be.g.Engine(), wd)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	up, err := be.g.Apply(r.Context(), d)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	s.writeJSON(w, http.StatusOK, up)
}

// toDelta resolves a wire delta against the engine's current state.
func toDelta(eng *rpi.Engine, wd WireDelta) (rpi.Delta, error) {
	var d rpi.Delta
	for _, j := range wd.Joins {
		ip, err := netip.ParseAddr(j.Iface)
		if err != nil {
			return d, fmt.Errorf("join: bad interface %q", j.Iface)
		}
		d.Joins = append(d.Joins, rpi.Join{
			IXP: j.IXP, Iface: ip, ASN: netsim.ASN(j.ASN), PortMbps: j.PortMbps,
		})
	}
	for _, l := range wd.Leaves {
		ip, err := netip.ParseAddr(l.Iface)
		if err != nil {
			return d, fmt.Errorf("leave: bad interface %q", l.Iface)
		}
		d.Leaves = append(d.Leaves, rpi.Key{IXP: l.IXP, Iface: ip})
	}
	if len(wd.RTT) == 0 {
		return d, nil
	}
	if eng.Inputs().Ping == nil {
		return d, fmt.Errorf("rtt: engine has no ping campaign")
	}
	d.Ping = make(map[netip.Addr]pingsim.IfaceAgg, len(wd.RTT))
	for _, u := range wd.RTT {
		ip, err := netip.ParseAddr(u.Iface)
		if err != nil {
			return d, fmt.Errorf("rtt: bad interface %q", u.Iface)
		}
		if u.Drop {
			d.Ping[ip] = pingsim.IfaceAgg{RTTMinMs: math.NaN()}
			continue
		}
		if u.RTTMinMs <= 0 || math.IsInf(u.RTTMinMs, 0) || math.IsNaN(u.RTTMinMs) {
			return d, fmt.Errorf("rtt: %s: rtt_min_ms must be positive (got %v); use drop to revoke", ip, u.RTTMinMs)
		}
		// A nil BestVP means "keep the interface's current best VP";
		// the engine resolves it under the apply lock, so a concurrent
		// apply cannot slip between resolution and application.
		var vp *pingsim.VP
		if u.VPID != nil {
			var ok bool
			if vp, ok = eng.VP(*u.VPID); !ok {
				return d, fmt.Errorf("rtt: unknown vp_id %d", *u.VPID)
			}
		}
		d.Ping[ip] = pingsim.IfaceAgg{
			RTTMinMs: u.RTTMinMs, BestVP: vp,
			BestRoundsUp: u.RoundsUp, AnyRounding: u.RoundsUp,
		}
	}
	return d, nil
}

// streamEvent is the SSE hello/reset payload.
type streamEvent struct {
	Seq        uint64 `json:"seq"`
	Generation uint64 `json:"generation"`
}

// stream serves /v1/stream: server-sent events carrying verdict
// changes as deltas land. Consecutive updates a slow reader has not
// consumed are coalesced into one batch write; a reader that cannot
// drain a batch within StreamWriteTimeout is disconnected (and the
// engine sheds its oldest pending updates meanwhile — the server never
// blocks on a stalled consumer). An engine swap (quarantine recovery)
// closes the stream with a "reset" event: resynchronize from /v1/infer
// and resubscribe.
func (s *HostServer) stream(w http.ResponseWriter, r *http.Request, be *backend) {
	eng := be.g.Engine()
	gen := be.g.Generation()
	updates, cancel := eng.Subscribe(s.cfg.StreamBuffer)
	defer cancel()

	rc := http.NewResponseController(w)
	w.Header().Set("Content-Type", "text/event-stream")
	w.WriteHeader(http.StatusOK)
	if err := s.sseWrite(rc, w, "hello", streamEvent{Seq: eng.Seq(), Generation: gen}); err != nil {
		return
	}

	heartbeat := time.NewTicker(s.cfg.StreamHeartbeat)
	defer heartbeat.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-heartbeat.C:
			// A comment line: keeps NATs and proxies from reaping the
			// connection, and detects dead clients on idle streams.
			_ = rc.SetWriteDeadline(time.Now().Add(s.cfg.StreamWriteTimeout))
			if _, err := io.WriteString(w, ": keep-alive\n\n"); err != nil {
				return
			}
			if err := rc.Flush(); err != nil {
				return
			}
		case up, ok := <-updates:
			if !ok {
				// Engine closed or quarantined underneath us.
				_ = s.sseWrite(rc, w, "reset", streamEvent{Generation: be.g.Generation()})
				return
			}
			batch := []rpi.Update{up}
			closed := false
		coalesce:
			for len(batch) < 16 {
				select {
				case more, ok := <-updates:
					if !ok {
						closed = true
						break coalesce
					}
					batch = append(batch, more)
				default:
					break coalesce
				}
			}
			if err := s.sseWrite(rc, w, "updates", batch); err != nil {
				return
			}
			if closed {
				_ = s.sseWrite(rc, w, "reset", streamEvent{Generation: be.g.Generation()})
				return
			}
		}
	}
}

// sseWrite emits one SSE event under the stream write deadline.
func (s *HostServer) sseWrite(rc *http.ResponseController, w http.ResponseWriter, event string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_ = rc.SetWriteDeadline(time.Now().Add(s.cfg.StreamWriteTimeout))
	if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, b); err != nil {
		return err
	}
	return rc.Flush()
}

func (s *HostServer) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError maps SDK, admission, supervisor and host errors to HTTP
// statuses. Cancellation is special-cased: when the caller is already
// gone there is nobody to answer, so it is logged and recorded as the
// 499 convention instead of surfacing as a fake 500.
func (s *HostServer) writeError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, rpi.ErrCanceled),
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		s.cfg.Logger.Printf("serve: %s %s abandoned: %v", r.Method, r.URL.Path, err)
		w.WriteHeader(StatusClientClosedRequest)
		return
	}
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, rpi.ErrUnknownIXP),
		errors.Is(err, host.ErrUnknownTenant):
		status = http.StatusNotFound
	case errors.Is(err, host.ErrTenantExists):
		status = http.StatusConflict
	case errors.Is(err, host.ErrBadTenantName),
		errors.Is(err, host.ErrTooManyTenants):
		status = http.StatusBadRequest
	case errors.Is(err, rpi.ErrBadDelta):
		status = http.StatusUnprocessableEntity
	case errors.Is(err, admission.ErrOverloaded),
		errors.Is(err, supervisor.ErrQuarantined),
		errors.Is(err, host.ErrHostClosed),
		errors.Is(err, rpi.ErrClosed),
		errors.Is(err, rpi.ErrPersistence):
		// Transient serving-plane states: shed load, a healing engine,
		// a closing host or engine, or a log that can no longer promise
		// durability. All of them clear up (or at worst persist) without
		// the client changing its request: retry shortly.
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "1")
	}
	http.Error(w, err.Error(), status)
}
