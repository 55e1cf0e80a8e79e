package rpi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/netip"
	"slices"
	"sort"
	"strconv"

	"rpeer/internal/core"
)

// WireVersion is the current report wire-schema version. The golden
// test in wire_test.go pins the serialized form: any schema change
// must bump this constant and regenerate the golden on purpose.
const WireVersion = 1

// WireReport is the versioned JSON form of a Report. Inferences are
// ordered by (IXP, interface) and routers by (ASN, first interface),
// so marshalling is deterministic: two equal reports produce identical
// bytes.
type WireReport struct {
	Version int         `json:"version"`
	Summary WireSummary `json:"summary"`
	// Inferences holds one entry per known membership.
	Inferences []WireInference `json:"inferences"`
	// Routers lists the classified multi-IXP routers.
	Routers []WireRouter `json:"multi_ixp_routers,omitempty"`
}

// WireSummary is the headline verdict count.
type WireSummary struct {
	Total   int `json:"total"`
	Local   int `json:"local"`
	Remote  int `json:"remote"`
	Unknown int `json:"unknown"`
}

// WireInference is one membership verdict on the wire.
type WireInference struct {
	IXP   string `json:"ixp"`
	Iface string `json:"iface"`
	ASN   uint32 `json:"asn"`
	Class string `json:"class"`
	Step  string `json:"step,omitempty"`
	// RTTMinMs is omitted for unmeasured interfaces (JSON has no NaN).
	RTTMinMs *float64 `json:"rtt_min_ms,omitempty"`
	// FeasibleIXPFacilities is omitted when Step 3 did not run.
	FeasibleIXPFacilities *int `json:"feasible_ixp_facilities,omitempty"`
	TraceRTT              bool `json:"trace_rtt,omitempty"`
}

// WireRouter is one multi-IXP router on the wire.
type WireRouter struct {
	ASN    uint32   `json:"asn"`
	Ifaces []string `json:"ifaces"`
	IXPs   []string `json:"ixps"`
	Class  string   `json:"class"`
}

// ToWire converts a report to its wire form.
func ToWire(rep *Report) *WireReport {
	w := &WireReport{Version: WireVersion}
	w.Inferences = make([]WireInference, 0, len(rep.Inferences))
	for k, inf := range rep.Inferences {
		wi := WireInference{
			IXP:   k.IXP,
			Iface: k.Iface.String(),
			ASN:   uint32(inf.ASN),
			Class: inf.Class.String(),
			Step:  stepName(inf.Step),
		}
		if !math.IsNaN(inf.RTTMinMs) {
			v := inf.RTTMinMs
			wi.RTTMinMs = &v
		}
		if inf.FeasibleIXPFacilities >= 0 {
			v := inf.FeasibleIXPFacilities
			wi.FeasibleIXPFacilities = &v
		}
		wi.TraceRTT = inf.TraceRTT
		w.Inferences = append(w.Inferences, wi)
		switch inf.Class {
		case core.ClassLocal:
			w.Summary.Local++
		case core.ClassRemote:
			w.Summary.Remote++
		default:
			w.Summary.Unknown++
		}
	}
	w.Summary.Total = len(w.Inferences)
	sort.Slice(w.Inferences, func(i, j int) bool {
		if w.Inferences[i].IXP != w.Inferences[j].IXP {
			return w.Inferences[i].IXP < w.Inferences[j].IXP
		}
		return w.Inferences[i].Iface < w.Inferences[j].Iface
	})
	for _, r := range rep.MultiRouters {
		wr := WireRouter{ASN: uint32(r.ASN), Class: r.Class.String()}
		for _, ip := range r.Ifaces {
			wr.Ifaces = append(wr.Ifaces, ip.String())
		}
		wr.IXPs = append(wr.IXPs, r.IXPs...)
		w.Routers = append(w.Routers, wr)
	}
	sort.Slice(w.Routers, func(i, j int) bool {
		if w.Routers[i].ASN != w.Routers[j].ASN {
			return w.Routers[i].ASN < w.Routers[j].ASN
		}
		return w.Routers[i].Ifaces[0] < w.Routers[j].Ifaces[0]
	})
	return w
}

// MarshalReport serializes a report to the versioned JSON wire form.
// The output is deterministic: equal reports marshal to equal bytes
// (the rpi-serve API contract, pinned by the golden test).
func MarshalReport(rep *Report) ([]byte, error) {
	return json.MarshalIndent(ToWire(rep), "", " ")
}

// UnmarshalReport parses a wire report, rejecting unknown schema
// versions with ErrWireVersion.
func UnmarshalReport(b []byte) (*WireReport, error) {
	var w WireReport
	if err := json.Unmarshal(b, &w); err != nil {
		return nil, fmt.Errorf("rpi: parse wire report: %w", err)
	}
	if w.Version != WireVersion {
		return nil, fmt.Errorf("%w: got %d, support %d", ErrWireVersion, w.Version, WireVersion)
	}
	return &w, nil
}

// Plane is one report's /v1 wire bytes, encoded once. The full report
// is one slab, byte-identical to MarshalReport. Every roster IXP has
// its verdict counts, the byte range of its inference rows inside the
// slab, and the indexes of its multi-IXP router rows, so its report is
// a small header plus ranges of the slab, byte-identical to
// MarshalReport of FilterIXP. A Plane is immutable and safe for
// concurrent use.
type Plane struct {
	full    []byte
	ixps    map[string]*planeIXP
	routers []span // router rows inside full, in wire order
}

// span is a byte range [lo, hi) of a plane's slab.
type span struct{ lo, hi int }

// planeIXP is one roster IXP's slice of a plane.
type planeIXP struct {
	head    []byte // version, summary and the opening of the inference list
	rows    span   // empty for an IXP without rows
	routers []int  // indexes into Plane.routers
}

// The fixed bytes between a per-IXP report's pieces, as MarshalIndent
// lays them out with a one-space indent.
var (
	rowSep      = []byte(",\n")
	rowsClose   = []byte("\n ]")
	routersOpen = []byte(",\n \"multi_ixp_routers\": [\n")
	reportClose = []byte("\n}")
)

// BuildPlane encodes rep under the IXP roster (Engine.IXPs). An IXP on
// the roster without rows still gets an entry, whose report lists no
// inferences; rows of IXPs off the roster are in the full slab only.
// The encoder checks ctx before it starts and before each IXP's rows,
// so a caller that is already gone gets ErrCanceled instead of the
// slab.
func BuildPlane(ctx context.Context, rep *Report, roster []string) (*Plane, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	enc := planeEncoder{quoted: make(map[string][]byte)}
	rows := rep.Rows()
	p := &Plane{ixps: make(map[string]*planeIXP, len(roster))}
	for _, name := range roster {
		p.ixps[name] = &planeIXP{}
	}
	var all WireSummary
	for i := range rows {
		all.count(rows[i].Class)
	}

	// An indented row takes ~170 bytes, a router row ~200.
	b := make([]byte, 0, 512+len(rows)*176+len(rep.MultiRouters)*224)
	b = appendHead(b, all)
	for lo := 0; lo < len(rows); {
		hi := lo + 1
		for hi < len(rows) && rows[hi].IXP == rows[lo].IXP {
			hi++
		}
		if lo > 0 {
			b = append(b, rowSep...)
			if err := ctxErr(ctx); err != nil {
				return nil, err
			}
		}
		start := len(b)
		var err error
		if b, err = enc.appendRows(b, rows[lo:hi]); err != nil {
			return nil, err
		}
		if ix := p.ixps[rows[lo].IXP]; ix != nil {
			var sum WireSummary
			for i := lo; i < hi; i++ {
				sum.count(rows[i].Class)
			}
			ix.head, ix.rows = appendHead(nil, sum), span{start, len(b)}
		}
		lo = hi
	}
	if len(rows) > 0 {
		b = append(b, rowsClose...)
	}

	if len(rep.MultiRouters) > 0 {
		b = append(b, routersOpen...)
		for i, r := range sortRouters(rep.MultiRouters) {
			if i > 0 {
				b = append(b, rowSep...)
			}
			start := len(b)
			b = enc.appendRouter(b, r)
			p.routers = append(p.routers, span{start, len(b)})
			for _, name := range r.IXPs {
				ix := p.ixps[name]
				if ix != nil && (len(ix.routers) == 0 || ix.routers[len(ix.routers)-1] != i) {
					ix.routers = append(ix.routers, i)
				}
			}
		}
		b = append(b, rowsClose...)
	}
	p.full = append(b, reportClose...)

	for _, ix := range p.ixps {
		if ix.head == nil {
			ix.head = appendHead(nil, WireSummary{})
		}
	}
	return p, nil
}

// Full returns the full report's bytes, byte-identical to
// MarshalReport of the report the plane was built from. The slice is
// shared: read-only.
func (p *Plane) Full() []byte { return p.full }

// IXP returns one roster IXP's report; ok is false for an IXP off the
// roster.
func (p *Plane) IXP(name string) (r IXPReport, ok bool) {
	ix := p.ixps[name]
	return IXPReport{p, ix}, ix != nil
}

// IXPReport is one roster IXP's report inside a plane: written out it
// is byte-identical to MarshalReport of FilterIXP. It writes a small
// header, the IXP's row range and router rows of the slab, and the
// closing bytes.
type IXPReport struct {
	p  *Plane
	ix *planeIXP
}

// WriteTo writes the report to w.
func (r IXPReport) WriteTo(w io.Writer) (n int64, err error) {
	write := func(b []byte) {
		if err == nil {
			var m int
			m, err = w.Write(b)
			n += int64(m)
		}
	}
	ix, full := r.ix, r.p.full
	write(ix.head)
	if ix.rows.hi > ix.rows.lo {
		write(full[ix.rows.lo:ix.rows.hi])
		write(rowsClose)
	}
	if len(ix.routers) > 0 {
		write(routersOpen)
		for i, k := range ix.routers {
			if i > 0 {
				write(rowSep)
			}
			write(full[r.p.routers[k].lo:r.p.routers[k].hi])
		}
		write(rowsClose)
	}
	write(reportClose)
	return n, err
}

// count adds one verdict to the summary, as ToWire counts it.
func (s *WireSummary) count(c PeerClass) {
	s.Total++
	switch c {
	case core.ClassLocal:
		s.Local++
	case core.ClassRemote:
		s.Remote++
	default:
		s.Unknown++
	}
}

// appendHead appends a report's version, summary and the opening of
// its inference list: "[\n" before rows, "[]" when there are none.
func appendHead(b []byte, sum WireSummary) []byte {
	b = append(b, "{\n \"version\": "...)
	b = strconv.AppendInt(b, WireVersion, 10)
	b = append(b, ",\n \"summary\": {\n  \"total\": "...)
	b = strconv.AppendInt(b, int64(sum.Total), 10)
	b = append(b, ",\n  \"local\": "...)
	b = strconv.AppendInt(b, int64(sum.Local), 10)
	b = append(b, ",\n  \"remote\": "...)
	b = strconv.AppendInt(b, int64(sum.Remote), 10)
	b = append(b, ",\n  \"unknown\": "...)
	b = strconv.AppendInt(b, int64(sum.Unknown), 10)
	if sum.Total == 0 {
		return append(b, "\n },\n \"inferences\": []"...)
	}
	return append(b, "\n },\n \"inferences\": [\n"...)
}

// planeEncoder holds the scratch state of one BuildPlane.
type planeEncoder struct {
	// quoted memoizes JSON-encoded strings (IXP names, classes, steps)
	// so each is escaped once, by encoding/json itself; class and step
	// index the class and step names by value.
	quoted      map[string][]byte
	class, step [256][]byte
	keys        []byte   // one IXP's interface strings, unquoted, back to back
	order       []rowKey // one IXP's rows in wire order
}

// rowKey is one row of an IXP and its interface string, keys[lo:hi].
type rowKey struct{ lo, hi, row int32 }

// quote returns s as a JSON string, escaped exactly as MarshalIndent
// escapes it.
func (enc *planeEncoder) quote(s string) []byte {
	q, ok := enc.quoted[s]
	if !ok {
		q, _ = json.Marshal(s) // a string always encodes
		enc.quoted[s] = q
	}
	return q
}

// classJSON returns a class name as a JSON string.
func (enc *planeEncoder) classJSON(c PeerClass) []byte {
	if enc.class[c] == nil {
		enc.class[c] = enc.quote(c.String())
	}
	return enc.class[c]
}

// stepJSON returns a step name as a JSON string.
func (enc *planeEncoder) stepJSON(s Step) []byte {
	if enc.step[s] == nil {
		enc.step[s] = enc.quote(s.String())
	}
	return enc.step[s]
}

// appendAddr appends an interface address as its JSON string.
func (enc *planeEncoder) appendAddr(b []byte, ip netip.Addr) []byte {
	if ip.Zone() != "" {
		return append(b, enc.quote(ip.String())...)
	}
	b = append(b, '"')
	b = ip.AppendTo(b)
	return append(b, '"')
}

// appendRows appends one IXP's rows, joined by ",\n". The domain
// orders them by address, the wire by interface string, so they are
// re-sorted by that string first.
func (enc *planeEncoder) appendRows(b []byte, rows []Inference) ([]byte, error) {
	enc.keys, enc.order = enc.keys[:0], enc.order[:0]
	for i := range rows {
		lo := len(enc.keys)
		enc.keys = rows[i].Iface.AppendTo(enc.keys)
		enc.order = append(enc.order, rowKey{int32(lo), int32(len(enc.keys)), int32(i)})
	}
	slices.SortFunc(enc.order, func(x, y rowKey) int {
		return bytes.Compare(enc.keys[x.lo:x.hi], enc.keys[y.lo:y.hi])
	})
	ixp := enc.quote(rows[0].IXP)
	for n, k := range enc.order {
		if n > 0 {
			b = append(b, rowSep...)
		}
		inf := &rows[k.row]
		b = append(b, "  {\n   \"ixp\": "...)
		b = append(b, ixp...)
		b = append(b, ",\n   \"iface\": "...)
		if inf.Iface.Zone() != "" {
			b = enc.appendAddr(b, inf.Iface)
		} else {
			b = append(b, '"')
			b = append(b, enc.keys[k.lo:k.hi]...)
			b = append(b, '"')
		}
		b = append(b, ",\n   \"asn\": "...)
		b = strconv.AppendUint(b, uint64(uint32(inf.ASN)), 10)
		b = append(b, ",\n   \"class\": "...)
		b = append(b, enc.classJSON(inf.Class)...)
		if inf.Step != core.StepNone {
			b = append(b, ",\n   \"step\": "...)
			b = append(b, enc.stepJSON(inf.Step)...)
		}
		if !math.IsNaN(inf.RTTMinMs) {
			if math.IsInf(inf.RTTMinMs, 0) {
				return nil, fmt.Errorf("rpi: %s/%s: unsupported RTT %v", inf.IXP, inf.Iface, inf.RTTMinMs)
			}
			b = append(b, ",\n   \"rtt_min_ms\": "...)
			b = appendFloat(b, inf.RTTMinMs)
		}
		if inf.FeasibleIXPFacilities >= 0 {
			b = append(b, ",\n   \"feasible_ixp_facilities\": "...)
			b = strconv.AppendInt(b, int64(inf.FeasibleIXPFacilities), 10)
		}
		if inf.TraceRTT {
			b = append(b, ",\n   \"trace_rtt\": true"...)
		}
		b = append(b, "\n  }"...)
	}
	return b, nil
}

// sortRouters returns the routers in wire order: by ASN, then first
// interface string.
func sortRouters(rs []*MultiIXPRouter) []*MultiIXPRouter {
	first := func(r *MultiIXPRouter) string {
		if len(r.Ifaces) == 0 {
			return ""
		}
		return r.Ifaces[0].String()
	}
	out := append([]*MultiIXPRouter(nil), rs...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].ASN != out[j].ASN {
			return out[i].ASN < out[j].ASN
		}
		return first(out[i]) < first(out[j])
	})
	return out
}

// appendRouter appends one router row.
func (enc *planeEncoder) appendRouter(b []byte, r *MultiIXPRouter) []byte {
	b = append(b, "  {\n   \"asn\": "...)
	b = strconv.AppendUint(b, uint64(uint32(r.ASN)), 10)
	b = append(b, ",\n   \"ifaces\": "...)
	if len(r.Ifaces) == 0 {
		b = append(b, "null"...)
	} else {
		b = append(b, "[\n"...)
		for i, ip := range r.Ifaces {
			if i > 0 {
				b = append(b, rowSep...)
			}
			b = append(b, "    "...)
			b = enc.appendAddr(b, ip)
		}
		b = append(b, "\n   ]"...)
	}
	b = append(b, ",\n   \"ixps\": "...)
	if len(r.IXPs) == 0 {
		b = append(b, "null"...)
	} else {
		b = append(b, "[\n"...)
		for i, name := range r.IXPs {
			if i > 0 {
				b = append(b, rowSep...)
			}
			b = append(b, "    "...)
			b = append(b, enc.quote(name)...)
		}
		b = append(b, "\n   ]"...)
	}
	b = append(b, ",\n   \"class\": "...)
	b = append(b, enc.quote(r.Class.String())...)
	return append(b, "\n  }"...)
}

// appendFloat formats a finite float64 exactly as encoding/json does:
// 'f' form, or 'e' form outside [1e-6, 1e21) with a two-digit negative
// exponent shortened (e-07 becomes e-7).
func appendFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}
