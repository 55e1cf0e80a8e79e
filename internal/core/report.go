package core

import (
	"cmp"
	"iter"
	"net/netip"
	"slices"
	"sort"
	"strings"
	"sync"

	"rpeer/internal/ident"
	"rpeer/internal/netsim"
)

// Report is the pipeline output: one verdict per membership of the
// inference domain, plus the classified multi-IXP routers.
//
// A report a Context builds keeps its verdicts as columns in domain
// order — IXP name, then interface address, ascending — over one
// version of the context's domain, which supplies each row's IXP,
// address and ASN. A row costs its class, step, feasible-facility
// count, RTT minimum and trace-RTT bit; there is no per-membership map
// or struct. Read the rows through Len, At, Class, Lookup, IXPRange
// and All.
//
// A report is immutable once returned and safe for concurrent reads.
// Apply builds a new domain version rather than patching the one
// earlier reports hold, the columns carry their own copy of each row's
// RTT, and later runs copy rows out of a report, never into it. Its
// MultiRouters are shared with later reports and equally read-only.
//
// Inferences is only the literal form of a hand-built report: a
// Context never fills it. The accessors normalize a literal report
// once, on first use, into the same columns (the map's Key is
// authoritative for IXP and address); edits made to the map after that
// first read are not seen.
type Report struct {
	// Inferences maps each membership of a hand-built report to its
	// verdict. It is empty on every report a Context returns.
	Inferences map[Key]*Inference
	// MultiRouters lists the classified multi-IXP routers (Fig 9d).
	MultiRouters []*MultiIXPRouter

	// v holds a context-built report's columns. It is nil for a literal
	// report, whose columns lit are built under litOnce.
	v       *verdicts
	litOnce sync.Once
	lit     *verdicts
	// gen is the context's delta generation the report reflects (see
	// Context.Run).
	gen uint64
}

// verdicts is a report's columns, row i describing the membership of
// dom.rows[i].
type verdicts struct {
	dom   *domView
	class []PeerClass
	step  []Step
	// feas counts the IXP facilities inside Step 3's feasible ring (-1
	// when Step 3 did not decide the ring); rtt is the RTT minimum (NaN
	// when unmeasured); trace marks RTTs derived from traceroutes.
	feas  []int32
	rtt   []float64
	trace ident.Bits
}

// newVerdicts allocates the columns of a report over dom.
func newVerdicts(dom *domView) *verdicts {
	n := len(dom.rows)
	return &verdicts{
		dom: dom, class: make([]PeerClass, n), step: make([]Step, n),
		feas: make([]int32, n), rtt: make([]float64, n),
	}
}

// reset writes row i's all-unknown verdict with RTT minimum rtt (NaN:
// unmeasured) — the one definition of a fresh row, shared by Run and
// Baseline.
func (v *verdicts) reset(i int, rtt float64) {
	v.class[i], v.step[i], v.feas[i], v.rtt[i] = ClassUnknown, StepNone, -1, rtt
	v.trace.Clear(uint32(i))
}

// decide records row i's verdict.
func (v *verdicts) decide(i int, c PeerClass, s Step) {
	v.class[i], v.step[i] = c, s
}

// at materializes row i.
func (v *verdicts) at(i int) Inference {
	d := v.dom
	e := d.rows[i]
	return Inference{
		IXP: d.names[e.ixp], Iface: d.addrs.At(e.iface), ASN: d.asns[e.member],
		Class: v.class[i], Step: v.step[i], RTTMinMs: v.rtt[i],
		FeasibleIXPFacilities: int(v.feas[i]), TraceRTT: v.trace.Get(uint32(i)),
	}
}

// copyRow copies row j of src into row i.
func (v *verdicts) copyRow(i int, src *verdicts, j int) {
	v.class[i], v.step[i], v.feas[i], v.rtt[i] = src.class[j], src.step[j], src.feas[j], src.rtt[j]
	if src.trace.Get(uint32(j)) {
		v.trace.Set(uint32(i))
	}
}

// domView is one version of the inference domain as reports see it:
// the rows in domain order, each naming its interface, member and IXP
// by interned ID, the rows' offsets per IXP, and views of the ID
// columns that name them. A view is never written after it is built;
// Apply's membership patches build a new one. The ID columns are the
// intern table's append-only arrays, captured at build time, so a view
// reads them safely while the table keeps growing.
type domView struct {
	rows []domEntry
	// ixpOff[x]:ixpOff[x+1] are the rows of IXP x.
	ixpOff []int32
	addrs  ident.Addrs  // IfaceID -> address
	asns   []netsim.ASN // MemberID -> AS number
	names  []string     // IXPID -> name, ascending
	// space identifies the ID space the rows index, so rows of two
	// views of one context compare by ID; nil for a literal report's
	// view, whose IDs are its own. It is compared, never read.
	space *ident.Table
}

// newDomView captures a context domain version over the intern table.
func newDomView(rows []domEntry, ids *ident.Table) *domView {
	return &domView{
		rows: rows, ixpOff: ixpOffsets(rows, ids.NumIXPs()),
		addrs: ids.Ifaces(), asns: ids.ASNs(), names: ids.IXPNames(), space: ids,
	}
}

// ixpOffsets counts rows (in IXP order) into per-IXP offsets.
func ixpOffsets(rows []domEntry, nixps int) []int32 {
	off := make([]int32, nixps+1)
	for _, e := range rows {
		off[e.ixp+1]++
	}
	for x := 1; x <= nixps; x++ {
		off[x] += off[x-1]
	}
	return off
}

// ixpRange returns the rows of the named IXP, [lo, hi).
func (d *domView) ixpRange(name string) (lo, hi int) {
	x, ok := slices.BinarySearch(d.names, name)
	if !ok {
		return 0, 0
	}
	return int(d.ixpOff[x]), int(d.ixpOff[x+1])
}

// find returns the row of membership k.
func (d *domView) find(k Key) (int, bool) {
	lo, hi := d.ixpRange(k.IXP)
	i := lo + sort.Search(hi-lo, func(j int) bool { return d.addrs.At(d.rows[lo+j].iface).Compare(k.Iface) >= 0 })
	return i, i < hi && d.addrs.At(d.rows[i].iface) == k.Iface
}

// compareRows orders row i of a against row j of b in domain order.
// Over one ID space the IXP IDs decide (interned IXP order is name
// order) and equal interface IDs mean the same row; only distinct
// interfaces of one IXP compare addresses.
func compareRows(a *domView, i int, b *domView, j int) int {
	x, y := a.rows[i], b.rows[j]
	if a.space != nil && a.space == b.space {
		if x.ixp != y.ixp {
			return cmp.Compare(x.ixp, y.ixp)
		}
		if x.iface == y.iface {
			return 0
		}
	} else if c := strings.Compare(a.names[x.ixp], b.names[y.ixp]); c != 0 {
		return c
	}
	return a.addrs.At(x.iface).Compare(b.addrs.At(y.iface))
}

// literalVerdicts normalizes a hand-built report's map into columns
// over a view of its own: rows sorted into domain order, each with a
// private interface and member ID.
func literalVerdicts(m map[Key]*Inference) *verdicts {
	keys := make([]Key, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b Key) int {
		return cmp.Or(strings.Compare(a.IXP, b.IXP), a.Iface.Compare(b.Iface))
	})
	d := &domView{rows: make([]domEntry, len(keys)), asns: make([]netsim.ASN, len(keys))}
	addrs := make([]netip.Addr, len(keys))
	for i, k := range keys {
		if len(d.names) == 0 || d.names[len(d.names)-1] != k.IXP {
			d.names = append(d.names, k.IXP)
		}
		d.rows[i] = domEntry{iface: ident.IfaceID(i), member: ident.MemberID(i), ixp: ident.IXPID(len(d.names) - 1)}
		addrs[i], d.asns[i] = k.Iface, m[k].ASN
	}
	d.addrs = ident.AddrsOf(addrs)
	d.ixpOff = ixpOffsets(d.rows, len(d.names))
	v := newVerdicts(d)
	for i, k := range keys {
		inf := m[k]
		v.class[i], v.step[i], v.feas[i], v.rtt[i] = inf.Class, inf.Step, int32(inf.FeasibleIXPFacilities), inf.RTTMinMs
		if inf.TraceRTT {
			v.trace.Set(uint32(i))
		}
	}
	return v
}

// cols returns the report's columns, normalizing a literal report on
// first use.
func (r *Report) cols() *verdicts {
	if r.v != nil {
		return r.v
	}
	r.litOnce.Do(func() { r.lit = literalVerdicts(r.Inferences) })
	return r.lit
}

// Len returns the number of memberships in the report.
func (r *Report) Len() int { return len(r.cols().class) }

// At returns the i-th membership's verdict in domain order (IXP name,
// then interface address), 0 <= i < Len.
func (r *Report) At(i int) Inference { return r.cols().at(i) }

// Class returns the i-th membership's verdict class without
// materializing its row (At does), for readers that only count.
func (r *Report) Class(i int) PeerClass { return r.cols().class[i] }

// Lookup returns the verdict of one membership, by binary search in
// domain order.
func (r *Report) Lookup(k Key) (Inference, bool) {
	v := r.cols()
	i, ok := v.dom.find(k)
	if !ok {
		return Inference{}, false
	}
	return v.at(i), true
}

// IXPRange returns the rows [lo, hi) of the named IXP: the domain
// order keeps each IXP's memberships contiguous. lo == hi when the
// report has none.
func (r *Report) IXPRange(name string) (lo, hi int) { return r.cols().dom.ixpRange(name) }

// All iterates the report's rows in domain order, with their indexes.
func (r *Report) All() iter.Seq2[int, Inference] {
	return func(yield func(int, Inference) bool) {
		v := r.cols()
		for i := range v.class {
			if !yield(i, v.at(i)) {
				return
			}
		}
	}
}

// ForIXP returns one IXP's verdicts: a report over its row range and
// the multi-IXP routers present there.
func (r *Report) ForIXP(name string) *Report {
	lo, hi := r.IXPRange(name)
	out := r.subset(lo, hi)
	for _, rt := range r.MultiRouters {
		if slices.Contains(rt.IXPs, name) {
			out.MultiRouters = append(out.MultiRouters, rt)
		}
	}
	return out
}

// subset returns a report (without routers) over the rows [lo, hi).
func (r *Report) subset(lo, hi int) *Report {
	v := r.cols()
	d := v.dom
	sub := &domView{addrs: d.addrs, asns: d.asns, names: d.names, space: d.space}
	out := &verdicts{dom: sub}
	for i := lo; i < hi; i++ {
		sub.rows = append(sub.rows, d.rows[i])
		out.class = append(out.class, v.class[i])
		out.step = append(out.step, v.step[i])
		out.feas = append(out.feas, v.feas[i])
		out.rtt = append(out.rtt, v.rtt[i])
		if v.trace.Get(uint32(i)) {
			out.trace.Set(uint32(len(out.class) - 1))
		}
	}
	sub.ixpOff = ixpOffsets(sub.rows, len(d.names))
	return &Report{v: out, gen: r.gen}
}

// DiffVerdicts calls fn for every membership whose verdict (class or
// step) differs between old and new: o is nil for a membership only
// new has, n nil for one only old has. The diff is one merge over the
// two reports' rows in domain order, so fn sees the changes in (IXP,
// interface address) order; two reports of one context compare their
// rows by interned ID.
func DiffVerdicts(old, new *Report, fn func(k Key, o, n *Inference)) {
	a, b := old.cols(), new.cols()
	i, j := 0, 0
	for i < len(a.class) || j < len(b.class) {
		c := 0
		switch {
		case i == len(a.class):
			c = 1
		case j == len(b.class):
			c = -1
		default:
			c = compareRows(a.dom, i, b.dom, j)
		}
		switch {
		case c < 0:
			o := a.at(i)
			fn(Key{IXP: o.IXP, Iface: o.Iface}, &o, nil)
			i++
		case c > 0:
			n := b.at(j)
			fn(Key{IXP: n.IXP, Iface: n.Iface}, nil, &n)
			j++
		default:
			if a.class[i] != b.class[j] || a.step[i] != b.step[j] {
				o, n := a.at(i), b.at(j)
				fn(Key{IXP: n.IXP, Iface: n.Iface}, &o, &n)
			}
			i++
			j++
		}
	}
}

// StepShare returns, per IXP, the fraction of decided inferences made
// by each step (Fig 10a).
func (r *Report) StepShare() map[string]map[Step]float64 {
	v := r.cols()
	d := v.dom
	out := make(map[string]map[Step]float64)
	for x, name := range d.names {
		var counts [256]int
		total := 0
		for i := d.ixpOff[x]; i < d.ixpOff[x+1]; i++ {
			if v.class[i] != ClassUnknown {
				counts[v.step[i]]++
				total++
			}
		}
		if total == 0 {
			continue
		}
		fr := make(map[Step]float64)
		for s, n := range counts {
			if n > 0 {
				fr[Step(s)] = float64(n) / float64(total)
			}
		}
		out[name] = fr
	}
	return out
}
