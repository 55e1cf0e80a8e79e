// Package ident is the interning layer of the inference substrate: it
// assigns dense integer identities to the entities the pipeline keeps
// referring to — interface addresses, member ASes, colocation
// facilities and IXPs — so that every layer above it can store its
// state in ID-indexed columns instead of hash maps.
//
// The paper's methodology runs over hundreds of thousands of member
// interfaces; before interning, the hot paths were dominated by
// map[netip.Addr] and map[string] lookups, each paying a hash of a
// 16-byte address or an IXP name per access. A dense ID turns each of
// those into one array index. Strings and netip.Addr values survive
// only at the edges: ingestion (netsim, registry, tracesim parsing)
// and the public report / wire surfaces.
//
// A Table is built once over frozen inputs and then patched by world
// deltas: new entities append (IDs are stable — an ID once assigned
// never changes meaning), and a departed interface keeps its ID, so a
// later re-join of the same address gets the same ID back and every
// ID-indexed column stays valid. Which interfaces are members is the
// registry dataset's to say, not the table's. The IXP space is fixed
// at construction: membership deltas never touch the prefix plane.
//
// Interning orders are chosen so that, over the frozen inputs, ID
// order is isomorphic to the natural sort order of the underlying
// value (addresses ascending, ASNs ascending, IXP names ascending).
// Entities appended by deltas break the isomorphism, so order-
// sensitive consumers must compare underlying values (one column read
// per comparison) rather than IDs.
package ident

import (
	"cmp"
	"net/netip"
	"slices"

	"rpeer/internal/ip4"
	"rpeer/internal/netsim"
)

// IfaceID densely identifies an interned interface address.
type IfaceID uint32

// MemberID densely identifies an interned member AS.
type MemberID uint32

// FacID densely identifies an interned colocation facility.
type FacID uint32

// IXPID densely identifies an interned IXP (by merged-dataset name).
type IXPID uint32

// Table is the interning table. It is not safe for concurrent
// mutation; the owning core.Context serializes Apply against runs, and
// lookups during runs are read-only.
//
// The interface index and address column are split by address family:
// IPv4 addresses — the overwhelming majority in every input this
// system ingests — key a map[uint32]IfaceID (one integer hash per
// lookup instead of hashing a 24-byte netip.Addr) and fill a column of
// IPv4 words (4 bytes per ID, no pointer for the garbage collector to
// scan), and everything else spills into a netip.Addr map and the
// column's spill list. The hot loops of context construction and
// corpus compaction run entirely on the uint32 path.
type Table struct {
	addrs    Addrs // column: IfaceID -> address
	iface4   map[uint32]IfaceID
	ifaceGen map[netip.Addr]IfaceID // non-IPv4 spill

	asns      []netsim.ASN // column: MemberID -> ASN
	memberIDs map[netsim.ASN]MemberID

	facs   []netsim.FacilityID // column: FacID -> netsim id
	facIDs map[netsim.FacilityID]FacID

	ixpNames []string // column: IXPID -> merged-dataset name
	ixpIDs   map[string]IXPID
}

// NewTable returns an empty table with capacity hints for the three
// append-able spaces.
func NewTable(ifaceCap, memberCap, facCap int) *Table {
	return &Table{
		addrs:     Addrs{words: make([]uint32, 0, ifaceCap)},
		iface4:    make(map[uint32]IfaceID, ifaceCap),
		asns:      make([]netsim.ASN, 0, memberCap),
		memberIDs: make(map[netsim.ASN]MemberID, memberCap),
		facs:      make([]netsim.FacilityID, 0, facCap),
		facIDs:    make(map[netsim.FacilityID]FacID, facCap),
		ixpIDs:    make(map[string]IXPID),
	}
}

// ---------------------------------------------------------------------------
// Interfaces

// AddIface interns an address, returning its stable ID. Re-adding a
// known address returns the ID it already has.
func (t *Table) AddIface(a netip.Addr) IfaceID {
	if a.Is4() {
		k := ip4.U32(a)
		if id, ok := t.iface4[k]; ok {
			return id
		}
		id := t.addrs.push(a)
		t.iface4[k] = id
		return id
	}
	if id, ok := t.ifaceGen[a]; ok {
		return id
	}
	if t.ifaceGen == nil {
		t.ifaceGen = make(map[netip.Addr]IfaceID)
	}
	id := t.addrs.push(a)
	t.ifaceGen[a] = id
	return id
}

// Iface resolves an address to its ID (a departed interface keeps its
// identity, so its address still resolves).
func (t *Table) Iface(a netip.Addr) (IfaceID, bool) {
	if a.Is4() {
		id, ok := t.iface4[ip4.U32(a)]
		return id, ok
	}
	id, ok := t.ifaceGen[a]
	return id, ok
}

// Addr returns the address behind an interface ID.
func (t *Table) Addr(id IfaceID) netip.Addr { return t.addrs.At(id) }

// NumIfaces returns the interface ID space size (departed interfaces
// included).
func (t *Table) NumIfaces() int { return t.addrs.Len() }

// Ifaces returns the interface address column (IfaceID -> address,
// departed interfaces included) as a view of the IDs interned so far.
// Interning only appends past the view's length, so the view is
// immutable: it may be read while the table keeps growing.
func (t *Table) Ifaces() Addrs { return t.addrs }

// Addrs is an interface address column, IfaceID -> address: one IPv4
// word per ID, and the IDs of other address families (0 in the word
// column) listed aside in ascending ID order. A value is a view: its
// owner only appends past its lengths, so a copy never changes.
type Addrs struct {
	words []uint32
	spill []spilled
}

// spilled is one non-IPv4 entry of an address column.
type spilled struct {
	id IfaceID
	a  netip.Addr
}

// AddrsOf builds a column over addrs, ID i naming addrs[i].
func AddrsOf(addrs []netip.Addr) Addrs {
	c := Addrs{words: make([]uint32, 0, len(addrs))}
	for _, a := range addrs {
		c.push(a)
	}
	return c
}

// push appends an address under the next ID and returns that ID.
func (c *Addrs) push(a netip.Addr) IfaceID {
	id := IfaceID(len(c.words))
	if a.Is4() {
		c.words = append(c.words, ip4.U32(a))
		return id
	}
	c.words = append(c.words, 0)
	c.spill = append(c.spill, spilled{id, a})
	return id
}

// Len returns the number of IDs the column names.
func (c Addrs) Len() int { return len(c.words) }

// At returns the address behind an ID.
func (c Addrs) At(id IfaceID) netip.Addr {
	w := c.words[id]
	if w == 0 && len(c.spill) > 0 {
		if k, ok := slices.BinarySearchFunc(c.spill, id, func(s spilled, id IfaceID) int { return cmp.Compare(s.id, id) }); ok {
			return c.spill[k].a
		}
	}
	return ip4.Addr(w)
}

// ---------------------------------------------------------------------------
// Members

// AddMember interns an AS, returning its stable ID.
func (t *Table) AddMember(asn netsim.ASN) MemberID {
	if id, ok := t.memberIDs[asn]; ok {
		return id
	}
	id := MemberID(len(t.asns))
	t.asns = append(t.asns, asn)
	t.memberIDs[asn] = id
	return id
}

// Member resolves an ASN to its ID.
func (t *Table) Member(asn netsim.ASN) (MemberID, bool) {
	id, ok := t.memberIDs[asn]
	return id, ok
}

// ASN returns the AS number behind a member ID.
func (t *Table) ASN(id MemberID) netsim.ASN { return t.asns[id] }

// NumMembers returns the member ID space size.
func (t *Table) NumMembers() int { return len(t.asns) }

// ASNs returns the member column (MemberID -> AS number), the table's
// live backing array: read-only, and like Ifaces an immutable view of
// the members interned so far.
func (t *Table) ASNs() []netsim.ASN { return t.asns }

// ---------------------------------------------------------------------------
// Facilities

// AddFac interns a facility.
func (t *Table) AddFac(f netsim.FacilityID) FacID {
	if id, ok := t.facIDs[f]; ok {
		return id
	}
	id := FacID(len(t.facs))
	t.facs = append(t.facs, f)
	t.facIDs[f] = id
	return id
}

// FacilityID returns the netsim id behind a dense facility ID.
func (t *Table) FacilityID(id FacID) netsim.FacilityID { return t.facs[id] }

// ---------------------------------------------------------------------------
// IXPs

// SetIXPs fixes the IXP space from a sorted name list. It may be
// called once; the order is preserved, so when names arrive sorted
// (as core's dataset roster does), IXPID order equals name order.
func (t *Table) SetIXPs(names []string) {
	t.ixpNames = append(t.ixpNames[:0], names...)
	for i, n := range t.ixpNames {
		t.ixpIDs[n] = IXPID(i)
	}
}

// IXP resolves an IXP name to its ID.
func (t *Table) IXP(name string) (IXPID, bool) {
	id, ok := t.ixpIDs[name]
	return id, ok
}

// IXPName returns the name behind an IXP ID.
func (t *Table) IXPName(id IXPID) string { return t.ixpNames[id] }

// IXPNames returns the IXP column (IXPID -> name), fixed by SetIXPs:
// read-only.
func (t *Table) IXPNames() []string { return t.ixpNames }

// NumIXPs returns the IXP ID space size.
func (t *Table) NumIXPs() int { return len(t.ixpNames) }
