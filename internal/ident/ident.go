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
// never changes meaning), and departed interfaces are tombstoned
// rather than removed, so a later re-join of the same address revives
// the same ID and every ID-indexed column stays valid. The IXP space
// is fixed at construction: membership deltas never touch the prefix
// plane.
//
// Interning orders are chosen so that, over the frozen inputs, ID
// order is isomorphic to the natural sort order of the underlying
// value (addresses ascending, ASNs ascending, IXP names ascending).
// Entities appended by deltas break the isomorphism, so order-
// sensitive consumers must compare underlying values (one column read
// per comparison) rather than IDs.
package ident

import (
	"net/netip"

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

// NoIface is the sentinel for "no interface".
const NoIface = IfaceID(^uint32(0))

// NoMember is the sentinel for "no member".
const NoMember = MemberID(^uint32(0))

// Table is the interning table. It is not safe for concurrent
// mutation; the owning core.Context serializes Apply against runs, and
// lookups during runs are read-only.
//
// The interface index is split by address family: IPv4 addresses — the
// overwhelming majority in every input this system ingests — key a
// map[uint32]IfaceID (one integer hash per lookup instead of hashing a
// 24-byte netip.Addr), and everything else spills into a netip.Addr
// map. The hot loops of context construction and corpus compaction
// run entirely on the uint32 path.
type Table struct {
	addrs    []netip.Addr // column: IfaceID -> address
	iface4   map[uint32]IfaceID
	ifaceGen map[netip.Addr]IfaceID // non-IPv4 spill
	dead     Bits                   // tombstones (departed memberships)

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
		addrs:     make([]netip.Addr, 0, ifaceCap),
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
// known address revives its tombstoned ID (and returns it unchanged).
func (t *Table) AddIface(a netip.Addr) IfaceID {
	if a.Is4() {
		k := ip4.U32(a)
		if id, ok := t.iface4[k]; ok {
			t.dead.Clear(uint32(id))
			return id
		}
		id := IfaceID(len(t.addrs))
		t.addrs = append(t.addrs, a)
		t.iface4[k] = id
		return id
	}
	if id, ok := t.ifaceGen[a]; ok {
		t.dead.Clear(uint32(id))
		return id
	}
	if t.ifaceGen == nil {
		t.ifaceGen = make(map[netip.Addr]IfaceID)
	}
	id := IfaceID(len(t.addrs))
	t.addrs = append(t.addrs, a)
	t.ifaceGen[a] = id
	return id
}

// Iface resolves an address to its ID (tombstoned IDs still resolve:
// a departed interface keeps its identity).
func (t *Table) Iface(a netip.Addr) (IfaceID, bool) {
	if a.Is4() {
		id, ok := t.iface4[ip4.U32(a)]
		return id, ok
	}
	id, ok := t.ifaceGen[a]
	return id, ok
}

// Addr returns the address behind an interface ID.
func (t *Table) Addr(id IfaceID) netip.Addr { return t.addrs[id] }

// NumIfaces returns the interface ID space size (tombstones included).
func (t *Table) NumIfaces() int { return len(t.addrs) }

// RetireIface tombstones an interface ID. The ID stays resolvable and
// its column slots stay valid — entries are never deleted or
// compacted, which is the property every ID-indexed cache relies on.
// The tombstone itself is bookkeeping: it records that the entity
// departed (introspection, the round-trip tests); domain membership
// is driven by the registry dataset, not by this bit.
func (t *Table) RetireIface(id IfaceID) { t.dead.Set(uint32(id)) }

// IfaceRetired reports whether the ID is tombstoned.
func (t *Table) IfaceRetired(id IfaceID) bool { return t.dead.Get(uint32(id)) }

// Ifaces returns the interface address column (IfaceID -> address,
// tombstones included) — the column-dump hook the snapshot layer walks
// to persist membership state in a deterministic order without
// sorting: ID order is append order, which is fixed by the delta
// history. The slice is the table's live backing array and must be
// treated as read-only.
func (t *Table) Ifaces() []netip.Addr { return t.addrs }

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

// Fac resolves a netsim facility id to its dense ID.
func (t *Table) Fac(f netsim.FacilityID) (FacID, bool) {
	id, ok := t.facIDs[f]
	return id, ok
}

// FacilityID returns the netsim id behind a dense facility ID.
func (t *Table) FacilityID(id FacID) netsim.FacilityID { return t.facs[id] }

// NumFacs returns the facility ID space size.
func (t *Table) NumFacs() int { return len(t.facs) }

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

// NumIXPs returns the IXP ID space size.
func (t *Table) NumIXPs() int { return len(t.ixpNames) }
