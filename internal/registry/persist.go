package registry

import (
	"cmp"
	"net/netip"
	"slices"
	"strings"

	"rpeer/internal/netsim"
	"rpeer/internal/snapshot"
)

// Membership columns: the delta-mutable slice of a dataset (the
// interface records and port capacities joins and leaves churn), in
// the one row layout engine snapshots and world files share. A local
// IXP name table holds every name the rows reference, sorted; the
// iface and port groups are parallel columns whose IXP field indexes
// it. Interface rows are in address order, port rows in (IXP, ASN)
// order, so the same membership always encodes to the same bytes.
const (
	colIXPName = "ixp.name" // string: IXP name table

	colIfaceAddr = "iface.addr" // addr: member interface
	colIfaceASN  = "iface.asn"  // u32: member ASN
	colIfaceIXP  = "iface.ixp"  // u32: index into ixp.name

	colPortIXP  = "port.ixp"  // u32: index into ixp.name
	colPortASN  = "port.asn"  // u32: member ASN
	colPortMbps = "port.mbps" // u64: reported capacity
)

// AppendMembership appends d's interface and port rows.
func (d *Dataset) AppendMembership(c *snapshot.Cols) {
	nameIdx := make(map[string]uint32)
	for _, name := range d.IfaceIXP {
		nameIdx[name] = 0
	}
	for k := range d.Ports {
		nameIdx[k.IXP] = 0
	}
	names := make([]string, 0, len(nameIdx))
	for name := range nameIdx {
		names = append(names, name)
	}
	slices.Sort(names)
	for i, name := range names {
		nameIdx[name] = uint32(i)
	}

	addrs := make([]netip.Addr, 0, len(d.IfaceIXP))
	for a := range d.IfaceIXP {
		addrs = append(addrs, a)
	}
	slices.SortFunc(addrs, netip.Addr.Compare)
	ifASN := make([]uint32, len(addrs))
	ifIXP := make([]uint32, len(addrs))
	for i, a := range addrs {
		ifASN[i] = uint32(d.IfaceASN[a])
		ifIXP[i] = nameIdx[d.IfaceIXP[a]]
	}

	keys := make([]PortKey, 0, len(d.Ports))
	for k := range d.Ports {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b PortKey) int {
		if c := strings.Compare(a.IXP, b.IXP); c != 0 {
			return c
		}
		return cmp.Compare(a.ASN, b.ASN)
	})
	portIXP := make([]uint32, len(keys))
	portASN := make([]uint32, len(keys))
	portMbps := make([]uint64, len(keys))
	for i, k := range keys {
		portIXP[i], portASN[i], portMbps[i] = nameIdx[k.IXP], uint32(k.ASN), uint64(d.Ports[k])
	}

	c.Str(colIXPName, names)
	c.Addr(colIfaceAddr, addrs)
	c.U32(colIfaceASN, ifASN)
	c.U32(colIfaceIXP, ifIXP)
	c.U32(colPortIXP, portIXP)
	c.U32(colPortASN, portASN)
	c.U64(colPortMbps, portMbps)
}

// ReadMembership replaces d's interface and port records with the rows
// AppendMembership wrote. Row order is not relied on. Failures
// (missing or ragged columns, a name index out of range) are recorded
// in rd and leave d's records partially read; callers discard d then.
func (d *Dataset) ReadMembership(rd *snapshot.Reader) {
	names := rd.Str(colIXPName)
	name := func(what string, row int, idx uint32) (string, bool) {
		if int(idx) >= len(names) {
			rd.Failf("%s row %d references IXP name %d of %d", what, row, idx, len(names))
			return "", false
		}
		return names[idx], true
	}

	n := rd.Rows(colIfaceAddr, colIfaceASN, colIfaceIXP)
	addrs, asns, ixps := rd.Addr(colIfaceAddr), rd.U32(colIfaceASN), rd.U32(colIfaceIXP)
	nPorts := rd.Rows(colPortIXP, colPortASN, colPortMbps)
	portIXP, portASN, portMbps := rd.U32(colPortIXP), rd.U32(colPortASN), rd.U64(colPortMbps)
	if rd.Err() != nil {
		return
	}
	d.IfaceIXP = make(map[netip.Addr]string, n)
	d.IfaceASN = make(map[netip.Addr]netsim.ASN, n)
	for i, a := range addrs {
		nm, ok := name("membership", i, ixps[i])
		if !ok {
			return
		}
		d.IfaceIXP[a] = nm
		d.IfaceASN[a] = netsim.ASN(asns[i])
	}
	d.Ports = make(map[PortKey]int, nPorts)
	for i, idx := range portIXP {
		nm, ok := name("port", i, idx)
		if !ok {
			return
		}
		d.Ports[PortKey{IXP: nm, ASN: netsim.ASN(portASN[i])}] = int(portMbps[i])
	}
}
