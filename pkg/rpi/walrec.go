package rpi

import (
	"encoding/binary"
	"fmt"
	"math"
	"net/netip"
	"slices"

	"rpeer/internal/netsim"
	"rpeer/internal/pingsim"
	"rpeer/internal/snapshot"
)

// WAL record codec: one applied delta per record, in a compact
// little-endian binary layout (JSON cannot carry the NaN that marks a
// measurement revocation). Vantage points are persisted by ID — the
// record must stay meaningful across processes, and the base campaign
// regenerates the same VP roster deterministically.
//
//	u8 record version
//	u32 #joins    | per join:  addr, u32 asn, u32 portMbps, name
//	u32 #leaves   | per leave: addr, name
//	u32 #pings    | per row:   addr, u64 rttBits, u32 vpID, u8 flags
//
// where addr is a u8 length (4 or 16) + raw bytes and name is a u16
// length + UTF-8 (snapshot.AppendAddr / AppendStr), and vpID and flags
// are the aggregate row fields every persisted format shares
// (IfaceAgg.VPID and Flags, read back by pingsim.AggFromRow). Ping
// rows are sorted by address so that the same delta always encodes to
// the same bytes (map iteration order must not leak into what lands on
// disk).

// recVersion is the current WAL record layout version.
const recVersion = 1

// encodeDelta serializes a resolved delta (measured overrides carry
// their vantage point; Apply resolves before logging).
func encodeDelta(d Delta) []byte {
	b := make([]byte, 0, 64+32*(len(d.Joins)+len(d.Leaves)+len(d.Ping)))
	b = append(b, recVersion)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(d.Joins)))
	for _, j := range d.Joins {
		b = snapshot.AppendAddr(b, j.Iface)
		b = binary.LittleEndian.AppendUint32(b, uint32(j.ASN))
		b = binary.LittleEndian.AppendUint32(b, uint32(j.PortMbps))
		b = snapshot.AppendStr(b, j.IXP)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(d.Leaves)))
	for _, k := range d.Leaves {
		b = snapshot.AppendAddr(b, k.Iface)
		b = snapshot.AppendStr(b, k.IXP)
	}
	ips := make([]netip.Addr, 0, len(d.Ping))
	for ip := range d.Ping {
		ips = append(ips, ip)
	}
	slices.SortFunc(ips, netip.Addr.Compare)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(ips)))
	for _, ip := range ips {
		ov := d.Ping[ip]
		b = snapshot.AppendAddr(b, ip)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(ov.RTTMinMs))
		b = binary.LittleEndian.AppendUint32(b, ov.VPID())
		b = append(b, ov.Flags())
	}
	return b
}

// decodeDelta parses one WAL record, resolving persisted vantage-point
// IDs against the campaign roster (core.Context.VP).
func decodeDelta(payload []byte, vpByID func(id int) (*pingsim.VP, bool)) (Delta, error) {
	d := snapshot.NewByteReader(payload)
	if v := d.U8(); v > recVersion {
		return Delta{}, fmt.Errorf("record version %d is newer than supported %d", v, recVersion)
	}
	var out Delta
	nJoins := int(d.U32())
	for i := 0; i < nJoins && d.Err() == nil; i++ {
		j := Join{Iface: d.Addr()}
		j.ASN = netsim.ASN(d.U32())
		j.PortMbps = int(d.U32())
		j.IXP = d.Str()
		out.Joins = append(out.Joins, j)
	}
	nLeaves := int(d.U32())
	for i := 0; i < nLeaves && d.Err() == nil; i++ {
		k := Key{Iface: d.Addr()}
		k.IXP = d.Str()
		out.Leaves = append(out.Leaves, k)
	}
	nPing := int(d.U32())
	if nPing > 0 && d.Err() == nil {
		out.Ping = make(map[netip.Addr]pingsim.IfaceAgg, min(nPing, d.Len()))
	}
	for i := 0; i < nPing && d.Err() == nil; i++ {
		ip := d.Addr()
		rtt := math.Float64frombits(d.U64())
		id, fl := d.U32(), d.U8()
		if d.Err() != nil {
			break
		}
		ov, err := pingsim.AggFromRow(rtt, id, fl, vpByID)
		if err != nil {
			return Delta{}, fmt.Errorf("record row for %s: %v", ip, err)
		}
		out.Ping[ip] = ov
	}
	if d.Err() != nil {
		return Delta{}, fmt.Errorf("record: %v", d.Err())
	}
	if d.Len() != 0 {
		return Delta{}, fmt.Errorf("record has %d trailing bytes", d.Len())
	}
	return out, nil
}
