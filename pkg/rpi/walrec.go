package rpi

import (
	"encoding/binary"
	"fmt"
	"math"
	"net/netip"
	"sort"

	"rpeer/internal/netsim"
	"rpeer/internal/pingsim"
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
// length + UTF-8. Ping rows are sorted by address so that the same
// delta always encodes to the same bytes (map iteration order must not
// leak into what lands on disk).

// recVersion is the current WAL record layout version.
const recVersion = 1

// noRecVP is the on-disk vantage-point-ID sentinel for an override
// without a VP (a revocation).
const noRecVP = ^uint32(0)

const (
	recFlagBestRoundsUp = 1 << 0
	recFlagAnyRounding  = 1 << 1
)

func appendAddr(b []byte, a netip.Addr) []byte {
	raw := a.AsSlice()
	b = append(b, byte(len(raw)))
	return append(b, raw...)
}

func appendName(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

// encodeDelta serializes a resolved delta (measured overrides carry
// their vantage point; Apply resolves before logging).
func encodeDelta(d Delta) []byte {
	b := make([]byte, 0, 64+32*(len(d.Joins)+len(d.Leaves)+len(d.Ping)))
	b = append(b, recVersion)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(d.Joins)))
	for _, j := range d.Joins {
		b = appendAddr(b, j.Iface)
		b = binary.LittleEndian.AppendUint32(b, uint32(j.ASN))
		b = binary.LittleEndian.AppendUint32(b, uint32(j.PortMbps))
		b = appendName(b, j.IXP)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(d.Leaves)))
	for _, k := range d.Leaves {
		b = appendAddr(b, k.Iface)
		b = appendName(b, k.IXP)
	}
	ips := make([]netip.Addr, 0, len(d.Ping))
	for ip := range d.Ping {
		ips = append(ips, ip)
	}
	sort.Slice(ips, func(i, j int) bool { return ips[i].Less(ips[j]) })
	b = binary.LittleEndian.AppendUint32(b, uint32(len(ips)))
	for _, ip := range ips {
		ov := d.Ping[ip]
		b = appendAddr(b, ip)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(ov.RTTMinMs))
		id := noRecVP
		if ov.BestVP != nil {
			id = uint32(ov.BestVP.ID)
		}
		b = binary.LittleEndian.AppendUint32(b, id)
		var fl uint8
		if ov.BestRoundsUp {
			fl |= recFlagBestRoundsUp
		}
		if ov.AnyRounding {
			fl |= recFlagAnyRounding
		}
		b = append(b, fl)
	}
	return b
}

// recDec is a bounds-checked reader over one record payload.
type recDec struct {
	b   []byte
	err error
}

func (d *recDec) take(n int) []byte {
	if d.err != nil || n < 0 || n > len(d.b) {
		if d.err == nil {
			d.err = fmt.Errorf("record truncated")
		}
		return nil
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

func (d *recDec) u8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *recDec) u16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (d *recDec) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *recDec) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *recDec) addr() netip.Addr {
	raw := d.take(int(d.u8()))
	a, ok := netip.AddrFromSlice(raw)
	if !ok && d.err == nil {
		d.err = fmt.Errorf("bad address of %d bytes", len(raw))
	}
	return a
}

func (d *recDec) name() string { return string(d.take(int(d.u16()))) }

// decodeDelta parses one WAL record, resolving persisted vantage-point
// IDs against the campaign roster (core.Context.VP).
func decodeDelta(payload []byte, vpByID func(id int) (*pingsim.VP, bool)) (Delta, error) {
	d := &recDec{b: payload}
	if v := d.u8(); v > recVersion {
		return Delta{}, fmt.Errorf("record version %d is newer than supported %d", v, recVersion)
	}
	var out Delta
	nJoins := int(d.u32())
	for i := 0; i < nJoins && d.err == nil; i++ {
		j := Join{Iface: d.addr()}
		j.ASN = netsim.ASN(d.u32())
		j.PortMbps = int(d.u32())
		j.IXP = d.name()
		out.Joins = append(out.Joins, j)
	}
	nLeaves := int(d.u32())
	for i := 0; i < nLeaves && d.err == nil; i++ {
		k := Key{Iface: d.addr()}
		k.IXP = d.name()
		out.Leaves = append(out.Leaves, k)
	}
	nPing := int(d.u32())
	if nPing > 0 && d.err == nil {
		out.Ping = make(map[netip.Addr]pingsim.Override, nPing)
	}
	for i := 0; i < nPing && d.err == nil; i++ {
		ip := d.addr()
		ov := pingsim.Override{RTTMinMs: math.Float64frombits(d.u64())}
		id := d.u32()
		fl := d.u8()
		if id != noRecVP {
			vp, ok := vpByID(int(id))
			if !ok {
				return Delta{}, fmt.Errorf("record references unknown vantage point %d", id)
			}
			ov.BestVP = vp
		}
		ov.BestRoundsUp = fl&recFlagBestRoundsUp != 0
		ov.AnyRounding = fl&recFlagAnyRounding != 0
		out.Ping[ip] = ov
	}
	if d.err != nil {
		return Delta{}, d.err
	}
	if len(d.b) != 0 {
		return Delta{}, fmt.Errorf("record has %d trailing bytes", len(d.b))
	}
	return out, nil
}
