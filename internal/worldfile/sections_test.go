package worldfile

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"net/netip"
	"runtime/debug"
	"strings"
	"testing"

	"rpeer/internal/geo"
	"rpeer/internal/netsim"
	"rpeer/internal/snapshot"
	"rpeer/internal/traix"
	"rpeer/pkg/rpi"
)

// corpus fabricates n three-hop paths, every tenth hop unresponsive.
func corpus(n int) traix.Paths {
	var p traix.Paths
	for i := 0; i < n; i++ {
		p.Add(netsim.ASN(i), netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 1}))
		for h := 0; h < 3; h++ {
			ip := netip.AddrFrom4([4]byte{192, byte(i >> 8), byte(i), byte(h + 1)})
			if (3*i+h)%10 == 0 {
				ip = netip.Addr{}
			}
			p.AddHop(ip, float64(h)+0.5)
		}
	}
	return p
}

// decodeSection decodes one paths section payload.
func decodeSection(t testing.TB, payload []byte) traix.Paths {
	rd, err := snapshot.ReadColumns(payload)
	if err != nil {
		t.Fatal(err)
	}
	p, err := decodePaths(rd)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPathsDecodeAllocsFixed holds the paths section to a fixed number
// of allocations, whatever its path count: the corpus decodes straight
// into its columns, never into per-path or per-hop objects.
func TestPathsDecodeAllocsFixed(t *testing.T) {
	// With the collector off, the count is the decoder's alone (a cycle
	// run under the race detector allocates too).
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var allocs []float64
	for _, n := range []int{10, 1000, 20000} {
		want := corpus(n)
		payload := encodePaths(want)
		if got := decodeSection(t, payload); got.Len() != n || string(encodePaths(got)) != string(payload) {
			t.Fatalf("%d paths: the section does not round-trip", n)
		}
		allocs = append(allocs, testing.AllocsPerRun(5, func() { decodeSection(t, payload) }))
	}
	for _, a := range allocs[1:] {
		if a != allocs[0] {
			t.Fatalf("allocations per decode grow with the path count: %v for 10, 1000 and 20000 paths", allocs)
		}
	}
}

// spliceSection returns a copy of a world file image with the named
// section's payload replaced, its checksum recomputed: a file only a
// malformed writer could produce, which the container layer accepts.
func spliceSection(t *testing.T, b []byte, name string, payload []byte) []byte {
	t.Helper()
	off := len(Magic) + 4 + 8
	n := int(binary.LittleEndian.Uint32(b[off:]))
	off += 4
	out := append([]byte(nil), b[:off]...)
	found := false
	for i := 0; i < n; i++ {
		nl := int(binary.LittleEndian.Uint16(b[off:]))
		sec := string(b[off+2 : off+2+nl])
		off += 2 + nl
		pl := int(binary.LittleEndian.Uint32(b[off:]))
		p := b[off+4 : off+4+pl]
		off += 4 + pl + 4
		if sec == name {
			p, found = payload, true
		}
		out = snapshot.AppendStr(out, sec)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(p)))
		out = append(out, p...)
		out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(p, castagnoli))
	}
	if !found {
		t.Fatalf("no section %q", name)
	}
	return out
}

// TestDecodeRejectsMalformedColumns feeds checksum-valid files whose
// world, colo or paths section holds values no writer of this format
// emits: each must fail with ErrInvalid, naming its section, instead
// of decoding into a location that is not a coordinate, a negative
// facility ID or an address the IPv4 corpus columns cannot hold.
func TestDecodeRejectsMalformedColumns(t *testing.T) {
	in, err := rpi.InputsFromConfig(netsim.TinyConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	// world re-encodes the tiny world with the location at loc set to
	// (lat, lon).
	world := func(loc func(w *netsim.World) *geo.Point, lat, lon float64) []byte {
		p := loc(in.World)
		saved := *p
		defer func() { *p = saved }()
		*p = geo.Point{Lat: lat, Lon: lon}
		return encodeWorld(in.World)
	}
	city := func(w *netsim.World) *geo.Point { return &w.Cities[0].Loc }
	fac := func(w *netsim.World) *geo.Point { return &w.Facilities[0].Loc }
	home := func(w *netsim.World) *geo.Point { return &w.ASes[w.ASNs[0]].HomeLoc }
	colo := func(fac uint32) []byte {
		var c snapshot.Cols
		c.U32("colo.as.asn", []uint32{64500})
		c.U32("colo.as.n", []uint32{1})
		c.U32("colo.as.fac", []uint32{fac})
		c.Str("colo.ixp.name", []string{"IX"})
		c.U32("colo.ixp.n", []uint32{0})
		c.U32("colo.ixp.fac", nil)
		return snapshot.EncodeColumns(c)
	}
	paths := func(hop netip.Addr) []byte {
		var c snapshot.Cols
		c.U32("path.src", []uint32{0})
		c.PackedAddrs("path.dst", []netip.Addr{netip.MustParseAddr("10.0.0.1")})
		c.U32("path.hops.n", []uint32{2})
		c.PackedAddrs("hop.ip", []netip.Addr{netip.MustParseAddr("10.0.0.2"), hop})
		c.F64("hop.rtt", []float64{1, 2})
		return snapshot.EncodeColumns(c)
	}
	for _, c := range []struct {
		label, section string
		payload        []byte
	}{
		{"NaN city latitude", secWorld, world(city, math.NaN(), 0)},
		{"+Inf facility longitude", secWorld, world(fac, 0, math.Inf(1))},
		{"AS home latitude 91", secWorld, world(home, 91, 0)},
		{"city longitude -181", secWorld, world(city, 0, -181)},
		{"facility ID 2^31", secColo, colo(1 << 31)},
		{"facility ID 2^32-1", secColo, colo(^uint32(0))},
		{"IPv6 hop", secPaths, paths(netip.MustParseAddr("2001:db8::1"))},
		{"0.0.0.0 hop", secPaths, paths(netip.MustParseAddr("0.0.0.0"))},
	} {
		_, err := Decode(spliceSection(t, b, c.section, c.payload))
		if !errors.Is(err, ErrInvalid) || !strings.Contains(err.Error(), `section "`+c.section+`"`) {
			t.Errorf("%s: got %v, want ErrInvalid in section %q", c.label, err, c.section)
		}
	}
	// The splice itself is sound: a location on the edge of the
	// coordinate domain and the largest valid facility ID decode
	// (the fingerprint covers neither), and a well-formed one-path
	// corpus fails only the fingerprint check.
	if _, err := Decode(spliceSection(t, b, secWorld, world(city, 90, -180))); err != nil {
		t.Fatalf("valid world section: %v", err)
	}
	in, err = Decode(spliceSection(t, b, secColo, colo(1<<31-1)))
	if err != nil {
		t.Fatalf("valid colo section: %v", err)
	}
	if got := in.Colo.ASFacilities[64500]; len(got) != 1 || got[0] != 1<<31-1 {
		t.Fatalf("valid colo section decoded AS facilities %v", got)
	}
	if _, err := Decode(spliceSection(t, b, secPaths, paths(netip.Addr{}))); !errors.Is(err, ErrFingerprint) {
		t.Errorf("valid paths section: got %v, want ErrFingerprint", err)
	}
}
