package worldfile

import (
	"errors"
	"net/netip"
	"sync"
	"testing"

	"rpeer/internal/netsim"
	"rpeer/internal/snapshot"
	"rpeer/pkg/rpi"
)

// fuzzWorld is the file FuzzWorldSection splices payloads into: the
// image of a world of 40 ASes at 3 IXPs (a world section of ~20 KB,
// small enough for the fuzzer to mutate and minimize quickly), and the
// world it holds.
var fuzzWorld = sync.OnceValues(func() ([]byte, *netsim.World) {
	cfg := netsim.TinyConfig()
	cfg.NASes, cfg.NIXPs, cfg.NResellers = 40, 3, 1
	cfg.LargestIXPMembers, cfg.MinIXPMembers = 12, 4
	cfg.WideAreaIXPs, cfg.FederationPairs, cfg.NoResellerIXPs = 1, 0, 1
	in, err := rpi.InputsFromConfig(cfg, 1)
	if err != nil {
		panic(err)
	}
	b, err := Encode(in)
	if err != nil {
		panic(err)
	}
	return b, in.World
})

// editedWorld returns the world section of w with one value of the
// named column rewritten by edit.
func editedWorld(w *netsim.World, name string, edit func(c *snapshot.Column)) []byte {
	cols := worldCols(w)
	for i := range cols {
		if cols[i].Name == name {
			edit(&cols[i])
		}
	}
	return snapshot.EncodeColumns(cols)
}

// FuzzWorldSection feeds Decode files whose world section is any
// payload, under a valid checksum: what only a malformed writer could
// produce. Decode must return inputs or fail with ErrInvalid (or, for a
// well-formed world other than the one fingerprinted, ErrFingerprint),
// and never panic. The seed corpus (testdata/fuzz/FuzzWorldSection)
// holds the valid section, one whose first router interface is IPv6
// and one whose first private link names router n of n; each is an
// editedWorld of the fuzz world, the edits TestWorldSectionRejects-
// BadInterfaces makes.
func FuzzWorldSection(f *testing.F) {
	b, _ := fuzzWorld()
	f.Fuzz(func(t *testing.T, payload []byte) {
		in, err := Decode(spliceSection(t, b, secWorld, payload))
		switch {
		case err == nil:
			if in.World == nil {
				t.Fatal("Decode returned no world and no error")
			}
		case !errors.Is(err, ErrInvalid) && !errors.Is(err, ErrFingerprint):
			t.Fatalf("Decode failed outside ErrInvalid and ErrFingerprint: %v", err)
		}
	})
}

// TestWorldSectionRejectsBadInterfaces pins the fuzz seeds' verdicts:
// a router interface that is not IPv4 and a private link naming a
// router out of range fail the world section with ErrInvalid, and the
// unedited section decodes.
func TestWorldSectionRejectsBadInterfaces(t *testing.T) {
	b, w := fuzzWorld()
	if _, err := Decode(spliceSection(t, b, secWorld, encodeWorld(w))); err != nil {
		t.Fatalf("unedited world section: %v", err)
	}
	for label, payload := range map[string][]byte{
		"IPv6 router interface": editedWorld(w, "rtr.ifaces", func(c *snapshot.Column) {
			c.Addr[0] = netip.MustParseAddr("2001:db8::1")
		}),
		"IPv6 private-link interface": editedWorld(w, "priv.aiface", func(c *snapshot.Column) {
			c.Addr[0] = netip.MustParseAddr("2001:db8::2")
		}),
		"private link to router n": editedWorld(w, "priv.b", func(c *snapshot.Column) {
			c.U32[0] = uint32(len(w.RouterIDs))
		}),
		"router ID repeated": editedWorld(w, "rtr.id", func(c *snapshot.Column) {
			c.U32[1] = c.U32[0]
		}),
		"negative IP-ID rate": editedWorld(w, "rtr.ipidrate", func(c *snapshot.Column) {
			c.F64[0] = -1
		}),
	} {
		if _, err := Decode(spliceSection(t, b, secWorld, payload)); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: got %v, want ErrInvalid", label, err)
		}
	}
}
