package worldfile

import (
	"errors"
	"math"
	"math/bits"
	"net/netip"
	"slices"
	"sync"
	"testing"

	"rpeer/internal/alias"
	"rpeer/internal/netsim"
	"rpeer/internal/snapshot"
	"rpeer/pkg/rpi"
)

// fuzzWorld is the file FuzzWorldSection splices payloads into: the
// image of a world of 40 ASes at 3 IXPs (a world section of ~20 KB,
// small enough for the fuzzer to mutate and minimize quickly), and the
// world it holds.
var fuzzWorld = sync.OnceValues(func() ([]byte, *netsim.World) {
	b, in := fuzzInputs()
	return b, in.World
})

// fuzzInputs is fuzzWorld's file with the bundle it encodes.
var fuzzInputs = sync.OnceValues(func() ([]byte, rpi.Inputs) {
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
	return b, in
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

// editedAlias returns the alias section of a copy of cam edited by
// edit.
func editedAlias(cam alias.Campaign, edit func(c *alias.Campaign)) []byte {
	c := alias.Campaign{
		Off:  slices.Clone(cam.Off),
		Mask: slices.Clone(cam.Mask),
		Jit:  slices.Clone(cam.Jit),
		Vel:  slices.Clone(cam.Vel),
	}
	edit(&c)
	return encodeAlias(c)
}

// badAliasSections are the alias-section edits Decode must reject,
// one per Campaign.Check rule, keyed by the name of their seed corpus
// file where they have one.
func badAliasSections(cam alias.Campaign) map[string][]byte {
	// A row with some rounds lost and at least five replies: its mask
	// has a hole for a stray jitter bit, and its velocity must be
	// finite.
	row := -1
	for i, m := range cam.Mask {
		if n := bits.OnesCount32(m); n >= 5 && n < 30 {
			row = i
			break
		}
	}
	if row < 0 {
		panic("fuzz world has no row with lost rounds and five replies")
	}
	hole := bits.TrailingZeros32(^cam.Mask[row])
	return map[string][]byte{
		"row-count-off-by-one": editedAlias(cam, func(c *alias.Campaign) {
			c.Off, c.Mask, c.Jit, c.Vel = c.Off[1:], c.Mask[1:], c.Jit[1:], c.Vel[1:]
		}),
		"jitter-outside-mask": editedAlias(cam, func(c *alias.Campaign) {
			c.Jit[row] |= 1 << (2 * hole)
		}),
		"nan-velocity-with-replies": editedAlias(cam, func(c *alias.Campaign) {
			c.Vel[row] = math.NaN()
		}),
		"reply-past-round-30": editedAlias(cam, func(c *alias.Campaign) {
			c.Mask[row] |= 1 << 30
		}),
		"velocity-without-replies": editedAlias(cam, func(c *alias.Campaign) {
			c.Mask[row], c.Jit[row] = 1, c.Jit[row]&3
		}),
		"schedule-offset-7": editedAlias(cam, func(c *alias.Campaign) {
			c.Off[row] = 7
		}),
	}
}

// FuzzAliasSection feeds Decode files whose alias section (the MIDAR
// probe campaign) is any payload, under a valid checksum. Decode must
// return inputs whose campaign has one row per router interface, or
// fail with ErrInvalid or ErrFingerprint, and never panic. The seed
// corpus (testdata/fuzz/FuzzAliasSection) holds the valid section and
// three of badAliasSections' edits: a row count off by one, a jitter
// bit outside the reply mask and a NaN velocity on a row with enough
// replies.
func FuzzAliasSection(f *testing.F) {
	b, _ := fuzzInputs()
	f.Fuzz(func(t *testing.T, payload []byte) {
		in, err := Decode(spliceSection(t, b, secAlias, payload))
		switch {
		case err == nil:
			if in.Alias.Len() != in.World.NumIfaces() {
				t.Fatalf("Decode returned %d campaign rows for %d router interfaces", in.Alias.Len(), in.World.NumIfaces())
			}
		case !errors.Is(err, ErrInvalid) && !errors.Is(err, ErrFingerprint):
			t.Fatalf("Decode failed outside ErrInvalid and ErrFingerprint: %v", err)
		}
	})
}

// TestAliasSectionRejectsBadCampaigns pins the alias section's checks:
// every badAliasSections edit fails with ErrInvalid, and the unedited
// section decodes to the generated campaign.
func TestAliasSectionRejectsBadCampaigns(t *testing.T) {
	b, in := fuzzInputs()
	got, err := Decode(spliceSection(t, b, secAlias, encodeAlias(in.Alias)))
	if err != nil {
		t.Fatalf("unedited alias section: %v", err)
	}
	if !slices.Equal(got.Alias.Mask, in.Alias.Mask) {
		t.Fatal("decoded campaign differs from the generated one")
	}
	for label, payload := range badAliasSections(in.Alias) {
		if _, err := Decode(spliceSection(t, b, secAlias, payload)); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: got %v, want ErrInvalid", label, err)
		}
	}
}
