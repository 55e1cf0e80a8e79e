package core_test

import (
	"testing"

	"rpeer/internal/core"
	"rpeer/pkg/rpi"
)

// TestColdIDSpacesPinned pins the interned ID spaces of the seed-1 1x
// cold context. The crossing plane interns exactly the live crossings'
// near and IXP interfaces and near members; a wider intern set would
// grow every ID-indexed column, the alias probe plane and the cold
// set-up with it.
func TestColdIDSpacesPinned(t *testing.T) {
	in, err := rpi.SyntheticInputs(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := core.NewContext(in)
	if err != nil {
		t.Fatal(err)
	}
	ifaces, members := ctx.IDSpaces()
	t.Logf("ifaces=%d members=%d", ifaces, members)
	if ifaces != 38754 || members != 3012 {
		t.Fatalf("ID spaces moved: %d interfaces, %d members; want %d, %d", ifaces, members, 38754, 3012)
	}
}
