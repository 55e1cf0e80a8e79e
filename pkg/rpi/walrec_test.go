package rpi

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"rpeer/internal/pingsim"
)

// FuzzWALRecord feeds arbitrary payloads to the WAL record decoder. It
// must never panic, and any payload it accepts must survive a second
// round unchanged: decode(encode(d)) == d, and the re-encode is
// byte-stable. The committed corpus under testdata/fuzz runs in every
// `go test`.
func FuzzWALRecord(f *testing.F) {
	roster := make([]*pingsim.VP, 8)
	for i := range roster {
		roster[i] = &pingsim.VP{ID: i}
	}
	vpByID := func(id int) (*pingsim.VP, bool) {
		if id < 0 || id >= len(roster) {
			return nil, false
		}
		return roster[id], true
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		d, err := decodeDelta(payload, vpByID)
		if err != nil {
			return
		}
		b := encodeDelta(d)
		back, err := decodeDelta(b, vpByID)
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		if !deltaEqual(d, back) {
			t.Fatalf("decode(encode(d)) != d:\n%+v\n%+v", d, back)
		}
		if !bytes.Equal(encodeDelta(back), b) {
			t.Fatal("re-encoding a decoded record moved its bytes")
		}
	})
}

// deltaEqual compares deltas field by field, RTTs by bit pattern (a
// revocation's NaN never equals itself).
func deltaEqual(a, b Delta) bool {
	if !reflect.DeepEqual(a.Joins, b.Joins) || !reflect.DeepEqual(a.Leaves, b.Leaves) || len(a.Ping) != len(b.Ping) {
		return false
	}
	for ip, x := range a.Ping {
		y, ok := b.Ping[ip]
		if !ok || math.Float64bits(x.RTTMinMs) != math.Float64bits(y.RTTMinMs) {
			return false
		}
		x.RTTMinMs, y.RTTMinMs = 0, 0
		if x != y {
			return false
		}
	}
	return true
}
