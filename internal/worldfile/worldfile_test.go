package worldfile_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"math"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"rpeer/internal/core"
	"rpeer/internal/netsim"
	"rpeer/internal/pingsim"
	"rpeer/internal/worldfile"
	"rpeer/pkg/rpi"
)

// testInputs builds a small but complete bundle (tiny world, full
// registry/colo/ping/trace stages) once per test binary.
func testInputs(t *testing.T) core.Inputs {
	t.Helper()
	in, err := rpi.InputsFromConfig(netsim.TinyConfig(), 42)
	if err != nil {
		t.Fatalf("build inputs: %v", err)
	}
	return in
}

func encode(t *testing.T, in core.Inputs) []byte {
	t.Helper()
	b, err := worldfile.Encode(in)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return b
}

// run is one cold pipeline run over in with the default options.
func run(t *testing.T, in core.Inputs) *core.Report {
	t.Helper()
	ctx, err := core.NewContext(in)
	if err != nil {
		t.Fatalf("context: %v", err)
	}
	rep, err := ctx.Run(core.DefaultOptions())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return rep
}

func feq(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

// TestWorldFileRoundTrip pins the tentpole guarantee: a loaded bundle
// is byte-identical to the in-process generated one, down to the
// inference report the pipeline produces over it.
func TestWorldFileRoundTrip(t *testing.T) {
	in := testInputs(t)
	b := encode(t, in)
	got, err := worldfile.Decode(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}

	// World: every entity field, then the re-encoding byte for byte.
	if !reflect.DeepEqual(in.World.Parts(), got.World.Parts()) {
		t.Fatalf("decoded world differs from generated world")
	}
	if re := encode(t, got); !bytes.Equal(b, re) {
		t.Fatalf("re-encoded bundle differs from the original (%d vs %d bytes)", len(re), len(b))
	}
	// Derived state the decoder rebuilds: lookup indices and the
	// latency oracle.
	for _, m := range in.World.Members {
		if r, ok := got.World.RouterOf(m.Iface); !ok || got.World.Router(r).Owner != m.ASN {
			t.Fatalf("owner of %s lost in the round trip; want %v", m.Iface, m.ASN)
		}
		if rid, ok := got.World.RouterOf(m.Iface); !ok || rid != m.Router {
			t.Fatalf("RouterOf(%s) = %v, %v after round trip; want %v", m.Iface, rid, ok, m.Router)
		}
	}
	ids := in.World.RouterIDs
	r1, r2 := in.World.Router(ids[0]), in.World.Router(ids[len(ids)/2])
	if have, want := got.World.Latency().RouterRTT(got.World.Router(r1.ID), got.World.Router(r2.ID)),
		in.World.Latency().RouterRTT(r1, r2); have != want {
		t.Fatalf("latency oracle differs after round trip: %v vs %v", have, want)
	}

	// Fingerprint, dataset, colo, paths.
	if fa, fb := core.Fingerprint(in), core.Fingerprint(got); fa != fb {
		t.Fatalf("fingerprint changed across round trip: %016x vs %016x", fa, fb)
	}
	if !reflect.DeepEqual(in.Dataset, got.Dataset) {
		t.Fatalf("dataset differs after round trip")
	}
	if !reflect.DeepEqual(in.Colo, got.Colo) {
		t.Fatalf("colo differs after round trip")
	}
	if !reflect.DeepEqual(in.Paths, got.Paths) {
		t.Fatalf("traceroute corpus differs after round trip")
	}
	if in.Seed != got.Seed || in.Speed != got.Speed {
		t.Fatalf("seed/speed differ: (%d,%v) vs (%d,%v)", in.Seed, in.Speed, got.Seed, got.Speed)
	}

	// Ping campaign: roster, usable set, route-server RTTs, folded
	// aggregates.
	// DeepEqual reaches the VPs' hidden ground-truth fields too.
	if !reflect.DeepEqual(in.Ping.VPs, got.Ping.VPs) {
		t.Fatalf("VP roster differs after round trip")
	}
	if len(in.Ping.UsableVPs) != len(got.Ping.UsableVPs) {
		t.Fatalf("usable VP count %d vs %d", len(in.Ping.UsableVPs), len(got.Ping.UsableVPs))
	}
	for i, vp := range in.Ping.UsableVPs {
		if got.Ping.UsableVPs[i].ID != vp.ID {
			t.Fatalf("usable VP %d is %d, want %d", i, got.Ping.UsableVPs[i].ID, vp.ID)
		}
	}
	if len(in.Ping.RouteServerRTT) != len(got.Ping.RouteServerRTT) {
		t.Fatalf("route server RTT count %d vs %d",
			len(in.Ping.RouteServerRTT), len(got.Ping.RouteServerRTT))
	}
	for id, rtt := range in.Ping.RouteServerRTT {
		g, ok := got.Ping.RouteServerRTT[id]
		if !ok || !feq(rtt, g) {
			t.Fatalf("route server RTT for VP %d: %v vs %v (present=%v)", id, rtt, g, ok)
		}
	}
	wantIdx, haveIdx := in.Ping.IfaceIndex(), got.Ping.IfaceIndex()
	if len(wantIdx) != len(haveIdx) {
		t.Fatalf("aggregate index size %d vs %d", len(wantIdx), len(haveIdx))
	}
	for ip, wa := range wantIdx {
		ha := haveIdx[ip]
		if ha == nil {
			t.Fatalf("aggregate for %s missing after round trip", ip)
		}
		if !feq(wa.RTTMinMs, ha.RTTMinMs) || wa.BestRoundsUp != ha.BestRoundsUp ||
			wa.AnyRounding != ha.AnyRounding {
			t.Fatalf("aggregate for %s differs: %+v vs %+v", ip, wa, ha)
		}
		wantBest, haveBest := -1, -1
		if wa.BestVP != nil {
			wantBest = wa.BestVP.ID
		}
		if ha.BestVP != nil {
			haveBest = ha.BestVP.ID
		}
		if wantBest != haveBest {
			t.Fatalf("aggregate for %s has best VP %d, want %d", ip, haveBest, wantBest)
		}
	}

	// The pipeline over the decoded bundle must produce the same report.
	wantRep := run(t, in)
	haveRep := run(t, got)
	if wantRep.Len() != haveRep.Len() {
		t.Fatalf("report size %d vs %d", wantRep.Len(), haveRep.Len())
	}
	for _, wi := range wantRep.All() {
		k := core.Key{IXP: wi.IXP, Iface: wi.Iface}
		hi, ok := haveRep.Lookup(k)
		if !ok {
			t.Fatalf("inference for %s missing from decoded-world report", k)
		}
		wc, hc := wi, hi
		if !feq(wc.RTTMinMs, hc.RTTMinMs) {
			t.Fatalf("inference %s RTT %v vs %v", k, wc.RTTMinMs, hc.RTTMinMs)
		}
		wc.RTTMinMs, hc.RTTMinMs = 0, 0
		if wc != hc {
			t.Fatalf("inference %s differs: %+v vs %+v", k, wi, hi)
		}
	}
	if !reflect.DeepEqual(wantRep.MultiRouters, haveRep.MultiRouters) {
		t.Fatalf("multi-IXP router sets differ between generated and loaded world")
	}
}

// TestEncodeDeterministic pins byte-for-byte deterministic encoding —
// the property CI world caching and fingerprint pinning rely on.
func TestEncodeDeterministic(t *testing.T) {
	in := testInputs(t)
	a, b := encode(t, in), encode(t, in)
	if !bytes.Equal(a, b) {
		t.Fatalf("two encodes of the same bundle differ (%d vs %d bytes)", len(a), len(b))
	}
	// And re-encoding a decoded bundle is also byte-identical.
	got, err := worldfile.Decode(a)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	c := encode(t, got)
	if !bytes.Equal(a, c) {
		t.Fatalf("re-encode of decoded bundle differs (%d vs %d bytes)", len(a), len(c))
	}
}

// TestAliasCampaignRoundTrip holds the alias section to the generated
// probe campaign, byte for byte (velocities by their bits), for the
// paper-scale and 4x worlds of seeds 1 to 3; the 4x worlds run only
// without -short.
func TestAliasCampaignRoundTrip(t *testing.T) {
	for _, scale := range []int{1, 4} {
		if scale > 1 && testing.Short() {
			continue
		}
		for seed := int64(1); seed <= 3; seed++ {
			in, err := rpi.SyntheticInputs(seed, scale)
			if err != nil {
				t.Fatal(err)
			}
			got, err := worldfile.Decode(encode(t, in))
			if err != nil {
				t.Fatalf("%dx seed %d: decode: %v", scale, seed, err)
			}
			want, have := in.Alias, got.Alias
			if want.Len() != in.World.NumIfaces() ||
				!bytes.Equal(want.Off, have.Off) ||
				!slices.Equal(want.Mask, have.Mask) ||
				!slices.Equal(want.Jit, have.Jit) ||
				!slices.EqualFunc(want.Vel, have.Vel, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
				t.Fatalf("%dx seed %d: decoded campaign differs from the generated one", scale, seed)
			}
		}
	}
}

// TestTinyWorldBytesPinned pins the generated bytes of the seed-1 tiny
// world across commits. The worker-count identity tests compare worker
// counts within one build, so they cannot see generator drift between
// builds; this hash can. A deliberate generator or format change
// re-pins it and says so.
func TestTinyWorldBytesPinned(t *testing.T) {
	const (
		wantSHA   = "d4aa695a849a3f4b689b3245eff8b4812ad018d52e84de9a3c1a466c88d96db8"
		wantBytes = 363179
	)
	in, err := rpi.InputsFromConfig(netsim.TinyConfig(), 1)
	if err != nil {
		t.Fatalf("build inputs: %v", err)
	}
	b := encode(t, in)
	sum := sha256.Sum256(b)
	if got := hex.EncodeToString(sum[:]); got != wantSHA || len(b) != wantBytes {
		t.Fatalf("tiny seed-1 world = %s (%d bytes), want %s (%d bytes)", got, len(b), wantSHA, wantBytes)
	}
}

// TestFingerprintPinned pins core.Fingerprint of generated worlds
// across commits: every data directory's snapshots and log segments
// carry the fingerprint of their base world, so a drift would refuse
// to reopen them.
func TestFingerprintPinned(t *testing.T) {
	tiny, err := rpi.InputsFromConfig(netsim.TinyConfig(), 1)
	if err != nil {
		t.Fatalf("build inputs: %v", err)
	}
	paper, err := rpi.SyntheticInputs(1, 1)
	if err != nil {
		t.Fatalf("build inputs: %v", err)
	}
	for _, c := range []struct {
		name string
		in   core.Inputs
		want uint64
	}{
		{"tiny seed 1", tiny, 0x6c4fcf4b82c4275e},
		{"paper seed 1", paper, 0xac08243b77bd7a89},
	} {
		if got := core.Fingerprint(c.in); got != c.want {
			t.Errorf("%s: fingerprint %016x, want %016x", c.name, got, c.want)
		}
	}
}

func TestWriteLoadFile(t *testing.T) {
	in := testInputs(t)
	path := filepath.Join(t.TempDir(), "world.rpw")
	if err := worldfile.WriteFile(path, in); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("tmp file left behind after publish")
	}
	got, err := worldfile.Load(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if fa, fb := core.Fingerprint(in), core.Fingerprint(got); fa != fb {
		t.Fatalf("fingerprint changed across file round trip: %016x vs %016x", fa, fb)
	}
}

// TestCorruptTruncated: every truncation of a valid file must fail
// with ErrInvalid — never panic, never return a partial world.
func TestCorruptTruncated(t *testing.T) {
	b := encode(t, testInputs(t))
	// Exhaustive near the header, then sampled through the body.
	cuts := make([]int, 0, 512)
	for i := 0; i < 256 && i < len(b); i++ {
		cuts = append(cuts, i)
	}
	for i := 256; i < len(b); i += 997 {
		cuts = append(cuts, i)
	}
	cuts = append(cuts, len(b)-1)
	for _, n := range cuts {
		if _, err := worldfile.Decode(b[:n]); !errors.Is(err, worldfile.ErrInvalid) {
			t.Fatalf("truncation to %d of %d bytes: got %v, want ErrInvalid", n, len(b), err)
		}
	}
}

// TestCorruptFlippedByte: flipping any byte inside a section payload
// must be caught by that section's checksum.
func TestCorruptFlippedByte(t *testing.T) {
	b := encode(t, testInputs(t))
	header := len("RPWFILE1") + 4 + 8 + 4
	for off := header; off < len(b); off += 499 {
		mut := bytes.Clone(b)
		mut[off] ^= 0x40
		_, err := worldfile.Decode(mut)
		if err == nil {
			t.Fatalf("flipping byte %d went undetected", off)
		}
		if !errors.Is(err, worldfile.ErrInvalid) && !errors.Is(err, worldfile.ErrFingerprint) {
			t.Fatalf("flipping byte %d: got untyped error %v", off, err)
		}
	}
}

// TestCorruptVersionMismatch: world files are regenerable, so a build
// reads exactly its own format version — an older (v1, or v2 without
// the alias section) header fails with ErrVersion just like a future
// one.
func TestCorruptVersionMismatch(t *testing.T) {
	enc := encode(t, testInputs(t))
	for _, v := range []byte{1, 2, worldfile.FormatVersion + 1} {
		b := bytes.Clone(enc)
		b[len("RPWFILE1")] = v
		if _, err := worldfile.Decode(b); !errors.Is(err, worldfile.ErrVersion) {
			t.Fatalf("version %d: got %v, want ErrVersion", v, err)
		}
	}
}

func TestCorruptFingerprintMismatch(t *testing.T) {
	b := bytes.Clone(encode(t, testInputs(t)))
	b[len("RPWFILE1")+4] ^= 0xFF // low byte of the header fingerprint
	if _, err := worldfile.Decode(b); !errors.Is(err, worldfile.ErrFingerprint) {
		t.Fatalf("tampered fingerprint: got %v, want ErrFingerprint", err)
	}
}

func TestCorruptBadMagic(t *testing.T) {
	b := bytes.Clone(encode(t, testInputs(t)))
	b[0] ^= 0xFF
	if _, err := worldfile.Decode(b); !errors.Is(err, worldfile.ErrInvalid) {
		t.Fatalf("bad magic: got %v, want ErrInvalid", err)
	}
}

// TestOverridesComposeOnRestoredCampaign: a restored campaign must
// accept override overlays (the serving plane's live-measurement path)
// exactly like a fresh one.
func TestOverridesComposeOnRestoredCampaign(t *testing.T) {
	in := testInputs(t)
	got, err := worldfile.Decode(encode(t, in))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	idx := got.Ping.IfaceIndex()
	if len(idx) == 0 {
		t.Fatal("restored campaign has no aggregates")
	}
	for ip, agg := range idx {
		over := got.Ping.WithOverrides(map[netip.Addr]pingsim.IfaceAgg{
			ip: {RTTMinMs: agg.RTTMinMs + 5, BestVP: agg.BestVP},
		})
		oidx := over.IfaceIndex()
		if oa := oidx[ip]; oa == nil || !feq(oa.RTTMinMs, agg.RTTMinMs+5) {
			t.Fatalf("override on restored campaign not applied for %s: %+v", ip, oidx[ip])
		}
		// The base view must be untouched.
		if ba := got.Ping.IfaceIndex()[ip]; !feq(ba.RTTMinMs, agg.RTTMinMs) {
			t.Fatalf("override leaked into base view for %s", ip)
		}
		break
	}
}
