package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"sort"

	"rpeer/internal/netsim"
	"rpeer/internal/worldfile"
	"rpeer/pkg/rpi"
	"rpeer/pkg/rpi/serve"
)

// churnPairs is how many forward/inverse churn pairs a run cycles
// through, and churnFrac the share of memberships each delta touches
// (about 70 at the paper's scale).
const (
	churnPairs = 64
	churnFrac  = 0.01
)

// world is everything a run derives from its seed before the clock
// starts. The program under test only ever sees the world file; the
// rest is the benchmark's own: wire bodies, ground truth, the IXP list.
type world struct {
	in     rpi.Inputs
	rpw    string // the world file every start loads
	fileMB float64
	ixps   []string // every IXP of the dataset, sorted: the per-IXP read rotation
	deltas []rpi.Delta
	bodies [][]byte        // deltas as /v1 apply bodies
	test   *rpi.Validation // ground truth over the test IXPs
}

// makeWorld generates the inputs for cfg and seed and writes them to
// dir/world.rpw.
func makeWorld(cfg netsim.Config, seed int64, dir string) (*world, error) {
	in, err := rpi.InputsFromConfig(cfg, seed)
	if err != nil {
		return nil, err
	}
	w := &world{in: in, rpw: filepath.Join(dir, "world.rpw")}
	if err := worldfile.WriteFile(w.rpw, in); err != nil {
		return nil, err
	}
	st, err := os.Stat(w.rpw)
	if err != nil {
		return nil, err
	}
	w.fileMB = float64(st.Size()) / 1e6

	seen := map[string]bool{}
	for _, name := range in.Dataset.PrefixIXP {
		if !seen[name] {
			seen[name] = true
			w.ixps = append(w.ixps, name)
		}
	}
	sort.Strings(w.ixps)

	// Every pair is drawn against the base inputs; a forward delta and
	// its inverse restore the membership set, so the next pair applies
	// cleanly whatever came before it.
	for i := 0; i < churnPairs; i++ {
		fwd := rpi.ChurnDelta(in, churnFrac, seed*1000+int64(i))
		for _, d := range []rpi.Delta{fwd, rpi.InvertDelta(in, fwd)} {
			b, err := wireBody(d)
			if err != nil {
				return nil, err
			}
			w.deltas = append(w.deltas, d)
			w.bodies = append(w.bodies, b)
		}
	}

	vcfg := rpi.DefaultValidationConfig()
	vcfg.Seed = seed + 7 // the seed layout of the experiment harness
	val := rpi.BuildValidation(in.World, vcfg)
	w.test = val.InIXPs(val.TestIXPs)
	return w, nil
}

// delta returns the delta (and its wire body) that takes an engine at
// seq to seq+1: the cycle is a pure function of the sequence number, so
// a recovered engine continues exactly where its history stopped.
func (w *world) delta(seq uint64) (rpi.Delta, []byte) {
	i := int(seq % uint64(len(w.deltas)))
	return w.deltas[i], w.bodies[i]
}

// history is what a correct plane serves at each seq from first on:
// the full report and every IXP's report, as wire bytes.
type history struct {
	first uint64
	full  [][]byte
	ixp   []map[string][]byte
}

// history replays the delta cycle from seq 0 to last on an in-memory
// twin engine built over the generated inputs, and records what it
// serves at seqs first through last. The cycle is a pure function of
// seq, so the twin walks the history the plane under test walks.
func (w *world) history(first, last uint64) (*history, error) {
	eng, err := rpi.New(w.in)
	if err != nil {
		return nil, err
	}
	h := &history{first: first}
	for seq := uint64(0); ; seq++ {
		if seq >= first {
			full, err := rpi.MarshalReport(eng.Snapshot())
			if err != nil {
				return nil, err
			}
			ixp, err := ixpReports(eng, w.ixps)
			if err != nil {
				return nil, err
			}
			h.full, h.ixp = append(h.full, full), append(h.ixp, ixp)
		}
		if seq == last {
			return h, nil
		}
		d, _ := w.delta(seq)
		if _, err := eng.Apply(context.Background(), d); err != nil {
			return nil, fmt.Errorf("twin apply %d: %w", seq+1, err)
		}
	}
}

// serves reports whether body is a correct answer to a read (ixp ""
// for the full report) sent when seq lo was the newest acknowledged
// apply, and completed before any apply past seq hi was sent. A body
// from before lo is stale; one the history does not reach is wrong.
func (h *history) serves(body []byte, ixp string, lo, hi uint64) bool {
	for s := lo; s <= hi; s++ {
		if s < h.first || s-h.first >= uint64(len(h.full)) {
			return false
		}
		want := h.full[s-h.first]
		if ixp != "" {
			want = h.ixp[s-h.first][ixp]
		}
		if bytes.Equal(body, want) {
			return true
		}
	}
	return false
}

// ixpReports computes in-process what the plane must serve for each
// IXP's report at the engine's current publication.
func ixpReports(eng *rpi.Engine, ixps []string) (map[string][]byte, error) {
	out := make(map[string][]byte, len(ixps))
	for _, ixp := range ixps {
		rep, err := eng.ReportFor(context.Background(), ixp)
		if err != nil {
			return nil, err
		}
		if out[ixp], err = rpi.MarshalReport(rep); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// wireBody renders a delta as a POST /v1/t/{tenant}/apply body.
func wireBody(d rpi.Delta) ([]byte, error) {
	var wd serve.WireDelta
	for _, j := range d.Joins {
		wd.Joins = append(wd.Joins, serve.WireJoin{
			IXP: j.IXP, Iface: j.Iface.String(), ASN: uint32(j.ASN), PortMbps: j.PortMbps,
		})
	}
	for _, l := range d.Leaves {
		wd.Leaves = append(wd.Leaves, serve.WireKey{IXP: l.IXP, Iface: l.Iface.String()})
	}
	return json.Marshal(wd)
}

// accuracy scores served report bytes against the world's test IXPs.
func (w *world) accuracy(body []byte) (rpi.Metrics, error) {
	wr, err := rpi.UnmarshalReport(body)
	if err != nil {
		return rpi.Metrics{}, err
	}
	rep := &rpi.Report{Inferences: make(map[rpi.Key]*rpi.Inference, len(wr.Inferences))}
	for _, wi := range wr.Inferences {
		ip, err := netip.ParseAddr(wi.Iface)
		if err != nil {
			return rpi.Metrics{}, fmt.Errorf("served report: bad interface %q", wi.Iface)
		}
		class := rpi.ClassUnknown
		switch wi.Class {
		case rpi.ClassLocal.String():
			class = rpi.ClassLocal
		case rpi.ClassRemote.String():
			class = rpi.ClassRemote
		}
		rep.Inferences[rpi.Key{IXP: wi.IXP, Iface: ip}] = &rpi.Inference{Class: class}
	}
	return rpi.Evaluate(rep, w.test), nil
}
