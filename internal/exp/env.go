// Package exp regenerates every table and figure of the paper's
// evaluation from a synthetic world: the same pipeline, measurements
// and statistics, with one constructor per artefact. The cmd/rpi-
// experiments binary and the repository-root benchmarks are thin
// wrappers around this package.
package exp

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"

	"rpeer/internal/core"
	"rpeer/internal/netsim"
	"rpeer/internal/par"
	"rpeer/internal/pingsim"
	"rpeer/internal/registry"
	"rpeer/internal/report"
	"rpeer/pkg/rpi"
)

// Env is the assembled experimental environment: one world, its
// datasets, one measurement campaign, one shared inference engine,
// one pipeline run and the validation split. Build it once and feed it
// to every experiment.
//
// Engine is the long-lived rpi.Engine the environment rides on; Ctx is
// its shared core.Context over Inputs. Constructors that re-run the
// pipeline under modified options (Table 4's per-step rows, the
// Section 8 extension) go through Ctx so the RTT indexes, traceroute
// detections, geo rings and alias clusters are computed once per
// environment rather than once per artefact. Both are safe for the
// concurrent use All makes of them.
//
// Dataset and Inputs reflect the engine's view (a private clone of the
// generated registry data), so applied deltas and experiment reads
// stay coherent.
type Env struct {
	World      *netsim.World
	Dataset    *registry.Dataset
	Colo       *registry.ColoDB
	VPs        []*pingsim.VP
	Ping       *pingsim.Result
	Inputs     core.Inputs
	Engine     *rpi.Engine
	Ctx        *core.Context
	Report     *core.Report
	BaseReport *core.Report
	Validation *core.Validation

	ixpByName map[string]*netsim.IXP
}

// NewEnv builds the environment with the default configuration.
// Options configure the underlying engine (worker count, baseline
// threshold, ...).
func NewEnv(seed int64, opts ...rpi.Option) (*Env, error) {
	return NewEnvWithConfig(netsim.DefaultConfig(), seed, opts...)
}

// NewEnvWithConfig builds the environment over an explicit world
// configuration (the scaling suite feeds it netsim.ScaledConfig
// presets); cfg.Seed is overridden by seed. It is NewEnvFromInputs over
// rpi.InputsFromConfig(cfg, seed).
func NewEnvWithConfig(cfg netsim.Config, seed int64, opts ...rpi.Option) (*Env, error) {
	in, err := rpi.InputsFromConfig(cfg, seed)
	if err != nil {
		return nil, fmt.Errorf("exp: %w", err)
	}
	return NewEnvFromInputs(in, opts...)
}

// NewEnvFromInputs builds the environment over a pre-assembled input
// bundle, generated in-process or loaded from a world file
// (internal/worldfile, written by rpi-gen -o world.rpw): the engine
// build, the pipeline and baseline runs, and, concurrently with them,
// the validation split. The split is derived from the world at
// in.Seed+1, the next offset of rpi.InputsFromConfig's seed layout, so
// an env loaded from a file and one generated in-process over the same
// (seed, config) are interchangeable.
func NewEnvFromInputs(in core.Inputs, opts ...rpi.Option) (*Env, error) {
	var (
		wgVal sync.WaitGroup
		val   *core.Validation
	)
	wgVal.Add(1)
	go func() {
		defer wgVal.Done()
		vcfg := core.DefaultValidationConfig()
		vcfg.Seed = in.Seed + 1
		val = core.BuildValidation(in.World, vcfg)
	}()
	eng, err := rpi.New(in, opts...)
	if err != nil {
		return nil, fmt.Errorf("exp: engine: %w", err)
	}
	base, err := eng.Baseline()
	if err != nil {
		return nil, fmt.Errorf("exp: baseline: %w", err)
	}
	wgVal.Wait()

	engIn := eng.Inputs()
	env := &Env{
		World: in.World, Dataset: engIn.Dataset, Colo: in.Colo,
		VPs: in.Ping.VPs, Ping: in.Ping,
		Inputs: engIn, Engine: eng, Ctx: eng.Context(),
		Report: eng.Snapshot(), BaseReport: base,
		Validation: val,
		ixpByName:  make(map[string]*netsim.IXP, len(in.World.IXPs)),
	}
	for _, ix := range in.World.IXPs {
		env.ixpByName[ix.Name] = ix
	}
	return env, nil
}

// IXPByName resolves an IXP name to the world object.
func (e *Env) IXPByName(name string) *netsim.IXP { return e.ixpByName[name] }

// TestSubset returns the validation data restricted to the test IXPs.
func (e *Env) TestSubset() *core.Validation {
	return e.Validation.InIXPs(e.Validation.TestIXPs)
}

// ControlSubset returns the validation data restricted to the control
// IXPs.
func (e *Env) ControlSubset() *core.Validation {
	return e.Validation.InIXPs(e.Validation.ControlIXPs)
}

// StudiedIXPs returns the n largest IXPs with at least one usable VP —
// the paper's "30 largest IXPs with usable VPs" selection.
func (e *Env) StudiedIXPs(n int) []*netsim.IXP {
	usable := make(map[netsim.IXPID]bool)
	for _, vp := range e.Ping.UsableVPs {
		usable[vp.IXP] = true
	}
	var out []*netsim.IXP
	for _, ix := range e.World.LargestIXPs(len(e.World.IXPs)) {
		if usable[ix.ID] {
			out = append(out, ix)
		}
		if len(out) == n {
			break
		}
	}
	return out
}

// Result is one regenerated artefact: an identifier matching the paper
// (e.g. "Table 4"), the paper's claim for comparison, and the measured
// table.
type Result struct {
	ID         string
	Title      string
	PaperClaim string
	Table      *report.Table
	Notes      []string
}

// artefact couples one constructor with its measured warm-cache serial
// cost on the default world (rough microseconds; re-measure with
// TestMeasureArtefactCosts, see DESIGN.md section 7). Only the
// relative order matters: All hands expensive artefacts out
// first, so the straggler — Sec 6.4, even after its PR 5 distance-
// memoization cut it 618 -> ~59 ms; Table 4 collapsed from 2.6 s to
// ~40 ms with the PR 4/PR 5 speedups — starts immediately instead of
// gating the suite from the tail of the queue.
type artefact struct {
	id     string // Result.ID of fn's result
	fn     func(*Env) Result
	costUs int
}

// artefacts lists every artefact in paper order (the output order of
// All, regardless of the execution schedule).
var artefacts = []artefact{
	{"Table 1", Table1, 8},
	{"Table 2", Table2, 2812},
	{"Fig 1a", Fig1a, 163},
	{"Fig 1b", Fig1b, 6406},
	{"Fig 2a", Fig2a, 107},
	{"Fig 2b", Fig2b, 208},
	{"Fig 4", Fig4, 2125},
	{"Fig 5", Fig5, 1195},
	{"Fig 6", Fig6, 401},
	{"Table 4", Table4, 41293},
	{"Fig 8", Fig8, 642},
	{"Table 5", Table5, 2251},
	{"Fig 9a", Fig9a, 32},
	{"Fig 9b", Fig9b, 794},
	{"Fig 9c", Fig9c, 220},
	{"Fig 9d", Fig9d, 4},
	{"Fig 10a", Fig10a, 377},
	{"Fig 10b", Fig10b, 3028},
	{"Fig 11a", Fig11a, 2159},
	{"Fig 11b", Fig11b, 958},
	{"Fig 12a", Fig12a, 136},
	{"Fig 12b", Fig12b, 878},
	{"Sec 6.4", Sec64, 58610},
	{"Sec 7", Sec7, 5009},
	{"Sec 8", Sec8, 7834},
	{"Sec 8b", Sec8Longitudinal, 326},
}

// schedule is the order All's workers claim artefacts in: artefact indexes
// sorted by descending cost (longest-first), ties in paper order.
var schedule = func() []int {
	idx := make([]int, len(artefacts))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return artefacts[idx[a]].costUs > artefacts[idx[b]].costUs
	})
	return idx
}()

// All regenerates every artefact, fanning the independent constructors
// out over workers (<= 0 uses GOMAXPROCS). Each artefact is
// independent: constructors only read the environment and share the
// thread-safe core.Context. Workers claim artefacts one at a time in
// schedule order (longest-first) and write results back by paper-order
// index, so the output is identical for every worker count.
func All(env *Env, workers int) []Result {
	return regenerate(env, workers, schedule)
}

// Select is All restricted to the artefacts with the given IDs ("Table
// 4", "Fig 8", ...), still in paper order. An ID no artefact carries is
// an error.
func Select(env *Env, workers int, ids []string) ([]Result, error) {
	want := make(map[string]bool, len(ids))
	for _, id := range ids {
		want[id] = true
	}
	var sched []int
	for _, i := range schedule {
		if want[artefacts[i].id] {
			sched = append(sched, i)
			delete(want, artefacts[i].id)
		}
	}
	if len(want) > 0 {
		known := make([]string, len(artefacts))
		for i, a := range artefacts {
			known[i] = a.id
		}
		return nil, fmt.Errorf("exp: unknown artefact IDs %q (known: %q)", slices.Sorted(maps.Keys(want)), known)
	}
	return regenerate(env, workers, sched), nil
}

// regenerate runs the artefacts of sched, a subsequence of schedule,
// and returns their results in paper order.
func regenerate(env *Env, workers int, sched []int) []Result {
	out := make([]Result, len(artefacts))
	par.Do(workers, len(sched), 1, func(k, _ int) {
		i := sched[k]
		out[i] = artefacts[i].fn(env)
	})
	if len(sched) == len(artefacts) {
		return out
	}
	picked := slices.Sorted(slices.Values(sched))
	res := make([]Result, len(picked))
	for k, i := range picked {
		res[k] = out[i]
	}
	return res
}

// controlCampaign runs the "one-time access" LG-style measurements the
// paper obtained inside the control IXPs (Section 4.1), returning
// per-interface minimum RTTs for each control IXP.
func (e *Env) controlCampaign() *pingsim.Result {
	var vps []*pingsim.VP
	id := 10000
	for _, name := range e.Validation.ControlIXPs {
		ix := e.IXPByName(name)
		if ix == nil {
			continue
		}
		f := ix.Facilities[0]
		vps = append(vps, &pingsim.VP{
			ID: id, IXP: ix.ID, Kind: pingsim.KindLG,
			Facility: f, Loc: e.World.Facility(f).Loc,
			SrcIP: ix.RouteServer,
		})
		id++
	}
	cfg := pingsim.DefaultCampaign()
	cfg.Seed = e.World.Cfg.Seed + 99
	return pingsim.Run(e.World, vps, cfg, 1)
}

// sortedIXPNames returns IXP names sorted by descending ground-truth
// size then name, for stable table output.
func (e *Env) sortedIXPNames(names map[string]bool) []string {
	var out []string
	for n := range names {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := e.IXPByName(out[i]), e.IXPByName(out[j])
		na, nb := 0, 0
		if a != nil {
			na = len(e.World.MembersOf(a.ID))
		}
		if b != nil {
			nb = len(e.World.MembersOf(b.ID))
		}
		if na != nb {
			return na > nb
		}
		return out[i] < out[j]
	})
	return out
}
