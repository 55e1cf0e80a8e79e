package rpi

import (
	"fmt"
	"sync"

	"rpeer/internal/alias"
	"rpeer/internal/core"
	"rpeer/internal/geo"
	"rpeer/internal/netsim"
	"rpeer/internal/pingsim"
	"rpeer/internal/registry"
	"rpeer/internal/tracesim"
	"rpeer/internal/traix"
)

// The SDK re-exports the inference data model, so consumers never
// import internal/core directly.
type (
	// Inputs bundles the observable artefacts the engine consumes.
	Inputs = core.Inputs
	// Report is the inference output: one verdict per membership plus
	// the classified multi-IXP routers.
	Report = core.Report
	// Inference is the verdict for one member interface at one IXP.
	Inference = core.Inference
	// Key identifies one membership.
	Key = core.Key
	// PeerClass is the inference outcome (local / remote / unknown).
	PeerClass = core.PeerClass
	// Step identifies which methodology step decided a verdict.
	Step = core.Step
	// RouterClass is the multi-IXP router taxonomy.
	RouterClass = core.RouterClass
	// MultiIXPRouter is one alias-resolved router facing several IXPs.
	MultiIXPRouter = core.MultiIXPRouter
	// Metrics are the validation metrics (Table 3).
	Metrics = core.Metrics
	// Validation is the ground-truth validation dataset.
	Validation = core.Validation
	// ValidationConfig controls validation-set construction.
	ValidationConfig = core.ValidationConfig
	// PingResult is a ping campaign outcome (Inputs.Ping).
	PingResult = pingsim.Result
)

// Verdict classes.
const (
	ClassUnknown = core.ClassUnknown
	ClassLocal   = core.ClassLocal
	ClassRemote  = core.ClassRemote
)

// Methodology steps.
const (
	StepNone         = core.StepNone
	StepPortCapacity = core.StepPortCapacity
	StepRTTColo      = core.StepRTTColo
	StepMultiIXP     = core.StepMultiIXP
	StepPrivate      = core.StepPrivate
	StepBaseline     = core.StepBaseline
)

// Multi-IXP router classes.
const (
	RouterUnclassified = core.RouterUnclassified
	RouterLocal        = core.RouterLocal
	RouterRemote       = core.RouterRemote
	RouterHybrid       = core.RouterHybrid
)

// DefaultBaselineThresholdMs is the Castro et al. remoteness
// threshold (10 ms).
const DefaultBaselineThresholdMs = core.DefaultBaselineThresholdMs

// BuildValidation assembles the ground-truth validation dataset from a
// world (the only ground-truth read in the system).
func BuildValidation(w *netsim.World, cfg ValidationConfig) *Validation {
	return core.BuildValidation(w, cfg)
}

// DefaultValidationConfig mirrors the paper's Table 2 scale.
func DefaultValidationConfig() ValidationConfig {
	return core.DefaultValidationConfig()
}

// Evaluate scores a report against a validation dataset.
func Evaluate(rep *Report, v *Validation) Metrics {
	return core.Evaluate(rep, v)
}

// SyntheticInputs generates a complete synthetic input world at the
// given scale factor (1 = the paper-sized default world; see
// netsim.ScaledConfig): the seeded world, the merged registry dataset,
// the colocation database, a full ping campaign and a traceroute
// corpus. The independent stages build concurrently; the result is
// deterministic in (seed, scale).
func SyntheticInputs(seed int64, scale int) (Inputs, error) {
	cfg := netsim.DefaultConfig()
	if scale > 1 {
		cfg = netsim.ScaledConfig(scale)
	}
	return InputsFromConfig(cfg, seed)
}

// InputsFromConfig builds the full input bundle over an explicit world
// config, overriding cfg.Seed with seed. Each stage draws from its own
// offset of seed (registry +1, colo +2, VPs +3, campaign +4,
// traceroutes +5; Inputs.Seed, which the alias probe campaign draws
// from, is +6), and the independent stages build concurrently. A netsim.TinyConfig world builds in milliseconds, which
// rpi-bot, rpi-serve's tenant profiles and the crash-recovery tests
// rely on.
func InputsFromConfig(cfg netsim.Config, seed int64) (Inputs, error) {
	cfg.Seed = seed
	w, err := netsim.Generate(cfg, 0)
	if err != nil {
		return Inputs{}, fmt.Errorf("rpi: generate world: %w", err)
	}
	var (
		wg    sync.WaitGroup
		ds    *registry.Dataset
		colo  *registry.ColoDB
		ping  *pingsim.Result
		paths traix.Paths
		probe alias.Campaign
	)
	wg.Add(5)
	go func() {
		defer wg.Done()
		ds = registry.Build(w, registry.DefaultNoise(), seed+1, 0)
	}()
	go func() {
		defer wg.Done()
		colo = registry.BuildColo(w, registry.DefaultColoNoise(), seed+2)
	}()
	go func() {
		defer wg.Done()
		vps := pingsim.DeriveVPs(w, seed+3)
		pcfg := pingsim.DefaultCampaign()
		pcfg.Seed = seed + 4
		ping = pingsim.Run(w, vps, pcfg, 0)
	}()
	go func() {
		defer wg.Done()
		tcfg := tracesim.DefaultConfig()
		tcfg.Seed = seed + 5
		paths = tracesim.Generate(w, tcfg, 0)
	}()
	go func() {
		defer wg.Done()
		probe = alias.NewProber(w, seed+6).Campaign()
	}()
	wg.Wait()
	return Inputs{
		World: w, Dataset: ds, Colo: colo, Ping: ping, Paths: paths,
		Speed: geo.DefaultSpeedModel(), Seed: seed + 6, Alias: probe,
	}, nil
}
