package core

import (
	"math/rand"
	"sort"

	"rpeer/internal/netsim"
)

// Validation is the best-effort ground-truth dataset of Section 3.5:
// partial local/remote member lists for a set of IXPs, split into a
// "control" subset (used to study inference challenges) and a "test"
// subset (used to score the methodology). This is the only place the
// reproduction reads ground-truth membership kinds.
type Validation struct {
	// ControlIXPs and TestIXPs are IXP names.
	ControlIXPs []string
	TestIXPs    []string
	// Remote and Local are the validated interface sets (VDR / VDL in
	// Table 3); an interface appears in at most one of them.
	Remote map[Key]bool
	Local  map[Key]bool
	// FromOperator marks IXPs whose lists came from operators rather
	// than websites (Table 2 grouping).
	FromOperator map[string]bool
}

// ValidationConfig controls dataset construction.
type ValidationConfig struct {
	Seed int64
	// OperatorIXPs and WebsiteIXPs are how many IXPs contribute
	// operator-provided vs website-scraped lists (Table 2: 6 + 9).
	OperatorIXPs int
	WebsiteIXPs  int
	// CoverageMin and CoverageMax bound the fraction of each IXP's
	// members the list covers (operators rarely know everything).
	CoverageMin, CoverageMax float64
	// ControlFrac is the fraction of validation IXPs placed in the
	// control subset.
	ControlFrac float64
}

// DefaultValidationConfig mirrors Table 2's scale: 15 IXPs, roughly
// half the members validated, 7 control / 8 test.
func DefaultValidationConfig() ValidationConfig {
	return ValidationConfig{
		Seed:         1,
		OperatorIXPs: 6,
		WebsiteIXPs:  9,
		CoverageMin:  0.35,
		CoverageMax:  0.85,
		ControlFrac:  0.47,
	}
}

// BuildValidation assembles the validation dataset from the world's
// hidden ground truth. IXPs are picked from the largest down, matching
// the paper's operator contacts (AMS-IX, DE-CIX, LINX, ...).
func BuildValidation(w *netsim.World, cfg ValidationConfig) *Validation {
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := cfg.OperatorIXPs + cfg.WebsiteIXPs
	ixps := w.LargestIXPs(n + 4) // a few spares in case of tiny IXPs
	v := &Validation{
		Remote:       make(map[Key]bool),
		Local:        make(map[Key]bool),
		FromOperator: make(map[string]bool),
	}
	picked := 0
	nControl := int(cfg.ControlFrac * float64(n))
	wideIncluded := 0
	for _, ix := range ixps {
		if picked >= n {
			break
		}
		members := w.MembersOf(ix.ID)
		if len(members) < 10 {
			continue
		}
		// Ground truth is scarce for geographically distributed IXPs
		// (their operators know even less about "what goes on beyond
		// that cable"); keep at most two of them, enough to expose the
		// baseline's wide-area failure mode without dominating the
		// validation set.
		if ix.WideArea {
			if wideIncluded >= 2 {
				continue
			}
			wideIncluded++
		}
		cov := cfg.CoverageMin + rng.Float64()*(cfg.CoverageMax-cfg.CoverageMin)
		for _, m := range members {
			if rng.Float64() >= cov {
				continue
			}
			k := Key{IXP: ix.Name, Iface: m.Iface}
			if m.Remote() {
				v.Remote[k] = true
			} else {
				v.Local[k] = true
			}
		}
		if picked < cfg.OperatorIXPs {
			v.FromOperator[ix.Name] = true
		}
		// Wide-area IXPs always land in the test subset: the control
		// subset is used to study single-metro latency behaviour
		// (Fig 1b), matching the paper's control IXP selection, while
		// wide-area fabrics are exactly what the test subset must
		// stress (they break the RTT-threshold baseline).
		if len(v.ControlIXPs) < nControl && !ix.WideArea {
			v.ControlIXPs = append(v.ControlIXPs, ix.Name)
		} else {
			v.TestIXPs = append(v.TestIXPs, ix.Name)
		}
		picked++
	}
	sort.Strings(v.ControlIXPs)
	sort.Strings(v.TestIXPs)
	return v
}

// InIXPs filters the validation sets down to the named IXPs.
func (v *Validation) InIXPs(names []string) *Validation {
	set := make(map[string]bool, len(names))
	for _, n := range names {
		set[n] = true
	}
	out := &Validation{
		ControlIXPs:  v.ControlIXPs,
		TestIXPs:     v.TestIXPs,
		Remote:       make(map[Key]bool),
		Local:        make(map[Key]bool),
		FromOperator: v.FromOperator,
	}
	for k := range v.Remote {
		if set[k.IXP] {
			out.Remote[k] = true
		}
	}
	for k := range v.Local {
		if set[k.IXP] {
			out.Local[k] = true
		}
	}
	return out
}

// Size returns |VD|.
func (v *Validation) Size() int { return len(v.Remote) + len(v.Local) }

// Metrics are the Table 3 validation metrics.
type Metrics struct {
	// COV is |INF ∩ VD| / |VD|.
	COV float64
	// FPR is |INFR ∩ VDL| / |INF ∩ VDL|.
	FPR float64
	// FNR is |INFL ∩ VDR| / |INF ∩ VDR|.
	FNR float64
	// PRE is |INFR ∩ VDR| / |INFR| (within VD).
	PRE float64
	// ACC is (|INFR ∩ VDR| + |INFL ∩ VDL|) / |INF| (within VD).
	ACC float64
	// Counts backing the ratios.
	Validated, Inferred int
	TruePosR, TruePosL  int
	FalsePos, FalseNeg  int
}

// Evaluate scores a report against the validation sets, considering
// only memberships present in the validation data (INF - VD = ∅ by
// construction of the metrics).
func Evaluate(rep *Report, v *Validation) Metrics {
	var m Metrics
	m.Validated = v.Size()
	cols := rep.cols()
	for k, truthRemote := range flatten(v) {
		i, ok := cols.dom.find(k)
		if !ok || cols.class[i] == ClassUnknown {
			continue
		}
		m.Inferred++
		switch class := cols.class[i]; {
		case class == ClassRemote && truthRemote:
			m.TruePosR++
		case class == ClassLocal && !truthRemote:
			m.TruePosL++
		case class == ClassRemote && !truthRemote:
			m.FalsePos++
		case class == ClassLocal && truthRemote:
			m.FalseNeg++
		}
	}
	if m.Validated > 0 {
		m.COV = float64(m.Inferred) / float64(m.Validated)
	}
	if d := m.TruePosL + m.FalsePos; d > 0 {
		m.FPR = float64(m.FalsePos) / float64(d)
	}
	if d := m.TruePosR + m.FalseNeg; d > 0 {
		m.FNR = float64(m.FalseNeg) / float64(d)
	}
	if d := m.TruePosR + m.FalsePos; d > 0 {
		m.PRE = float64(m.TruePosR) / float64(d)
	}
	if m.Inferred > 0 {
		m.ACC = float64(m.TruePosR+m.TruePosL) / float64(m.Inferred)
	}
	return m
}

// flatten merges the two validation sets into iface -> isRemote.
func flatten(v *Validation) map[Key]bool {
	out := make(map[Key]bool, v.Size())
	for k := range v.Remote {
		out[k] = true
	}
	for k := range v.Local {
		out[k] = false
	}
	return out
}

// EvaluatePerIXP scores the report separately for each IXP present in
// the validation data (Fig 8).
func EvaluatePerIXP(rep *Report, v *Validation) map[string]Metrics {
	names := make(map[string]bool)
	for k := range v.Remote {
		names[k.IXP] = true
	}
	for k := range v.Local {
		names[k.IXP] = true
	}
	out := make(map[string]Metrics, len(names))
	for name := range names {
		out[name] = Evaluate(rep, v.InIXPs([]string{name}))
	}
	return out
}
