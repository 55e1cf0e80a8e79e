package exp

import (
	"strings"
	"testing"
)

var cenv *Env

func env(t testing.TB) *Env {
	t.Helper()
	if cenv == nil {
		e, err := NewEnv(1)
		if err != nil {
			t.Fatal(err)
		}
		cenv = e
	}
	return cenv
}

func TestAllExperimentsRun(t *testing.T) {
	results := All(env(t), 0)
	if len(results) != 26 {
		t.Fatalf("experiments = %d, want 26", len(results))
	}
	seen := make(map[string]bool)
	for i, r := range results {
		if r.ID != artefacts[i].id {
			t.Errorf("artefact %d is listed as %q but reports %q", i, artefacts[i].id, r.ID)
		}
		if r.ID == "" || r.Title == "" || r.PaperClaim == "" {
			t.Errorf("experiment %q incomplete metadata", r.ID)
		}
		if seen[r.ID] {
			t.Errorf("duplicate experiment id %q", r.ID)
		}
		seen[r.ID] = true
		if r.Table == nil || len(r.Table.Rows) == 0 {
			t.Errorf("experiment %q produced empty table", r.ID)
		}
		out := r.Table.String()
		if !strings.Contains(out, "|") {
			t.Errorf("experiment %q renders nothing", r.ID)
		}
	}
}

// TestSelectKeepsPaperOrder: Select regenerates only the listed
// artefacts, in paper order whatever the order asked, and refuses an
// ID no artefact carries.
func TestSelectKeepsPaperOrder(t *testing.T) {
	got, err := Select(env(t), 0, []string{"Fig 8", "Table 4"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].ID != "Table 4" || got[1].ID != "Fig 8" {
		ids := make([]string, len(got))
		for i, r := range got {
			ids[i] = r.ID
		}
		t.Fatalf("Select gave %q, want [Table 4 Fig 8]", ids)
	}
	if _, err := Select(env(t), 0, []string{"Table 4", "Fig 99"}); err == nil {
		t.Fatal("Select accepted an unknown artefact ID")
	}
}

func TestTable4ShapeMatchesPaper(t *testing.T) {
	r := Table4(env(t))
	out := r.Table.String()
	t.Logf("\n%s", out)
	if len(r.Table.Rows) != 6 {
		t.Fatalf("Table 4 rows = %d, want 6", len(r.Table.Rows))
	}
	// The combined row must be last and carry high accuracy.
	last := r.Table.Rows[len(r.Table.Rows)-1]
	if last[0] != "Combined" {
		t.Fatalf("last row = %q", last[0])
	}
}

func TestFig1bRemoteBelowThresholdExists(t *testing.T) {
	r := Fig1b(env(t))
	t.Logf("\n%s", r.Table.String())
	if len(r.Table.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Table.Rows))
	}
}

func TestFig10bAggregateRemoteShare(t *testing.T) {
	r := Fig10b(env(t))
	t.Logf("\n%s", r.Table.String())
	// The aggregate row is second-to-last.
	if len(r.Table.Rows) < 3 {
		t.Fatal("too few rows")
	}
}

func TestStudiedIXPs(t *testing.T) {
	e := env(t)
	studied := e.StudiedIXPs(30)
	if len(studied) < 15 {
		t.Fatalf("only %d studied IXPs with usable VPs", len(studied))
	}
	// Sorted by size descending.
	for i := 1; i < len(studied); i++ {
		a := len(e.World.MembersOf(studied[i-1].ID))
		b := len(e.World.MembersOf(studied[i].ID))
		if b > a {
			t.Fatal("studied IXPs not size-ordered")
		}
	}
}

func TestEnvDeterministic(t *testing.T) {
	e1, err := NewEnv(5)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := NewEnv(5)
	if err != nil {
		t.Fatal(err)
	}
	m1 := core0(e1)
	m2 := core0(e2)
	if m1 != m2 {
		t.Fatalf("environment not deterministic: %v vs %v", m1, m2)
	}
}

func core0(e *Env) [2]int {
	remote := 0
	for _, inf := range e.Report.All() {
		if inf.Class.String() == "remote" {
			remote++
		}
	}
	return [2]int{e.Report.Len(), remote}
}
