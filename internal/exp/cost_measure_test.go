package exp

import (
	"os"
	"testing"
	"time"
)

// TestMeasureArtefactCosts prints a freshly measured cost table for
// the All schedule. Run manually with:
//
//	RPEER_MEASURE_COSTS=1 go test ./internal/exp -run MeasureArtefactCosts -v
func TestMeasureArtefactCosts(t *testing.T) {
	if os.Getenv("RPEER_MEASURE_COSTS") == "" {
		t.Skip("set RPEER_MEASURE_COSTS=1 to run")
	}
	e := env(t)
	names := []string{
		"Table1", "Table2", "Fig1a", "Fig1b", "Fig2a", "Fig2b", "Fig4", "Fig5",
		"Fig6", "Table4", "Fig8", "Table5", "Fig9a", "Fig9b", "Fig9c", "Fig9d",
		"Fig10a", "Fig10b", "Fig11a", "Fig11b", "Fig12a", "Fig12b", "Sec64",
		"Sec7", "Sec8", "Sec8Longitudinal",
	}
	// Warm the shared caches once (the schedule orders the warm-cache
	// costs; first-touch costs belong to whichever artefact runs first
	// and are dominated by the same heavy rows).
	for _, a := range artefacts {
		a.fn(e)
	}
	for i, a := range artefacts {
		best := time.Duration(1 << 62)
		for r := 0; r < 3; r++ {
			start := time.Now()
			a.fn(e)
			if d := time.Since(start); d < best {
				best = d
			}
		}
		t.Logf("{%s, %d},", names[i], best.Microseconds())
	}
}
