package rpi

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"rpeer/internal/core"
)

// TestColdFirstRunMatchesWarmRuns pins the cold path on the wire: a
// fresh context's first run (which probes the alias plane and fills
// every alias memo), its warm second run, and cold first runs at every
// worker count marshal to identical bytes, in both alias modes.
func TestColdFirstRunMatchesWarmRuns(t *testing.T) {
	in := testInputs(t)
	for _, mode := range []AliasMode{AliasPrecision, AliasCoverage} {
		opt := core.DefaultOptions()
		opt.AliasMode = mode
		marshal := func(label string, ctx *core.Context, workers int) []byte {
			t.Helper()
			o := opt
			o.Workers = workers
			rep, err := ctx.Run(o)
			if err != nil {
				t.Fatal(err)
			}
			b, err := MarshalReport(rep)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.MultiRouters) == 0 {
				t.Fatalf("%v/%s: no multi-IXP routers; the run must exercise alias resolution", mode, label)
			}
			return b
		}
		fresh := func() *core.Context {
			ctx, err := core.NewContext(in)
			if err != nil {
				t.Fatal(err)
			}
			return ctx
		}
		ctx := fresh()
		first := marshal("first", ctx, 0)
		if warm := marshal("warm", ctx, 0); !bytes.Equal(first, warm) {
			t.Fatalf("%v: warm run diverges from the cold first run", mode)
		}
		for _, workers := range []int{1, 4, runtime.NumCPU()} {
			label := fmt.Sprintf("cold workers=%d", workers)
			if got := marshal(label, fresh(), workers); !bytes.Equal(first, got) {
				t.Fatalf("%v: %s diverges from the default cold run", mode, label)
			}
		}
	}
}
