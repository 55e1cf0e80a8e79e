// Quickstart: generate a synthetic IXP ecosystem, stand up a
// long-lived inference engine from the public SDK (pkg/rpi), read the
// headline verdicts, absorb a membership-churn delta incrementally,
// and score the result against ground truth — the shortest possible
// tour of the public API.
package main

import (
	"context"
	"fmt"
	"log"

	"rpeer/pkg/rpi"
)

func main() {
	log.SetFlags(0)

	// 1. A complete synthetic input world: seeded topology, merged
	//    registry dataset, colocation DB, ping campaign, traceroutes.
	inputs, err := rpi.SyntheticInputs(1, 1)
	if err != nil {
		log.Fatal(err)
	}

	// 2. The engine: builds the shared inference substrate once and
	//    runs the five-step methodology over it.
	eng, err := rpi.New(inputs, rpi.WithWorkers(0))
	if err != nil {
		log.Fatal(err)
	}
	rep := eng.Snapshot()

	// 3. Headline numbers.
	var local, remote, unknown int
	for _, inf := range rep.All() {
		switch inf.Class {
		case rpi.ClassLocal:
			local++
		case rpi.ClassRemote:
			remote++
		default:
			unknown++
		}
	}
	fmt.Printf("interfaces classified: %d\n", local+remote+unknown)
	fmt.Printf("  local:   %d\n", local)
	fmt.Printf("  remote:  %d (%.1f%% of decided)\n", remote,
		100*float64(remote)/float64(local+remote))
	fmt.Printf("  unknown: %d\n", unknown)
	fmt.Printf("multi-IXP routers observed: %d\n", len(rep.MultiRouters))

	// 4. The world churns: absorb a 1% membership delta incrementally
	//    (no context rebuild) and see which verdicts moved.
	update, err := eng.Apply(context.Background(), rpi.ChurnDelta(eng.Inputs(), 0.01, 42))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("applied delta #%d: %d joins, %d leaves -> %d verdict changes\n",
		update.Seq, update.Joined, update.Left, len(update.Changes))

	// 5. Score against ground truth.
	val := rpi.BuildValidation(inputs.World, rpi.DefaultValidationConfig())
	m := rpi.Evaluate(eng.Snapshot(), val.InIXPs(val.TestIXPs))
	fmt.Printf("validation (test subset): ACC=%.1f%% PRE=%.1f%% COV=%.1f%%\n",
		100*m.ACC, 100*m.PRE, 100*m.COV)
}
