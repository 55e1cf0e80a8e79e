// Command rpi-experiments regenerates the tables and figures of the
// paper's evaluation and prints each next to the paper's reported
// claim, in paper order: all of them, or the ones -only names. Use
// -markdown to emit them as Markdown sections.
//
// Usage:
//
//	rpi-experiments [-seed N] [-markdown] [-only "Table 4,Fig 8"] [-threshold ms] [-workers N]
//
// -only "Table 4,Fig 8" prints the validation against ground truth:
// Table 4's per-step metrics, the RTT-threshold baseline's among them,
// and Fig 8's per-IXP breakdown. -threshold sets the baseline's
// remoteness threshold for every artefact that reads the baseline.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"rpeer/internal/exp"
	"rpeer/pkg/rpi"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rpi-experiments: ")
	seed := flag.Int64("seed", 1, "world generation seed")
	markdown := flag.Bool("markdown", false, "emit Markdown sections")
	only := flag.String("only", "", `comma-separated artefact IDs to regenerate, e.g. "Table 4,Fig 8" (default all)`)
	threshold := flag.Float64("threshold", rpi.DefaultBaselineThresholdMs,
		"baseline remoteness RTT threshold in ms")
	workers := flag.Int("workers", 0, "artefact workers (0 = one per CPU, 1 = serial)")
	flag.Parse()

	env, err := exp.NewEnv(*seed, rpi.WithThreshold(*threshold))
	if err != nil {
		log.Fatal(err)
	}
	var results []exp.Result
	if *only == "" {
		results = exp.All(env, *workers)
	} else {
		ids := strings.Split(*only, ",")
		for i := range ids {
			ids[i] = strings.TrimSpace(ids[i])
		}
		if results, err = exp.Select(env, *workers, ids); err != nil {
			log.Fatal(err)
		}
	}

	for _, r := range results {
		if *markdown {
			fmt.Printf("## %s — %s\n\n", r.ID, r.Title)
			fmt.Printf("**Paper:** %s\n\n", r.PaperClaim)
			fmt.Printf("**Measured (seed %d):**\n\n```\n", *seed)
			r.Table.Render(os.Stdout)
			fmt.Printf("```\n\n")
			for _, n := range r.Notes {
				fmt.Printf("> %s\n\n", n)
			}
			continue
		}
		fmt.Printf("=== %s: %s ===\n", r.ID, r.Title)
		r.Table.Render(os.Stdout)
		fmt.Printf("paper: %s\n", r.PaperClaim)
		for _, n := range r.Notes {
			fmt.Printf("note:  %s\n", n)
		}
		fmt.Println()
	}
}
