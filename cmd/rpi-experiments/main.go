// Command rpi-experiments regenerates every table and figure of the
// paper's evaluation and prints each next to the paper's reported
// claim, in paper order. Use -markdown to emit the EXPERIMENTS.md
// body.
//
// Usage:
//
//	rpi-experiments [-seed N] [-markdown]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"rpeer/internal/exp"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rpi-experiments: ")
	seed := flag.Int64("seed", 1, "world generation seed")
	markdown := flag.Bool("markdown", false, "emit Markdown (EXPERIMENTS.md body)")
	workers := flag.Int("workers", 0, "artefact workers (0 = one per CPU, 1 = serial)")
	flag.Parse()

	env, err := exp.NewEnv(*seed)
	if err != nil {
		log.Fatal(err)
	}
	results := exp.All(env, *workers)

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
