// Command rpi-infer runs the full five-step remote peering inference
// pipeline over a generated world and prints the per-IXP verdicts: how
// many members are local, remote or undecided, and which step decided
// them (the Fig 10a/10b view).
//
// Usage:
//
//	rpi-infer [-seed N] [-top N] [-workers N] [-v]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"rpeer/internal/exp"
	"rpeer/internal/report"
	"rpeer/pkg/rpi"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rpi-infer: ")
	seed := flag.Int64("seed", 1, "world generation seed")
	top := flag.Int("top", 30, "number of largest IXPs to report")
	workers := flag.Int("workers", 0, "inference shard workers (0 = one per CPU, 1 = serial)")
	verbose := flag.Bool("v", false, "also list per-interface verdicts of the largest IXP")
	flag.Parse()

	env, err := exp.NewEnv(*seed, rpi.WithWorkers(*workers))
	if err != nil {
		log.Fatal(err)
	}

	t := report.NewTable("Remote peering inference (per IXP)",
		"IXP", "interfaces", "local", "remote", "unknown", "remote %",
		"step1", "step2+3", "step4", "step5")
	shares := env.Report.StepShare()
	var totLocal, totRemote, totUnknown int
	for _, ix := range env.StudiedIXPs(*top) {
		var local, remote, unknown int
		lo, hi := env.Report.IXPRange(ix.Name)
		for i := lo; i < hi; i++ {
			switch env.Report.At(i).Class {
			case rpi.ClassLocal:
				local++
			case rpi.ClassRemote:
				remote++
			default:
				unknown++
			}
		}
		totLocal += local
		totRemote += remote
		totUnknown += unknown
		dec := local + remote
		share := 0.0
		if dec > 0 {
			share = float64(remote) / float64(dec)
		}
		s := shares[ix.Name]
		t.AddRow(ix.Name, dec+unknown, local, remote, unknown, report.Pct(share),
			report.Pct(s[rpi.StepPortCapacity]), report.Pct(s[rpi.StepRTTColo]),
			report.Pct(s[rpi.StepMultiIXP]), report.Pct(s[rpi.StepPrivate]))
	}
	t.AddRow("TOTAL", totLocal+totRemote+totUnknown, totLocal, totRemote, totUnknown,
		report.Pct(float64(totRemote)/float64(totLocal+totRemote)), "-", "-", "-", "-")
	t.Render(os.Stdout)

	fmt.Printf("\nmulti-IXP routers observed: %d\n", len(env.Report.MultiRouters))

	if *verbose {
		ix := env.StudiedIXPs(1)[0]
		fmt.Printf("\nPer-interface verdicts at %s:\n", ix.Name)
		lo, hi := env.Report.IXPRange(ix.Name)
		for i := lo; i < hi; i++ {
			inf := env.Report.At(i)
			rtt := "-"
			if inf.HasRTT() {
				rtt = fmt.Sprintf("%.2fms", inf.RTTMinMs)
			}
			fmt.Printf("  %-16s %-8s %-8s via %-13s rtt=%s\n",
				inf.Iface, inf.ASN, inf.Class, inf.Step, rtt)
		}
	}
}
