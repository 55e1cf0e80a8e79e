// Routing impact (paper Section 6.4): once remote peers at a flagship
// exchange are known, their routing behaviour can be audited. For
// every inferred remote member and every peer it shares a second
// exchange with, this example checks whether traffic crosses the
// latency-optimal interconnection, and quantifies the two failure
// modes: using the remote link although a closer exchange exists, and
// ignoring a remote link that would have been closer.
package main

import (
	"fmt"
	"log"
	"sort"

	"rpeer/internal/exp"
	"rpeer/internal/netsim"
	"rpeer/internal/report"
	"rpeer/internal/routing"
	"rpeer/pkg/rpi"
)

func main() {
	log.SetFlags(0)

	env, err := exp.NewEnv(1)
	if err != nil {
		log.Fatal(err)
	}
	flagship := env.StudiedIXPs(1)[0]

	// The remote members our methodology inferred at the flagship.
	var remotes []netsim.ASN
	seen := make(map[netsim.ASN]bool)
	for _, inf := range env.Report.All() {
		if inf.IXP == flagship.Name && inf.Class == rpi.ClassRemote && !seen[inf.ASN] {
			seen[inf.ASN] = true
			remotes = append(remotes, inf.ASN)
		}
	}
	fmt.Printf("flagship IXP: %s (%d members, %d inferred remote)\n\n",
		flagship.Name, len(env.World.MembersOf(flagship.ID)), len(remotes))

	a := routing.Analyze(env.World, flagship.ID, remotes, routing.DefaultConfig())
	hot, farther, closer := a.Fractions()
	t := report.NewTable("Exit choices of remote members (per peer pair)",
		"Outcome", "pairs", "share")
	t.AddRow("hot-potato compliant", a.HotPotato, report.Pct(hot))
	t.AddRow("crossed remote link, closer IXP existed", a.FartherRP, report.Pct(farther))
	t.AddRow("crossed other IXP, remote link was closer", a.CloserRP, report.Pct(closer))
	fmt.Println(t.String())

	// How much distance is being wasted by the non-compliant pairs?
	var deltas []float64
	for _, p := range a.Pairs {
		if p.Outcome != routing.HotPotato {
			deltas = append(deltas, p.DeltaKm)
		}
	}
	sort.Float64s(deltas)
	if len(deltas) > 0 {
		e := report.NewECDF(deltas)
		fmt.Printf("wasted exit distance across %d non-compliant pairs:\n", len(deltas))
		fmt.Printf("  median %.0f km, p90 %.0f km, max %.0f km\n",
			e.Median(), e.Quantile(0.9), e.Quantile(1))
		fmt.Println("\nEvery 100 km of detour costs roughly a millisecond of RTT;")
		fmt.Println("traffic engineering with remote-peering visibility recovers it.")
	}
}
