// Wide-area IXP pitfalls: this example reproduces the paper's Section
// 4 argument. It picks the largest wide-area IXP of a generated world
// (an NL-IX/NET-IX analogue whose switching fabric spans many metros),
// shows the inter-facility Y.1731 delays, and then compares what the
// naive 10ms RTT threshold and the colocation-informed Step 3 infer
// for that IXP's *local* members.
package main

import (
	"fmt"
	"log"
	"sort"

	"rpeer/internal/exp"
	"rpeer/internal/geo"
	"rpeer/internal/netsim"
	"rpeer/internal/report"
	"rpeer/pkg/rpi"
)

func main() {
	log.SetFlags(0)

	env, err := exp.NewEnv(1)
	if err != nil {
		log.Fatal(err)
	}
	world := env.World

	// The geographically widest IXP that also hosts a usable vantage
	// point (so the RTT-threshold baseline is actually measurable).
	var wide *netsim.IXP
	var wideSpread float64
	for _, ix := range env.StudiedIXPs(len(world.IXPs)) {
		if !ix.WideArea {
			continue
		}
		d, _, _ := geo.MaxPairwiseKm(world.FacilityLocs(ix.ID))
		if d > wideSpread {
			wide, wideSpread = ix, d
		}
	}
	if wide == nil {
		log.Fatal("no wide-area IXP in this world")
	}
	fmt.Printf("wide-area IXP: %s — %d facilities, max spread %.0f km\n\n",
		wide.Name, len(wide.Facilities), wideSpread)

	// Y.1731-style inter-facility delays (Fig 2a).
	delays := world.Latency().InterFacilityDelays(wide.ID)
	sort.Slice(delays, func(i, j int) bool { return delays[i].RTTMs > delays[j].RTTMs })
	over10 := 0
	for _, d := range delays {
		if d.RTTMs > 10 {
			over10++
		}
	}
	fmt.Printf("inter-facility delay pairs: %d, of which %.0f%% above 10 ms\n",
		len(delays), 100*float64(over10)/float64(len(delays)))
	for _, d := range delays[:3] {
		fmt.Printf("  worst pairs: %.0f km apart -> %.1f ms\n", d.DistanceKm, d.RTTMs)
	}

	// How the naive threshold and the methodology treat this IXP's
	// ground-truth local members.
	var naiveWrong, methodWrong, locals int
	rtts := env.Ping.MinRTTByIface()
	for _, m := range world.MembersOf(wide.ID) {
		if m.Remote() {
			continue
		}
		locals++
		if rtt, ok := rtts[m.Iface]; ok && rtt > rpi.DefaultBaselineThresholdMs {
			naiveWrong++
		}
		k := rpi.Key{IXP: wide.Name, Iface: m.Iface}
		if inf, ok := env.Report.Lookup(k); ok && inf.Class == rpi.ClassRemote {
			methodWrong++
		}
	}
	t := report.NewTable(fmt.Sprintf("\nLocal members of %s misclassified as remote", wide.Name),
		"Approach", "wrong", "of", "error")
	t.AddRow("RTTmin > 10ms (Castro et al.)", naiveWrong, locals,
		report.Pct(float64(naiveWrong)/float64(locals)))
	t.AddRow("five-step methodology", methodWrong, locals,
		report.Pct(float64(methodWrong)/float64(locals)))
	fmt.Println(t.String())
	fmt.Println("A remoteness RTT threshold is meaningless for wide-area IXPs:")
	fmt.Println("members patched in at a distant facility are local by definition,")
	fmt.Println("yet sit tens of milliseconds away from the measurement VP.")
}
