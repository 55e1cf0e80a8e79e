// Reseller ecosystem: this example exercises Step 1 of the
// methodology in isolation. Port resellers split physical IXP ports
// into fractional virtual ports; any member whose recorded capacity is
// below the exchange's minimum physical port must therefore be a
// reseller customer — a high-precision remote-peering signal. The
// example detects reseller customers across the world's IXPs, shows
// the precision of the signal against ground truth, and summarises the
// reseller market it uncovers.
package main

import (
	"fmt"
	"log"
	"sort"

	"rpeer/internal/exp"
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

	// Step 1 standalone: the port-capacity rule in isolation, over the
	// environment's shared inference engine.
	rep, err := env.Engine.RunStep(rpi.StepPortCapacity)
	if err != nil {
		log.Fatal(err)
	}

	var flagged, trueRemote, trueReseller int
	byIXP := make(map[string]int)
	truth := make(map[string]*netsim.Member)
	for _, m := range world.Members {
		truth[m.Iface.String()] = m
	}
	for _, inf := range rep.All() {
		if inf.Class != rpi.ClassRemote {
			continue
		}
		flagged++
		byIXP[inf.IXP]++
		if m := truth[inf.Iface.String()]; m != nil {
			if m.Remote() {
				trueRemote++
			}
			if m.Kind == netsim.ConnReseller {
				trueReseller++
			}
		}
	}
	fmt.Printf("fractional-port members flagged: %d\n", flagged)
	fmt.Printf("  truly remote:            %d (precision %.1f%%)\n",
		trueRemote, 100*float64(trueRemote)/float64(flagged))
	fmt.Printf("  truly reseller customers: %d\n\n", trueReseller)

	// Which IXPs host the most reseller customers?
	type row struct {
		name string
		n    int
	}
	var rows []row
	for name, n := range byIXP {
		rows = append(rows, row{name, n})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].n != rows[j].n {
			return rows[i].n > rows[j].n
		}
		return rows[i].name < rows[j].name
	})
	t := report.NewTable("Reseller customers by IXP (top 8)",
		"IXP", "flagged", "allows resellers", "min physical port")
	for i, r := range rows {
		if i >= 8 {
			break
		}
		ix := env.IXPByName(r.name)
		t.AddRow(r.name, r.n, ix.AllowsResellers, fmt.Sprintf("%d Mbps", ix.MinPortMbps))
	}
	fmt.Println(t.String())

	// The reseller organisations themselves.
	t2 := report.NewTable("Reseller organisations", "Reseller", "POP facilities", "home")
	for _, asn := range world.Resellers {
		r := world.AS(asn)
		t2.AddRow(r.Name, len(r.ResellerPOPs), r.HomeCity)
	}
	fmt.Println(t2.String())
}
