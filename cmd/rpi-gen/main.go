// Command rpi-gen generates a synthetic IXP world and writes the
// complete input bundle (world, registry, colo DB, ping campaign,
// traceroute corpus) in the binary columnar .rpw format of
// internal/worldfile: the "generate once, serve many" path. The file
// is what rpi-serve -world and the scaling benchmarks load, skipping
// world generation entirely.
//
// Usage:
//
//	rpi-gen [-seed N] [-scale N] [-ases N] [-ixps N] -o world.rpw
//
// -o is required and must end in .rpw; otherwise rpi-gen prints usage
// and exits 2.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"rpeer/internal/netsim"
	"rpeer/internal/worldfile"
	"rpeer/pkg/rpi"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rpi-gen: ")
	seed := flag.Int64("seed", 1, "world generation seed")
	scale := flag.Int("scale", 1, "world scale factor (1 = paper-sized default)")
	ases := flag.Int("ases", 0, "override number of ASes (0 = default)")
	ixps := flag.Int("ixps", 0, "override number of IXPs (0 = default)")
	out := flag.String("o", "", "output world bundle (required, must end in .rpw)")
	flag.Parse()
	if !strings.HasSuffix(*out, ".rpw") {
		fmt.Fprintln(os.Stderr, "rpi-gen: -o must name a .rpw file")
		flag.Usage()
		os.Exit(2)
	}

	cfg := netsim.DefaultConfig()
	if *scale > 1 {
		cfg = netsim.ScaledConfig(*scale)
	}
	cfg.Seed = *seed
	if *ases > 0 {
		cfg.NASes = *ases
	}
	if *ixps > 0 {
		cfg.NIXPs = *ixps
	}

	start := time.Now()
	in, err := rpi.InputsFromConfig(cfg, *seed)
	if err != nil {
		log.Fatal(err)
	}
	genDone := time.Now()
	if err := worldfile.WriteFile(*out, in); err != nil {
		log.Fatal(err)
	}
	st, err := os.Stat(*out)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr,
		"rpi-gen: world bundle %s: %d memberships, %d paths, %.1f MB (generate %s, write %s)\n",
		*out, len(in.World.Members), in.Paths.Len(), float64(st.Size())/(1<<20),
		genDone.Sub(start).Round(time.Millisecond), time.Since(genDone).Round(time.Millisecond))
}
