// Command rpi-replay re-drives the durable delta log of one rpi-serve
// tenant (the directory DIR/tenants/<name> under the server's
// -data-dir) and prints the inference state at any historical record
// index — the post-incident debugging tool: "what did the engine
// believe after delta N?".
//
// Usage:
//
//	rpi-replay -data-dir DIR/tenants/default [-seed N] [-scale N] [-upto N] [-summary]
//
// The base inputs (seed, scale) must match the ones the directory was
// written with — replay refuses a mismatched world rather than
// grafting a foreign log onto it. -upto bounds the replay at a delta
// sequence number (default: everything); snapshots newer than the
// bound are skipped, older ones shorten the replay. The directory is
// opened read-only: nothing is truncated or rewritten, even when the
// log ends in a torn record.
//
// Output is the full /v1 wire report on stdout, or a one-line summary
// with -summary.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"rpeer/pkg/rpi"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rpi-replay: ")
	dataDir := flag.String("data-dir", "", "one tenant's data directory, DIR/tenants/<name> under rpi-serve's -data-dir (required)")
	seed := flag.Int64("seed", 1, "world generation seed the directory was created with")
	scale := flag.Int("scale", 1, "world scale factor the directory was created with")
	upTo := flag.Uint64("upto", ^uint64(0), "replay up to and including this delta sequence (default: all)")
	summary := flag.Bool("summary", false, "print a one-line summary instead of the wire report")
	flag.Parse()
	if *dataDir == "" {
		log.Print("missing -data-dir")
		flag.Usage()
		os.Exit(2)
	}

	log.Printf("assembling base inputs (seed %d, scale %dx)...", *seed, *scale)
	in, err := rpi.SyntheticInputs(*seed, *scale)
	if err != nil {
		log.Fatal(err)
	}
	eng, info, err := rpi.Replay(*dataDir, in, *upTo)
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()
	if info.SnapshotName != "" {
		log.Printf("started from snapshot %s (seq %d)", info.SnapshotName, info.SnapshotSeq)
	}
	log.Printf("replayed %d deltas, state is at seq %d", info.Replayed, info.Seq)
	if info.TornTail {
		log.Printf("log ends in a torn record (%s) at byte %d — left untouched (read-only)",
			info.TornReason, info.TruncatedAt)
	}

	rep := eng.Snapshot()
	if *summary {
		var local, remote int
		for _, inf := range rep.All() {
			switch inf.Class {
			case rpi.ClassLocal:
				local++
			case rpi.ClassRemote:
				remote++
			}
		}
		fmt.Printf("seq %d: %d memberships, %d local, %d remote, %d multi-IXP routers\n",
			info.Seq, rep.Len(), local, remote, len(rep.MultiRouters))
		return
	}
	b, err := rpi.MarshalReport(rep)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := os.Stdout.Write(append(b, '\n')); err != nil {
		log.Fatal(err)
	}
}
