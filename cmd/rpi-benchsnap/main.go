// Command rpi-benchsnap converts `go test -bench` output into a JSON
// snapshot, so benchmark trajectories can be compared across PRs
// without parsing text logs.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem | rpi-benchsnap -o BENCH.json
//
// or, letting rpi-benchsnap drive `go test` itself (which also unlocks
// profiling for hot-path hunts):
//
//	rpi-benchsnap -bench 'BenchmarkFullPipeline$' -cpuprofile cpu.prof -o BENCH.json
//
// Each benchmark line becomes one record with its ns/op, B/op,
// allocs/op and any custom metrics (ACC%, COV%, ...).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// Record is one benchmark result.
type Record struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  *float64           `json:"b_per_op,omitempty"`
	AllocsPerOp *float64           `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Snapshot is the file layout.
type Snapshot struct {
	GoOS   string   `json:"goos,omitempty"`
	GoArch string   `json:"goarch,omitempty"`
	Pkg    string   `json:"pkg,omitempty"`
	CPU    string   `json:"cpu,omitempty"`
	Bench  []Record `json:"benchmarks"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("rpi-benchsnap: ")
	out := flag.String("o", "", "output file (default stdout)")
	bench := flag.String("bench", "", "run `go test -bench` with this pattern instead of reading stdin")
	benchtime := flag.String("benchtime", "", "passed through to go test -benchtime (requires -bench)")
	pkg := flag.String("pkg", ".", "package to benchmark (requires -bench)")
	cpuprofile := flag.String("cpuprofile", "", "passed through to go test -cpuprofile: write a CPU profile of the benchmark run for hot-path hunts (requires -bench)")
	flag.Parse()

	var src io.Reader = os.Stdin
	if *bench == "" {
		if *benchtime != "" || *cpuprofile != "" {
			log.Fatal("-benchtime and -cpuprofile require -bench (they are flags of the go test run)")
		}
	} else {
		args := []string{"test", "-run", "^$", "-bench", *bench, "-benchmem"}
		if *benchtime != "" {
			args = append(args, "-benchtime", *benchtime)
		}
		if *cpuprofile != "" {
			// Profiling makes `go test` keep the test binary; point it
			// at the temp dir instead of littering the repository.
			args = append(args, "-cpuprofile", *cpuprofile,
				"-o", filepath.Join(os.TempDir(), "rpi-benchsnap.test"))
		}
		args = append(args, *pkg)
		var sb strings.Builder
		cmd := exec.Command("go", args...)
		// Mirror the raw bench lines to stderr so the usual progress
		// stays visible while the snapshot parses the copy.
		cmd.Stdout = io.MultiWriter(&sb, os.Stderr)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			log.Fatalf("go %s: %v", strings.Join(args, " "), err)
		}
		src = strings.NewReader(sb.String())
	}

	snap := Snapshot{}
	sc := bufio.NewScanner(src)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			snap.GoOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			snap.GoArch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			snap.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			snap.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			if r, ok := parseBenchLine(line); ok {
				snap.Bench = append(snap.Bench, r)
			}
		}
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
	if len(snap.Bench) == 0 {
		log.Fatal("no benchmark lines on stdin")
	}

	enc, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "" {
		if _, err := os.Stdout.Write(enc); err != nil {
			log.Fatal(err)
		}
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "rpi-benchsnap: wrote %d benchmarks to %s\n", len(snap.Bench), *out)
}

// parseBenchLine parses one result line, e.g.
//
//	BenchmarkFullPipeline-8  3  64908131 ns/op  16426717 B/op  78896 allocs/op  91.03 ACC%
func parseBenchLine(line string) (Record, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Record{}, false
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		// Strip the -GOMAXPROCS suffix.
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Record{}, false
	}
	r := Record{Name: name, Iterations: iters}
	// Remaining fields come in (value, unit) pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Record{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			b := v
			r.BytesPerOp = &b
		case "allocs/op":
			a := v
			r.AllocsPerOp = &a
		default:
			if r.Metrics == nil {
				r.Metrics = make(map[string]float64)
			}
			r.Metrics[unit] = v
		}
	}
	return r, r.NsPerOp > 0
}
