// Command covercheck snapshots and gates per-package test coverage.
//
// It reads `go test -cover ./...` output on stdin and either writes a JSON
// floor file (-write) or compares against one (-check), failing when a
// gated package's statement coverage drops below its recorded floor:
//
//	go test -cover ./... | covercheck -write -floor COVER_floor.json
//	go test -cover ./... | covercheck -check -floor COVER_floor.json
//
// The floor file is committed and updated deliberately, like
// BENCH_baseline.json: a drop below a floor means a change shed tests, not
// that the machine was slow. `make cover` / `make cover-floor` wrap both
// modes.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Floor is the COVER_floor.json schema: statement-coverage floors in
// percent per import path. Only listed packages are gated; everything else
// is reported.
type Floor struct {
	// Note documents how the snapshot was taken and how to refresh it.
	Note     string             `json:"note"`
	Packages map[string]float64 `json:"packages"`
}

// coverLine matches `ok  spotserve/internal/x  0.25s  coverage: 85.3% of
// statements` (and the cached-run variant without a timing column).
var coverLine = regexp.MustCompile(`^ok\s+(\S+)\s+.*coverage:\s+([0-9.]+)% of statements`)

// parse extracts per-package coverage percentages from `go test -cover`
// output. Packages without test files (`? ... [no test files]`) and
// `[no statements]` lines carry no percentage and are skipped — a gated
// package losing its tests therefore fails the check as "missing".
func parse(r *bufio.Scanner) map[string]float64 {
	out := map[string]float64{}
	for r.Scan() {
		m := coverLine.FindStringSubmatch(r.Text())
		if m == nil {
			continue
		}
		pct, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		out[m[1]] = pct
	}
	return out
}

func main() {
	var (
		floorPath = flag.String("floor", "COVER_floor.json", "floor JSON path")
		write     = flag.Bool("write", false, "write the floor file from stdin results")
		check     = flag.Bool("check", false, "compare stdin results against the floor file")
		gate      = flag.String("gate", "spotserve/internal/analysis,spotserve/internal/calibrate,spotserve/internal/core,spotserve/internal/cost,spotserve/internal/engine,spotserve/internal/reconfig,spotserve/internal/scenario,spotserve/internal/serve,spotserve/internal/sim",
			"comma-separated packages recorded by -write (the -check gate is whatever the floor file lists)")
	)
	flag.Parse()
	if *write == *check {
		fmt.Fprintln(os.Stderr, "covercheck: exactly one of -write / -check required")
		os.Exit(2)
	}

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	cur := parse(sc)
	if len(cur) == 0 {
		fmt.Fprintln(os.Stderr, "covercheck: no coverage results on stdin (run `go test -cover ./...`)")
		os.Exit(2)
	}

	if *write {
		f := Floor{
			Note:     "statement-coverage floors in percent; refresh deliberately with `make cover-floor` when coverage moves",
			Packages: map[string]float64{},
		}
		for _, pkg := range strings.Split(*gate, ",") {
			pkg = strings.TrimSpace(pkg)
			if pkg == "" {
				continue
			}
			pct, ok := cur[pkg]
			if !ok {
				fmt.Fprintf(os.Stderr, "covercheck: gated package %s missing from input\n", pkg)
				os.Exit(2)
			}
			f.Packages[pkg] = pct
		}
		data, err := json.MarshalIndent(f, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "covercheck:", err)
			os.Exit(2)
		}
		if err := os.WriteFile(*floorPath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "covercheck:", err)
			os.Exit(2)
		}
		names := make([]string, 0, len(f.Packages))
		for n := range f.Packages {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Printf("covercheck: wrote %s with %d floors:\n", *floorPath, len(f.Packages))
		for _, n := range names {
			fmt.Printf("  %-45s %6.1f%%\n", n, f.Packages[n])
		}
		return
	}

	data, err := os.ReadFile(*floorPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "covercheck: %v (run `make cover-floor` first)\n", err)
		os.Exit(2)
	}
	var floor Floor
	if err := json.Unmarshal(data, &floor); err != nil {
		fmt.Fprintf(os.Stderr, "covercheck: bad floor file %s: %v\n", *floorPath, err)
		os.Exit(2)
	}

	failed := false
	names := make([]string, 0, len(cur))
	for n := range cur {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		got := cur[n]
		want, gated := floor.Packages[n]
		if !gated {
			fmt.Printf("  %-45s %6.1f%%  (not gated)\n", n, got)
			continue
		}
		status := "ok"
		// The tiny epsilon forgives float formatting, not coverage loss.
		if got+1e-9 < want {
			status = fmt.Sprintf("FAIL (floor %.1f%%)", want)
			failed = true
		}
		fmt.Printf("  %-45s %6.1f%%  floor %6.1f%%  %s\n", n, got, want, status)
	}
	for n := range floor.Packages {
		if _, ok := cur[n]; !ok {
			fmt.Fprintf(os.Stderr, "covercheck: gated package %s missing from input (tests deleted or build broken?)\n", n)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}
