// Command bsbench turns `go test -bench` output into a benchmark-
// trajectory JSON file, so successive PRs can diff performance on the
// same experiments.
//
// It reads benchmark output on stdin, echoes every line through to stdout
// (the run stays readable), and writes the parsed results — name,
// iterations, ns/op, and when -benchmem is on, B/op and allocs/op — as
// sorted JSON to the -o file:
//
//	go test -run '^$' -bench . -benchmem . | bsbench -o BENCH_PR2.json
//
// With -against it also diffs the current run against a previous
// trajectory file and exits nonzero when any shared benchmark regressed
// beyond tolerance:
//
//	go test -run '^$' -bench . -benchmem . | bsbench -against BENCH_PR5.json
//
// The special value `-against latest` resolves to the newest checked-in
// BENCH_*.json (highest trailing number, so BENCH_PR10 beats BENCH_PR9),
// excluding any file the same run writes with -o. The Makefile gates use
// it so recording a new trajectory automatically retargets the diff.
//
// Allocation metrics (B/op, allocs/op) gate at 15% growth: they are
// near-deterministic, so a breach is a real regression. Wall time gates
// at the looser 100%, loose enough that shared-runner noise does not
// fail CI but a genuine blow-up does.
// Benchmarks present on only one side are never silently dropped: each
// is logged, and the summary line carries the skip count.
//
// Relative tolerances are meaningless for tiny benchmarks: a pooled hot
// path that allocates 12 KB/op one run and 48 KB/op the next (scratch
// warm-up landed on its op) has "regressed 300%" while the absolute
// movement is noise at dataset scale. Deltas below the absolute noise
// floors — 1 MiB, 512 allocs and 1 s — are therefore ignored;
// alloc.budgets still bounds every small benchmark absolutely.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"dnsbackscatter/internal/benchparse"
)

// regression is one metric that moved past its tolerance against the
// reference trajectory.
type regression struct {
	name, metric   string
	before, after  float64
	ratio, allowed float64
}

func (r regression) String() string {
	return fmt.Sprintf("%s %s regressed %.1f%% (%.0f -> %.0f, tolerance %.0f%%)",
		r.name, r.metric, (r.ratio-1)*100, r.before, r.after, r.allowed*100)
}

// floors holds the per-metric absolute deltas below which a relative
// regression is treated as noise.
type floors struct {
	bytes, allocs, ns float64
}

// The gate's settings: allowed fractional growth in allocation metrics
// and in wall time, and the absolute noise floors.
const (
	allocTolerance = 0.15
	timeTolerance  = 1.0
)

var noiseFloors = floors{bytes: 1 << 20, allocs: 512, ns: 1e9}

// compare diffs current against a reference trajectory. Benchmarks
// present on only one side are reported in skipped (renames and new
// benchmarks are not regressions); shared ones contribute a regression
// per metric that grew beyond its tolerance AND past the metric's
// absolute noise floor.
func compare(reference, current []benchparse.Result, tolerance, timeTolerance float64, fl floors) (regs []regression, skipped []string, shared int) {
	ref := make(map[string]benchparse.Result, len(reference))
	for _, r := range reference {
		ref[r.Name] = r
	}
	seen := make(map[string]bool, len(current))
	for _, cur := range current {
		seen[cur.Name] = true
		base, ok := ref[cur.Name]
		if !ok {
			skipped = append(skipped, cur.Name+" (not in reference)")
			continue
		}
		shared++
		check := func(metric string, before, after, allowed, floor float64) {
			if before <= 0 || after-before < floor {
				return
			}
			if ratio := after / before; ratio > 1+allowed {
				regs = append(regs, regression{cur.Name, metric, before, after, ratio, allowed})
			}
		}
		check("ns/op", base.NsPerOp, cur.NsPerOp, timeTolerance, fl.ns)
		check("B/op", base.BytesPerOp, cur.BytesPerOp, tolerance, fl.bytes)
		check("allocs/op", float64(base.AllocsPerOp), float64(cur.AllocsPerOp), tolerance, fl.allocs)
	}
	for _, r := range reference {
		if !seen[r.Name] {
			skipped = append(skipped, r.Name+" (not in current run)")
		}
	}
	sort.Strings(skipped)
	return regs, skipped, shared
}

// trailingNum extracts the number a trajectory filename ends with
// ("BENCH_PR10.json" -> 10); -1 when there is none, so numbered files
// always outrank unnumbered ones.
func trailingNum(path string) int {
	s := strings.TrimSuffix(filepath.Base(path), ".json")
	i := len(s)
	for i > 0 && s[i-1] >= '0' && s[i-1] <= '9' {
		i--
	}
	if i == len(s) {
		return -1
	}
	n, err := strconv.Atoi(s[i:])
	if err != nil {
		return -1
	}
	return n
}

// latestTrajectory resolves "-against latest" to the newest BENCH_*.json
// in dir — highest trailing number first, lexical order as tiebreak —
// skipping exclude (the file this run writes with -o, which would
// otherwise diff the run against itself).
func latestTrajectory(dir, exclude string) (string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return "", err
	}
	best, bestN := "", -1
	for _, m := range matches {
		if exclude != "" && filepath.Base(m) == filepath.Base(exclude) {
			continue
		}
		if n := trailingNum(m); n > bestN || (n == bestN && m > best) {
			best, bestN = m, n
		}
	}
	if best == "" {
		return "", fmt.Errorf("no prior BENCH_*.json trajectory in %s", dir)
	}
	return best, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bsbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("o", "", "write parsed results as JSON to this file (stdout JSON when empty)")
	workers := fs.Int("workers", 0, "stamp this pipeline worker count into every result (0 = omit)")
	against := fs.String("against", "", "reference trajectory JSON to diff the current run against; regressions beyond tolerance exit nonzero")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *against == "latest" {
		p, err := latestTrajectory(".", *out)
		if err != nil {
			fmt.Fprintln(stderr, "bsbench:", err)
			return 2
		}
		*against = p
		fmt.Fprintf(stderr, "bsbench: comparing against %s\n", p)
	}

	var results []benchparse.Result
	sc := bufio.NewScanner(stdin)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(stdout, line)
		if r, ok := benchparse.ParseLine(line); ok {
			r.Workers = *workers
			results = append(results, r)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(stderr, "bsbench: read:", err)
		return 1
	}
	// Sorted by name so the trajectory file is byte-stable run to run.
	benchparse.Sort(results)

	doc, err := benchparse.Marshal(results)
	if err != nil {
		fmt.Fprintln(stderr, "bsbench:", err)
		return 1
	}
	if *out == "" && *against == "" {
		_, _ = stdout.Write(doc)
	}
	if *out != "" {
		if err := os.WriteFile(*out, doc, 0o644); err != nil {
			fmt.Fprintln(stderr, "bsbench:", err)
			return 1
		}
		fmt.Fprintf(stderr, "bsbench: wrote %d results to %s\n", len(results), *out)
	}

	if *against == "" {
		return 0
	}
	reference, err := benchparse.LoadFile(*against)
	if err != nil {
		fmt.Fprintln(stderr, "bsbench:", err)
		return 2
	}
	regs, skipped, shared := compare(reference, results, allocTolerance, timeTolerance, noiseFloors)
	for _, s := range skipped {
		fmt.Fprintln(stderr, "bsbench: skipped:", s)
	}
	if len(regs) > 0 {
		for _, r := range regs {
			fmt.Fprintln(stderr, "bsbench: REGRESSION:", r)
		}
		fmt.Fprintf(stderr, "bsbench: %d regression(s) against %s (%d shared, %d skipped)\n",
			len(regs), *against, shared, len(skipped))
		return 1
	}
	fmt.Fprintf(stderr, "bsbench: no regressions against %s (%d shared benchmarks, %d skipped)\n",
		*against, shared, len(skipped))
	return 0
}
