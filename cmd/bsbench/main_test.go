package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dnsbackscatter/internal/benchparse"
)

func TestParseBenchLine(t *testing.T) {
	r, ok := benchparse.ParseLine("BenchmarkExtract-8   \t 12\t 95123456 ns/op\t 35180928 B/op\t  196373 allocs/op")
	if !ok {
		t.Fatal("bench line did not parse")
	}
	if r.Name != "BenchmarkExtract" || r.Iterations != 12 || r.NsPerOp != 95123456 ||
		r.BytesPerOp != 35180928 || r.AllocsPerOp != 196373 {
		t.Fatalf("parsed %+v", r)
	}
	if _, ok := benchparse.ParseLine("ok  \tdnsbackscatter\t1.2s"); ok {
		t.Fatal("non-bench line parsed")
	}
}

func refResults() []benchparse.Result {
	return []benchparse.Result{
		{Name: "BenchmarkA", NsPerOp: 1000, BytesPerOp: 1000, AllocsPerOp: 100},
		{Name: "BenchmarkGone", NsPerOp: 500, BytesPerOp: 500, AllocsPerOp: 50},
	}
}

// TestCompare covers the gate's three behaviors: within-tolerance passes,
// a >15% allocation growth is a regression, and benchmarks on only one
// side are skipped, not failed.
func TestCompare(t *testing.T) {
	current := []benchparse.Result{
		{Name: "BenchmarkA", NsPerOp: 1100, BytesPerOp: 1100, AllocsPerOp: 110}, // +10%: inside 15%
		{Name: "BenchmarkNew", NsPerOp: 1, BytesPerOp: 1, AllocsPerOp: 1},
	}
	regs, skipped, shared := compare(refResults(), current, 0.15, 1.0, floors{})
	if len(regs) != 0 {
		t.Fatalf("within-tolerance run flagged: %v", regs)
	}
	if shared != 1 || len(skipped) != 2 {
		t.Fatalf("shared=%d skipped=%v, want 1 shared and 2 skipped", shared, skipped)
	}

	current[0].BytesPerOp = 1200 // +20% B/op
	current[0].NsPerOp = 2500    // +150% ns/op, past even the loose gate
	regs, _, _ = compare(refResults(), current, 0.15, 1.0, floors{})
	if len(regs) != 2 {
		t.Fatalf("got %d regressions, want 2 (B/op and ns/op): %v", len(regs), regs)
	}
	msg := regs[0].String() + regs[1].String()
	if !strings.Contains(msg, "B/op") || !strings.Contains(msg, "ns/op") {
		t.Fatalf("regression report missing metrics: %s", msg)
	}
}

// TestCompareNoiseFloors pins the absolute floors: a huge relative jump
// whose absolute delta is tiny (pooled-scratch warm-up noise) passes,
// while the same relative jump past the floor still fails.
func TestCompareNoiseFloors(t *testing.T) {
	ref := []benchparse.Result{{Name: "BenchmarkTiny", NsPerOp: 1000, BytesPerOp: 12000, AllocsPerOp: 70}}
	cur := []benchparse.Result{{Name: "BenchmarkTiny", NsPerOp: 500000, BytesPerOp: 49000, AllocsPerOp: 180}}
	fl := floors{bytes: 1 << 20, allocs: 512, ns: 1e9}
	if regs, _, _ := compare(ref, cur, 0.15, 1.0, fl); len(regs) != 0 {
		t.Fatalf("sub-floor deltas flagged: %v", regs)
	}
	cur[0].BytesPerOp = 12000 + 2<<20 // past the byte floor and far past 15%
	regs, _, _ := compare(ref, cur, 0.15, 1.0, fl)
	if len(regs) != 1 || regs[0].metric != "B/op" {
		t.Fatalf("past-floor regression not flagged: %v", regs)
	}
}

func runBsbench(t *testing.T, stdin string, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, strings.NewReader(stdin), &out, &errb)
	return code, out.String(), errb.String()
}

const benchOutput = `goos: linux
BenchmarkA-8	100	1000 ns/op	1000 B/op	100 allocs/op
PASS
`

// TestRunAgainst drives the CLI end to end: a clean diff exits 0, a
// regressed run exits 1 and names the metric.
func TestRunAgainst(t *testing.T) {
	dir := t.TempDir()
	refPath := filepath.Join(dir, "ref.json")
	doc, err := json.Marshal(refResults())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(refPath, doc, 0o644); err != nil {
		t.Fatal(err)
	}

	code, _, stderr := runBsbench(t, benchOutput, "-against", refPath)
	if code != 0 {
		t.Fatalf("exit %d on identical run; stderr=%s", code, stderr)
	}
	if !strings.Contains(stderr, "no regressions") {
		t.Errorf("stderr lacks the all-clear: %s", stderr)
	}

	// A B/op growth past the 1 MiB noise floor exercises the relative
	// gate itself.
	regressed := strings.Replace(benchOutput, "1000 B/op", "2000000 B/op", 1)
	code, _, stderr = runBsbench(t, regressed, "-against", refPath)
	if code != 1 {
		t.Fatalf("exit %d on regressed run, want 1; stderr=%s", code, stderr)
	}
	if !strings.Contains(stderr, "REGRESSION") || !strings.Contains(stderr, "B/op") {
		t.Errorf("stderr lacks the regression report: %s", stderr)
	}

	code, _, stderr = runBsbench(t, benchOutput, "-against", filepath.Join(dir, "missing.json"))
	if code != 2 {
		t.Fatalf("exit %d on missing reference, want 2; stderr=%s", code, stderr)
	}
}

// TestLatestTrajectory pins "-against latest" resolution: numeric order
// beats lexical (PR10 > PR9), the -o file is excluded, and an empty dir
// is an error rather than a silent pass.
func TestLatestTrajectory(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"BENCH_PR9.json", "BENCH_PR10.json", "BENCH_PR2.json"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("[]"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := latestTrajectory(dir, "")
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(got) != "BENCH_PR10.json" {
		t.Fatalf("latest = %s, want BENCH_PR10.json", got)
	}
	got, err = latestTrajectory(dir, "BENCH_PR10.json")
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(got) != "BENCH_PR9.json" {
		t.Fatalf("latest excluding PR10 = %s, want BENCH_PR9.json", got)
	}
	if _, err := latestTrajectory(t.TempDir(), ""); err == nil {
		t.Fatal("empty dir resolved a trajectory")
	}
}

// TestRunWritesTrajectory pins the -o flow the Makefile bench target uses.
func TestRunWritesTrajectory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	code, stdout, _ := runBsbench(t, benchOutput, "-o", path)
	if code != 0 {
		t.Fatalf("exit %d writing trajectory", code)
	}
	if !strings.Contains(stdout, "BenchmarkA-8") {
		t.Errorf("bench output not echoed: %q", stdout)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var results []benchparse.Result
	if err := json.Unmarshal(data, &results); err != nil {
		t.Fatalf("trajectory is not JSON: %v\n%s", err, data)
	}
	if len(results) != 1 || results[0].Name != "BenchmarkA" {
		t.Fatalf("trajectory = %+v", results)
	}
}
