package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	backscatter "dnsbackscatter"
)

// artifacts builds one small faulted run and writes its time-series and
// trace artifacts into dir, exactly as bsrepro would.
func artifacts(t *testing.T, dir string) (tsPath, trPath string) {
	t.Helper()
	reg := backscatter.NewRegistry()
	reg.SetClock(backscatter.TickClock(1))
	reg.SetWindow(backscatter.NewWindow(450))
	spec := backscatter.JPDitl().Scaled(0.05).WithFaults("servfail-storm@1").WithTracing(4)
	spec.MinQueriers = 10
	spec.Obs = reg
	ds := backscatter.Build(spec)

	tsPath = filepath.Join(dir, "timeseries.json")
	if err := os.WriteFile(tsPath, reg.Window().SnapshotJSON(), 0o644); err != nil {
		t.Fatal(err)
	}
	trPath = filepath.Join(dir, "traces.jsonl")
	if err := os.WriteFile(trPath, ds.Tracer().JSONL(), 0o644); err != nil {
		t.Fatal(err)
	}
	return tsPath, trPath
}

// watchRules fires on the storm's hot buckets so the replay provably
// walks the state machine.
const watchRules = `
alert storm
  expr window(faults_injected_total{kind="servfail"})
  op >=
  threshold 25
  for 450
  severity high
`

// TestReplayEndToEnd pins the offline replay: artifacts in, sparkline
// dashboard and deterministic transition log out, exemplars joined from
// the trace file.
func TestReplayEndToEnd(t *testing.T) {
	dir := t.TempDir()
	tsPath, trPath := artifacts(t, dir)
	rulesPath := filepath.Join(dir, "test.rules")
	if err := os.WriteFile(rulesPath, []byte(watchRules), 0o644); err != nil {
		t.Fatal(err)
	}
	jsonPath := filepath.Join(dir, "out.jsonl")

	var stdout, stderr bytes.Buffer
	args := []string{"-timeseries", tsPath, "-traces", trPath,
		"-rules", rulesPath, "-json", jsonPath}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run = %d, stderr:\n%s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"storm", "value:", "state:", "transitions"} {
		if !strings.Contains(out, want) {
			t.Errorf("dashboard missing %q:\n%s", want, out)
		}
	}
	log1, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"pending"`, `"firing"`, `"resolved"`, `"exemplars"`} {
		if !strings.Contains(string(log1), want) {
			t.Errorf("transition log missing %s", want)
		}
	}

	// Same artifacts, same rules: byte-identical replay.
	var again bytes.Buffer
	if code := run(args, &again, &stderr); code != 0 {
		t.Fatalf("re-run = %d", code)
	}
	if again.String() != out {
		t.Error("replay output differs between identical runs")
	}
	log2, _ := os.ReadFile(jsonPath)
	if !bytes.Equal(log1, log2) {
		t.Error("transition log differs between identical runs")
	}

	// -fail-firing gates on rules still firing after the replay; the
	// storm rule resolves between bursts, so filter to one that cannot:
	// sum() is cumulative and stays firing once tripped.
	cumRules := filepath.Join(dir, "cum.rules")
	if err := os.WriteFile(cumRules, []byte("alert any-servfail\n  expr sum(faults_injected_total{kind=\"servfail\"})\n  op >\n  threshold 0\n  severity base\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var quiet bytes.Buffer
	if code := run([]string{"-timeseries", tsPath, "-rules", cumRules, "-fail-firing"}, &quiet, &stderr); code != 3 {
		t.Fatalf("-fail-firing with a firing rule = %d, want 3", code)
	}
}

// TestFilters pins -state/-severity narrowing of the rendered report.
func TestFilters(t *testing.T) {
	dir := t.TempDir()
	tsPath, _ := artifacts(t, dir)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-timeseries", tsPath, "-state", "firing", "-severity", "base"}, &stdout, &stderr); code != 0 {
		t.Fatalf("run = %d, stderr:\n%s", code, stderr.String())
	}
	// Built-in rules: only gaveup-any is base severity.
	if out := stdout.String(); strings.Contains(out, "servfail-burst [") {
		t.Errorf("severity filter leaked medium rule:\n%s", out)
	}
}

// TestBadInputs pins the usage errors: missing -timeseries, unreadable
// and unparsable files.
func TestBadInputs(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 2 || !strings.Contains(errb.String(), "required") {
		t.Fatalf("no flags = %d %q", code, errb.String())
	}
	if code := run([]string{"-timeseries", "/no/such/file.json"}, &out, &errb); code != 2 {
		t.Fatalf("missing file = %d, want 2", code)
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte("{nope"), 0o644)
	if code := run([]string{"-timeseries", bad}, &out, &errb); code != 2 {
		t.Fatalf("bad document = %d, want 2", code)
	}
	rules := filepath.Join(dir, "bad.rules")
	os.WriteFile(rules, []byte("alert x\n  op ??\n"), 0o644)
	good := filepath.Join(dir, "ok.json")
	os.WriteFile(good, []byte(`{"width":60,"series":[]}`), 0o644)
	if code := run([]string{"-timeseries", good, "-rules", rules}, &out, &errb); code != 2 || !strings.Contains(errb.String(), "line ") {
		t.Fatalf("bad rules = %d %q", code, errb.String())
	}
}
