// Alert determinism: the PR 10 acceptance bar. Replaying checked-in
// rules over the windowed metrics of a faulted build must produce a
// byte-identical transition log at every worker count, with at least one
// rule provably walking the full pending → firing → resolved cycle and
// firing transitions carrying worst-offender trace exemplars.
package backscatter_test

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	backscatter "dnsbackscatter"
)

// alertTestRules tunes the built-in shapes to the seed-matrix scale: at
// 450 s buckets under servfail-storm, each hour opens with two ~500-
// injection buckets followed by six quiet (~15) ones, so the hold rule
// cycles pending → firing → resolved once per simulated hour.
const alertTestRules = `
alert storm
  expr window(faults_injected_total{kind="servfail"})
  op >=
  threshold 100
  for 450
  severity high
  desc servfail bucket burst

slo lookup-success
  good dnssim_resolves_total
  bad resolver_gaveup_total
  objective 0.99
  burn 4
  short 900
  long 2700
  severity high
`

// alertRun builds one seed-matrix cell under servfail-storm with a
// 450 s window and tracing, and returns the evaluated alert engine.
func alertRun(t *testing.T, seed uint64, workers int) *backscatter.AlertEngine {
	t.Helper()
	reg := backscatter.NewRegistry()
	reg.SetClock(backscatter.TickClock(1))
	reg.SetWindow(backscatter.NewWindow(450))
	spec := seedMatrixSpec(seed, workers, "servfail-storm@1").
		WithTracing(4).WithAlerts(alertTestRules)
	spec.Obs = reg
	eng := backscatter.Build(spec).Alerts()
	if eng == nil {
		t.Fatalf("seed=%d workers=%d: WithAlerts built no engine", seed, workers)
	}
	return eng
}

// TestAlertDeterminism pins the tentpole contract: identical alerts.jsonl
// bytes across worker counts, a full state-machine cycle, and exemplars
// on firing transitions.
func TestAlertDeterminism(t *testing.T) {
	for _, seed := range []uint64{1, 3} {
		want := alertRun(t, seed, 1).JSONL()
		if len(want) == 0 {
			t.Fatalf("seed=%d: empty transition log", seed)
		}
		if got := alertRun(t, seed, 8).JSONL(); !bytes.Equal(got, want) {
			t.Errorf("seed=%d: alerts.jsonl differs between workers 1 and 8", seed)
		}

		states := map[string]map[string]bool{} // rule → state set
		exemplars := 0
		for _, line := range bytes.Split(bytes.TrimSpace(want), []byte("\n")) {
			var tr backscatter.AlertTransition
			if err := json.Unmarshal(line, &tr); err != nil {
				t.Fatalf("seed=%d: bad JSONL line %q: %v", seed, line, err)
			}
			if states[tr.Rule] == nil {
				states[tr.Rule] = map[string]bool{}
			}
			states[tr.Rule][string(tr.State)] = true
			if tr.State == "firing" {
				exemplars += len(tr.Exemplars)
			}
		}
		for _, st := range []string{"pending", "firing", "resolved"} {
			if !states["storm"][st] {
				t.Errorf("seed=%d: storm rule never reached %s: %v", seed, st, states)
			}
		}
		if !states["lookup-success"]["firing"] {
			t.Errorf("seed=%d: SLO burn rule never fired: %v", seed, states)
		}
		if exemplars == 0 {
			t.Errorf("seed=%d: no firing transition carried trace exemplars", seed)
		}
	}
}

// TestAlertRulesFilePinned keeps the checked-in alerts.rules byte-equal
// to the built-in rule text, so the file operators edit and the rules
// the code ships cannot drift apart.
func TestAlertRulesFilePinned(t *testing.T) {
	disk, err := os.ReadFile("alerts.rules")
	if err != nil {
		t.Fatal(err)
	}
	if string(disk) != backscatter.DefaultAlertRulesText {
		t.Fatal("alerts.rules differs from DefaultAlertRulesText; regenerate the file")
	}
	rules, err := backscatter.ParseAlertRules(string(disk))
	if err != nil {
		t.Fatalf("checked-in rules do not parse: %v", err)
	}
	if len(rules) != len(backscatter.DefaultAlertRules()) {
		t.Fatalf("parsed %d rules, want %d", len(rules), len(backscatter.DefaultAlertRules()))
	}
}

// TestAlertsDisabled pins the nil-engine contract end to end: no rules,
// no registry, or no window all yield a nil engine whose every method is
// a safe no-op.
func TestAlertsDisabled(t *testing.T) {
	spec := backscatter.JPDitl().Scaled(0.01)
	spec.MinQueriers = 10

	reg := backscatter.NewRegistry()
	reg.SetClock(backscatter.TickClock(1))
	reg.SetWindow(backscatter.NewWindow(3600))
	observed := spec
	observed.Obs = reg
	if eng := backscatter.Build(observed).Alerts(); eng != nil {
		t.Error("dataset without rules returned a live engine")
	}

	// Rules but no registry, and rules with a window-less registry.
	if ds := backscatter.Build(spec.WithAlerts("default")); ds.Alerts() != nil {
		t.Error("dataset without a registry returned a live engine")
	}
	bare := backscatter.NewRegistry()
	bare.SetClock(backscatter.TickClock(1))
	observed.Obs = bare
	if eng := backscatter.Build(observed.WithAlerts("default")); eng.Alerts() != nil {
		t.Error("dataset without a window returned a live engine")
	}

	var nilEng *backscatter.AlertEngine
	if nilEng.JSONL() != nil || nilEng.Log() != nil || nilEng.Firing() != 0 {
		t.Error("nil engine leaked state")
	}
	if got := string(nilEng.RenderText(backscatter.AlertFilter{})); !strings.Contains(got, "disabled") {
		t.Errorf("nil engine render = %q", got)
	}
}

// TestWithAlertsInvalid pins the fail-fast contract: a malformed rule
// file panics at build time with the offending line, exactly like a
// malformed fault spec.
func TestWithAlertsInvalid(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("bad rule text did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "line ") {
			t.Fatalf("panic %v does not carry a line number", r)
		}
	}()
	spec := backscatter.JPDitl().Scaled(0.01).WithAlerts("alert broken\n  op ??\n")
	backscatter.Build(spec)
}
