package faults

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"dnsbackscatter/internal/obs"
	"dnsbackscatter/internal/simtime"
)

// TestNilPlanInjectsNothing pins the nil-safety contract: every decision
// method on a nil *Plan is a no-op, so call sites never guard.
func TestNilPlanInjectsNothing(t *testing.T) {
	var p *Plan
	for i := 0; i < 1000; i++ {
		now := simtime.Time(i)
		if p.Drop(0, 1, 2, now, 0) {
			t.Fatal("nil plan dropped a packet")
		}
		if p.LatencyFor(0, 1, 2, now, 0) != 0 {
			t.Fatal("nil plan injected latency")
		}
		if p.TruncateAnswer(0, 1, 2, now) {
			t.Fatal("nil plan truncated an answer")
		}
		if p.ServFails(0, 1, now, 0) {
			t.Fatal("nil plan servfailed")
		}
		if p.IsDead(0, 1, now) {
			t.Fatal("nil plan killed an authority")
		}
	}
	if got := p.String(); got != "none" {
		t.Fatalf("nil plan String = %q, want none", got)
	}
	p.SetMetrics(obs.NewRegistry()) // must not panic
}

// TestDrawsAreDeterministic pins that two plans with the same (profile,
// seed) agree on every decision, while a different seed disagrees
// somewhere — the schedule is a pure function of the plan identity.
func TestDrawsAreDeterministic(t *testing.T) {
	prof, _ := ProfileByName("chaos")
	a := New(prof, 42)
	b := New(prof, 42)
	c := New(prof, 43)
	diff := 0
	for i := 0; i < 2000; i++ {
		now := simtime.Time(1_400_000_000 + i*7)
		res, sub := uint64(i%13), uint64(i%31)
		if a.Drop(1, res, sub, now, 0) != b.Drop(1, res, sub, now, 0) {
			t.Fatal("same seed disagreed on Drop")
		}
		if a.LatencyFor(1, res, sub, now, 0) != b.LatencyFor(1, res, sub, now, 0) {
			t.Fatal("same seed disagreed on LatencyFor")
		}
		if a.ServFails(1, sub, now, 0) != b.ServFails(1, sub, now, 0) {
			t.Fatal("same seed disagreed on ServFails")
		}
		if a.TruncateAnswer(1, res, sub, now) != b.TruncateAnswer(1, res, sub, now) {
			t.Fatal("same seed disagreed on TruncateAnswer")
		}
		if a.IsDead(1, sub, now) != b.IsDead(1, sub, now) {
			t.Fatal("same seed disagreed on IsDead")
		}
		if a.Drop(1, res, sub, now, 0) != c.Drop(1, res, sub, now, 0) {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("seeds 42 and 43 produced identical drop schedules")
	}
}

// TestDropRate checks the empirical loss rate tracks the configured
// probability (within a loose tolerance — the draws are hash-based).
func TestDropRate(t *testing.T) {
	prof, _ := ProfileByName("lossy")
	p := New(prof, 7)
	n, dropped := 20000, 0
	for i := 0; i < n; i++ {
		if p.Drop(2, uint64(i%17), uint64(i), simtime.Time(i), 0) {
			dropped++
		}
	}
	got := float64(dropped) / float64(n)
	if math.Abs(got-prof.Loss) > 0.02 {
		t.Fatalf("drop rate %.3f, want ~%.2f", got, prof.Loss)
	}
}

// TestLatencyBounds pins that injected latency stays in [1, LatencyMax].
func TestLatencyBounds(t *testing.T) {
	prof, _ := ProfileByName("lossy")
	p := New(prof, 3)
	saw := false
	for i := 0; i < 5000; i++ {
		d := p.LatencyFor(0, uint64(i), uint64(i*3), simtime.Time(i), 0)
		if d == 0 {
			continue
		}
		saw = true
		if d < 1 || d > prof.LatencyMax {
			t.Fatalf("latency %d outside [1, %d]", d, prof.LatencyMax)
		}
	}
	if !saw {
		t.Fatal("no latency ever injected at LatencyProb=0.30")
	}
}

// TestServFailBurstWindows pins the periodic burst schedule: inside the
// active window the SERVFAIL rate approaches ServFailBurst, outside it
// only the baseline applies.
func TestServFailBurstWindows(t *testing.T) {
	prof, _ := ProfileByName("servfail-storm")
	p := New(prof, 9)
	inBurst, inN := 0, 0
	outBurst, outN := 0, 0
	for i := 0; i < 20000; i++ {
		now := simtime.Time(i * 3)
		phase := uint64(now) % uint64(prof.BurstPeriod)
		active := float64(phase) < prof.BurstFrac*float64(prof.BurstPeriod)
		sf := p.ServFails(2, uint64(i%11), now, 0)
		if active {
			inN++
			if sf {
				inBurst++
			}
		} else {
			outN++
			if sf {
				outBurst++
			}
		}
	}
	inRate := float64(inBurst) / float64(inN)
	outRate := float64(outBurst) / float64(outN)
	if math.Abs(inRate-prof.ServFailBurst) > 0.05 {
		t.Fatalf("in-burst rate %.3f, want ~%.2f", inRate, prof.ServFailBurst)
	}
	if math.Abs(outRate-prof.ServFail) > 0.02 {
		t.Fatalf("out-of-burst rate %.3f, want ~%.2f", outRate, prof.ServFail)
	}
}

// TestDeadFlapsByEpoch pins that deadness is constant within one flap
// epoch and re-drawn across epochs.
func TestDeadFlapsByEpoch(t *testing.T) {
	prof, _ := ProfileByName("flaky-auth")
	p := New(prof, 5)
	flips := 0
	for zone := uint64(0); zone < 50; zone++ {
		prev := false
		for epoch := 0; epoch < 40; epoch++ {
			base := simtime.Time(epoch) * simtime.Time(prof.FlapPeriod)
			dead := p.IsDead(2, zone, base)
			// Constant within the epoch.
			for _, off := range []simtime.Duration{1, prof.FlapPeriod / 2, prof.FlapPeriod - 1} {
				if p.IsDead(2, zone, base.Add(off)) != dead {
					t.Fatalf("zone %d epoch %d: deadness not constant within epoch", zone, epoch)
				}
			}
			if epoch > 0 && dead != prev {
				flips++
			}
			prev = dead
		}
	}
	if flips == 0 {
		t.Fatal("no authority ever flapped across 40 epochs at Dead=0.15")
	}
}

// TestParse covers the profile@seed spec grammar and its errors.
func TestParse(t *testing.T) {
	if p, err := Parse(""); err != nil || p != nil {
		t.Fatalf("Parse(\"\") = %v, %v; want nil, nil", p, err)
	}
	if p, err := Parse("none"); err != nil || p != nil {
		t.Fatalf("Parse(none) = %v, %v; want nil, nil", p, err)
	}
	p, err := Parse("lossy@42")
	if err != nil || p == nil || p.Seed != 42 || p.Profile.Name != "lossy" {
		t.Fatalf("Parse(lossy@42) = %+v, %v", p, err)
	}
	if p.String() != "lossy@42" {
		t.Fatalf("String = %q, want lossy@42", p.String())
	}
	p, err = Parse("chaos")
	if err != nil || p == nil || p.Seed != 1 {
		t.Fatalf("Parse(chaos) = %+v, %v; want seed 1", p, err)
	}
	if _, err := Parse("nosuch@3"); err == nil {
		t.Fatal("Parse(nosuch@3) succeeded, want error")
	}
	if _, err := Parse("lossy@banana"); err == nil {
		t.Fatal("Parse(lossy@banana) succeeded, want error")
	}
}

// TestMetricsCount pins that instrumented plans count each injected
// fault under faults_injected_total{kind} and pre-resolve the resolver
// retry counters so they appear in snapshots at zero.
func TestMetricsCount(t *testing.T) {
	reg := obs.NewRegistry()
	prof, _ := ProfileByName("chaos")
	p := New(prof, 11)
	p.SetMetrics(reg)
	fired := 0
	for i := 0; i < 3000; i++ {
		now := simtime.Time(i * 5)
		if p.Drop(0, uint64(i), uint64(i*7), now, 0) {
			fired++
		}
		if p.LatencyFor(0, uint64(i), uint64(i*7), now, 0) > 0 {
			fired++
		}
		if p.ServFails(1, uint64(i%9), now, 0) {
			fired++
		}
		if p.TruncateAnswer(1, uint64(i), uint64(i*7), now) {
			fired++
		}
		if p.IsDead(2, uint64(i%9), now) {
			fired++
		}
	}
	if fired == 0 {
		t.Fatal("chaos profile never fired")
	}
	total := uint64(0)
	snap := string(reg.Snapshot())
	for _, line := range strings.Split(strings.TrimSpace(snap), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || !strings.HasPrefix(name, "faults_injected_total{") {
			continue
		}
		v, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			t.Fatalf("bad snapshot line %q: %v", line, err)
		}
		total += v
	}
	if total != uint64(fired) {
		t.Fatalf("faults_injected_total = %d, want %d\n%s", total, fired, snap)
	}
	for _, want := range []string{
		`faults_injected_total{kind="loss"}`,
		`faults_injected_total{kind="latency"}`,
		`faults_injected_total{kind="truncate"}`,
		`faults_injected_total{kind="servfail"}`,
		`faults_injected_total{kind="dead"}`,
		"resolver_retries_total 0",
		"resolver_gaveup_total 0",
		"resolver_tcp_fallbacks_total 0",
	} {
		if !strings.Contains(snap, want) {
			t.Errorf("snapshot missing %s", want)
		}
	}
}

// TestProfilesHaveUniqueNames guards the registry Parse resolves against.
func TestProfilesHaveUniqueNames(t *testing.T) {
	names := map[string]bool{}
	for _, p := range Profiles() {
		if p.Name == "" {
			t.Fatal("profile with empty name")
		}
		if names[p.Name] {
			t.Fatalf("duplicate profile name %q", p.Name)
		}
		names[p.Name] = true
	}
	if !names["none"] || !names["lossy"] || !names["servfail-storm"] {
		t.Fatal("missing a required built-in profile")
	}
}

// FuzzFaultsParse feeds arbitrary specs to the "profile@seed" parser: it
// must never panic, and any plan it returns must name a built-in
// profile and reparse identically from its canonical spec.
func FuzzFaultsParse(f *testing.F) {
	for _, p := range Profiles() {
		f.Add(p.Name)
		f.Add(p.Name + "@42")
	}
	f.Add("")
	f.Add("lossy@")
	f.Add(" chaos @ 18446744073709551615")
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := Parse(spec)
		if err != nil || p == nil {
			return
		}
		if _, ok := ProfileByName(p.Profile.Name); !ok {
			t.Fatalf("%q: plan names unknown profile %q", spec, p.Profile.Name)
		}
		canon := p.Profile.Name + "@" + strconv.FormatUint(p.Seed, 10)
		q, err := Parse(canon)
		if err != nil || q.Profile.Name != p.Profile.Name || q.Seed != p.Seed {
			t.Fatalf("%q: canonical %q reparsed as %+v, %v", spec, canon, q, err)
		}
	})
}
