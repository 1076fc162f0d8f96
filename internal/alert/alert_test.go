package alert

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"dnsbackscatter/internal/obs"
	"dnsbackscatter/internal/simtime"
	"dnsbackscatter/internal/trace"
)

// mkSeries builds one metric's series from (t, v) pairs.
func mkSeries(metric string, pairs ...[2]int64) obs.Series {
	s := obs.Series{Metric: metric}
	for _, p := range pairs {
		s.Points = append(s.Points, obs.Point{T: simtime.Time(p[0]), V: p[1]})
	}
	return s
}

// mkTS wraps series into a Timeseries document.
func mkTS(width simtime.Duration, series ...obs.Series) obs.Timeseries {
	return obs.Timeseries{Width: width, Series: series}
}

// mustParse parses one rule file or fails the test.
func mustParse(t *testing.T, src string) []Rule {
	t.Helper()
	rules, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return rules
}

// TestParseDefaultRules pins the built-in ruleset: it parses, keeps
// file order, and exercises every expression function and both stanza
// kinds.
func TestParseDefaultRules(t *testing.T) {
	rules := DefaultRules()
	want := []string{"servfail-burst", "retry-pressure", "gaveup-any", "lookup-success", "verdict-churn", "stream-evictions"}
	if len(rules) != len(want) {
		t.Fatalf("got %d rules, want %d", len(rules), len(want))
	}
	for i, name := range want {
		if rules[i].Name != name {
			t.Errorf("rule[%d] = %q, want %q", i, rules[i].Name, name)
		}
	}
	if rules[3].Kind != "slo" || rules[3].Severity != SevHigh {
		t.Errorf("lookup-success parsed as %+v", rules[3])
	}
	if got := rules[0].condition(); !strings.Contains(got, "window(") {
		t.Errorf("condition = %q", got)
	}
	if got := rules[3].condition(); !strings.Contains(got, "objective 0.99") {
		t.Errorf("slo condition = %q", got)
	}
}

// TestParseEmpty pins that empty input means "alerting off", not an
// error.
func TestParseEmpty(t *testing.T) {
	for _, src := range []string{"", "\n\n", "# only comments\n"} {
		rules, err := Parse(src)
		if err != nil || len(rules) != 0 {
			t.Errorf("Parse(%q) = %v, %v", src, rules, err)
		}
	}
}

// TestParseErrors walks the grammar's rejection paths; every error
// carries a line number.
func TestParseErrors(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"stray body", "  expr window(m)\n", "outside any"},
		{"two names", "alert a b\n  expr window(m)\n", "exactly one name"},
		{"dup name", "alert a\n  expr window(m)\n  op >\n  threshold 1\nalert a\n  expr window(m)\n  op >\n  threshold 1\n", "duplicate rule name"},
		{"unknown key", "alert a\n  bogus 1\n", "unknown key"},
		{"empty value", "alert a\n  expr\n", "wants a value"},
		{"bad op", "alert a\n  expr window(m)\n  op !=\n  threshold 1\n", "bad comparator"},
		{"bad severity", "alert a\n  severity urgent\n", "bad severity"},
		{"bad threshold", "alert a\n  threshold abc\n", "bad number"},
		{"bad for", "alert a\n  for -5\n", "bad duration"},
		{"missing expr", "alert a\n  op >\n  threshold 1\n", "wants expr"},
		{"alert with slo key", "alert a\n  expr window(m)\n  op >\n  threshold 1\n  good g\n", "belong to slo"},
		{"slo with expr", "slo a\n  expr window(m)\n  good g\n  bad b\n  objective 0.9\n  burn 1\n  short 1\n  long 2\n", "belong to alert"},
		{"slo missing bad", "slo a\n  good g\n  objective 0.9\n  burn 1\n  short 1\n  long 2\n", "good and bad"},
		{"slo objective", "slo a\n  good g\n  bad b\n  objective 1.5\n  burn 1\n  short 1\n  long 2\n", "outside (0, 1)"},
		{"slo burn", "slo a\n  good g\n  bad b\n  objective 0.9\n  burn 0\n  short 1\n  long 2\n", "must be positive"},
		{"slo windows", "slo a\n  good g\n  bad b\n  objective 0.9\n  burn 1\n  short 10\n  long 5\n", "short <= long"},
		{"not a call", "alert a\n  expr just_a_metric\n  op >\n  threshold 1\n", "not fn(args)"},
		{"unknown fn", "alert a\n  expr median(m)\n  op >\n  threshold 1\n", "unknown function"},
		{"ratio arity", "alert a\n  expr ratio(m)\n  op >\n  threshold 1\n", "two arguments"},
		{"window arity", "alert a\n  expr window(a, b)\n  op >\n  threshold 1\n", "exactly one argument"},
		{"empty arg", "alert a\n  expr window( )\n  op >\n  threshold 1\n", "empty argument"},
	}
	for _, tc := range cases {
		_, err := Parse(tc.src)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
		if err != nil && !strings.Contains(err.Error(), "line ") {
			t.Errorf("%s: err %v carries no line number", tc.name, err)
		}
	}
}

// TestParseLabeledArgs pins that label blocks (with quoted commas and
// braces) survive argument splitting.
func TestParseLabeledArgs(t *testing.T) {
	rules := mustParse(t, `alert a
  expr ratio(faults_injected_total{kind="servfail,weird"}, dnssim_queries_total{level="root"})
  op >=
  threshold 0.5
`)
	e := rules[0].parsed
	if e.fn != fnRatio || e.a != `faults_injected_total{kind="servfail,weird"}` || e.b != `dnssim_queries_total{level="root"}` {
		t.Fatalf("parsed expr = %+v", e)
	}
}

// holdRule is a one-rule file with a one-bucket hold, used by the state
// machine tests below (width 60).
const holdRule = `alert hold
  expr window(m)
  op >=
  threshold 5
  for 60
  severity high
  desc test rule
`

// TestStateMachineHold drives the full inactive → pending → firing →
// resolved cycle, plus a pending flap, through one offline replay.
func TestStateMachineHold(t *testing.T) {
	e := New(mustParse(t, holdRule))
	e.Eval(Data{Series: mkTS(60,
		mkSeries("m", [2]int64{0, 10}, [2]int64{60, 10}, [2]int64{120, 10}, [2]int64{240, 10}, [2]int64{360, 1}),
	)})
	log := e.Log()
	want := []struct {
		t     simtime.Time
		state State
		since simtime.Time
	}{
		{0, StatePending, 0},
		{60, StateFiring, 0},
		{180, StateResolved, 60}, // bucket 180 is empty → value 0
		{240, StatePending, 240}, // re-arms; 300 is empty → flap, no event
	}
	if len(log) != len(want) {
		t.Fatalf("got %d transitions %+v, want %d", len(log), log, len(want))
	}
	for i, w := range want {
		g := log[i]
		if g.T != w.t || g.State != w.state || g.Since != w.since {
			t.Errorf("log[%d] = {t=%d state=%s since=%d}, want %+v", i, g.T, g.State, g.Since, w)
		}
		if g.Rule != "hold" || g.Severity != SevHigh || g.Threshold != 5 {
			t.Errorf("log[%d] rule fields = %+v", i, g)
		}
	}
	st := e.Status(Filter{})
	if st.Rules[0].State != StateInactive || st.Rules[0].Flaps != 1 {
		t.Errorf("final status = %+v", st.Rules[0])
	}
	if e.Firing() != 0 {
		t.Errorf("Firing() = %d, want 0", e.Firing())
	}
}

// TestImmediateFire pins for=0 semantics (fire with no pending event)
// and the exemplar join: the firing transition carries the worst trace
// IDs for exactly the fired bucket's window.
func TestImmediateFire(t *testing.T) {
	var gotFrom, gotTo simtime.Time
	exemplars := func(from, to simtime.Time, n int) []trace.Exemplar {
		gotFrom, gotTo = from, to
		return []trace.Exemplar{{ID: 0xabc}, {ID: 0xdef}}
	}
	e := New(mustParse(t, "alert now\n  expr window(m)\n  op >\n  threshold 0\n"))
	e.Eval(Data{
		Series:    mkTS(60, mkSeries("m", [2]int64{120, 3})),
		Exemplars: exemplars,
	})
	log := e.Log()
	if len(log) != 1 || log[0].State != StateFiring || log[0].T != 120 {
		t.Fatalf("log = %+v", log)
	}
	if gotFrom != 120 || gotTo != 180 {
		t.Errorf("exemplar window = [%d, %d), want [120, 180)", gotFrom, gotTo)
	}
	if len(log[0].Exemplars) != 2 || log[0].Exemplars[0] != trace.ID(0xabc).String() {
		t.Errorf("exemplars = %v", log[0].Exemplars)
	}
	if e.Firing() != 1 {
		t.Errorf("Firing() = %d, want 1", e.Firing())
	}
}

// TestExprFunctions pins rate, sum, and ratio (including the zero
// denominator) on hand-computed series.
func TestExprFunctions(t *testing.T) {
	series := []obs.Series{
		mkSeries("a", [2]int64{0, 30}, [2]int64{60, 90}),
		mkSeries("b", [2]int64{0, 10}),
	}
	cases := []struct {
		name, expr string
		op         string
		threshold  float64
		fireAt     simtime.Time
	}{
		{"rate", "rate(a)", ">=", 1.5, 60},      // 90/60 = 1.5 at b=60
		{"sum", "sum(a)", ">", 100, 60},         // 30 then 120
		{"ratio", "ratio(a, b)", ">=", 3, 0},    // 30/10 at b=0
		{"ratio0", "ratio(b, zzz)", "<=", 0, 0}, // zero denominator → 0
	}
	for _, tc := range cases {
		src := "alert r\n  expr " + tc.expr + "\n  op " + tc.op + "\n  threshold " + trimFloat(tc.threshold) + "\n"
		e := New(mustParse(t, src))
		e.Eval(Data{Series: mkTS(60, series...)})
		log := e.Log()
		if len(log) == 0 || log[0].T != tc.fireAt || log[0].State != StateFiring {
			t.Errorf("%s: log = %+v, want firing at %d", tc.name, log, tc.fireAt)
		}
	}
}

// trimFloat renders a float the way the rule file would write it.
func trimFloat(f float64) string {
	b, _ := json.Marshal(f)
	return string(b)
}

// TestSLOBurn drives the multi-window burn-rate rule: the short window
// alone must not fire it; both windows over budget must; a clean short
// window resolves it.
func TestSLOBurn(t *testing.T) {
	const src = `slo s
  good good_total
  bad bad_total
  objective 0.9
  burn 2
  short 60
  long 180
  severity high
`
	// denom = 0.1, so firing wants ratio >= 0.2 in both windows.
	// b=0:   bad spike (short ratio 0.5, long ratio 0.5/1-bucket) → both burn? long window covers only b0 too → fires.
	// Use a quiet lead-in so the long window lags the short one.
	e := New(mustParse(t, src))
	e.Eval(Data{Series: mkTS(60,
		mkSeries("good_total", [2]int64{0, 100}, [2]int64{60, 100}, [2]int64{120, 50}, [2]int64{180, 50}, [2]int64{240, 100}),
		mkSeries("bad_total", [2]int64{120, 50}, [2]int64{180, 50}),
	)})
	// Hand computation (short = 1 bucket, long = 3 buckets):
	//   b=0, 60: no bad → inactive.
	//   b=120: short 50/100=0.5 burn 5; long (0+0+50)/(200+100)≈0.167 burn 1.67 < 2 → still inactive.
	//   b=180: short 0.5 → 5; long (0+50+50)/(100+100+100)≈0.333 burn 3.33 → firing.
	//   b=240: short 0/100 → 0 → resolved.
	log := e.Log()
	if len(log) != 2 {
		t.Fatalf("log = %+v, want firing+resolved", log)
	}
	if log[0].State != StateFiring || log[0].T != 180 || log[0].Threshold != 2 {
		t.Errorf("firing = %+v", log[0])
	}
	if math.Abs(log[0].Value-5) > 1e-9 {
		t.Errorf("firing value = %g, want short-window burn 5", log[0].Value)
	}
	if log[1].State != StateResolved || log[1].T != 240 || log[1].Since != 180 {
		t.Errorf("resolved = %+v", log[1])
	}
}

// TestStreamSource pins stream() semantics: no live status means the
// rule stays inactive (even under a comparator a fabricated zero would
// satisfy); a status snapshot drives it like any value.
func TestStreamSource(t *testing.T) {
	const src = "alert ev\n  expr stream(evictions)\n  op <=\n  threshold 5\n"
	clockSeries := mkSeries("clock", [2]int64{0, 1}, [2]int64{60, 1})
	e := New(mustParse(t, src))
	e.Eval(Data{Series: mkTS(60, clockSeries)})
	if log := e.Log(); len(log) != 0 {
		t.Fatalf("no stream source, but log = %+v", log)
	}
	e2 := New(mustParse(t, src))
	e2.Eval(Data{
		Series: mkTS(60, clockSeries),
		Stream: map[string]float64{"evictions": 3},
	})
	log := e2.Log()
	if len(log) != 1 || log[0].State != StateFiring || log[0].Value != 3 {
		t.Fatalf("with stream source, log = %+v", log)
	}
}

// TestIncrementalMatchesReplay pins the live/offline equivalence at the
// heart of the determinism contract: evaluating bucket-by-bucket with a
// moving watermark takes exactly the transitions one offline replay
// takes, byte for byte.
func TestIncrementalMatchesReplay(t *testing.T) {
	var mPts, gPts, bPts [][2]int64
	for i := int64(0); i < 40; i++ {
		// A deterministic spiky shape: bursts every 5 buckets.
		v := (i % 5) * 4
		mPts = append(mPts, [2]int64{i * 60, v})
		gPts = append(gPts, [2]int64{i * 60, 50})
		bPts = append(bPts, [2]int64{i * 60, (i % 7) * 3})
	}
	full := mkTS(60, mkSeries("m", mPts...), mkSeries("good_total", gPts...), mkSeries("bad_total", bPts...))
	src := holdRule + `
slo s
  good good_total
  bad bad_total
  objective 0.9
  burn 1
  short 120
  long 300
`
	replay := New(mustParse(t, src))
	replay.Eval(Data{Series: full})

	live := New(mustParse(t, src))
	for wm := simtime.Time(60); wm <= 41*60; wm += 60 {
		live.Eval(Data{Series: full, Through: wm})
	}
	if r, l := replay.JSONL(), live.JSONL(); !bytes.Equal(r, l) {
		t.Fatalf("incremental log diverged:\nreplay:\n%s\nlive:\n%s", r, l)
	}
	if len(replay.Log()) == 0 {
		t.Fatal("replay took no transitions; the equivalence check is vacuous")
	}
}

// TestThroughCap pins the complete-bucket rule: a bucket is evaluated
// only once the watermark reaches its end.
func TestThroughCap(t *testing.T) {
	const src = "alert now\n  expr window(m)\n  op >\n  threshold 0\n"
	series := mkTS(60, mkSeries("m", [2]int64{120, 1}))
	e := New(mustParse(t, src))
	e.Eval(Data{Series: series, Through: 179})
	if log := e.Log(); len(log) != 0 {
		t.Fatalf("bucket evaluated before it ended: %+v", log)
	}
	e.Eval(Data{Series: series, Through: 180})
	if log := e.Log(); len(log) != 1 {
		t.Fatalf("bucket not evaluated at its end: %+v", log)
	}
	// Re-evaluating the same range is idempotent.
	e.Eval(Data{Series: series})
	if log := e.Log(); len(log) != 1 {
		t.Fatalf("re-evaluation repeated transitions: %+v", log)
	}
}

// TestWidthGuards pins the width rules: zero-width documents are
// ignored, and the engine sticks to the first width it adopts.
func TestWidthGuards(t *testing.T) {
	const src = "alert now\n  expr window(m)\n  op >\n  threshold 0\n"
	e := New(mustParse(t, src))
	e.Eval(Data{Series: mkTS(0, mkSeries("m", [2]int64{0, 1}))})
	if log := e.Log(); len(log) != 0 {
		t.Fatalf("zero-width document evaluated: %+v", log)
	}
	e.Eval(Data{Series: mkTS(60, mkSeries("m", [2]int64{0, 1}))})
	e.Eval(Data{Series: mkTS(120, mkSeries("m", [2]int64{600, 1}))})
	if log := e.Log(); len(log) != 1 {
		t.Fatalf("mixed-width document evaluated: %+v", log)
	}
}

// TestNilEngine pins the nil contract: New with no rules returns nil,
// and every method on a nil engine is a safe no-op.
func TestNilEngine(t *testing.T) {
	if New(nil) != nil {
		t.Fatal("New(nil) != nil")
	}
	var e *Engine
	e.Eval(Data{Series: mkTS(60, mkSeries("m", [2]int64{0, 1}))})
	if got := e.Log(); got != nil {
		t.Errorf("nil Log = %v", got)
	}
	if got := e.JSONL(); len(got) != 0 {
		t.Errorf("nil JSONL = %q", got)
	}
	if doc := e.Status(Filter{}); len(doc.Rules) != 0 || len(doc.Transitions) != 0 {
		t.Errorf("nil Status = %+v", doc)
	}
	if !json.Valid(e.StatusJSON(Filter{})) {
		t.Error("nil StatusJSON is not valid JSON")
	}
	if got := string(e.RenderText(Filter{})); !strings.Contains(got, "disabled") {
		t.Errorf("nil RenderText = %q", got)
	}
	if e.Firing() != 0 || e.Rules() != nil {
		t.Error("nil Firing/Rules not zero")
	}
}

// TestFilters pins state and severity filtering on both the status
// document and the text render.
func TestFilters(t *testing.T) {
	src := "alert hot\n  expr window(m)\n  op >\n  threshold 0\n  severity high\n" +
		"alert cold\n  expr window(m)\n  op <\n  threshold -1\n  severity low\n"
	e := New(mustParse(t, src))
	e.Eval(Data{Series: mkTS(60, mkSeries("m", [2]int64{0, 1}))})

	doc := e.Status(Filter{State: "firing"})
	if len(doc.Rules) != 1 || doc.Rules[0].Rule != "hot" {
		t.Fatalf("state filter rules = %+v", doc.Rules)
	}
	if len(doc.Transitions) != 1 {
		t.Fatalf("state filter transitions = %+v", doc.Transitions)
	}
	doc = e.Status(Filter{Severity: "low"})
	if len(doc.Rules) != 1 || doc.Rules[0].Rule != "cold" || len(doc.Transitions) != 0 {
		t.Fatalf("severity filter = %+v", doc)
	}
	text := string(e.RenderText(Filter{State: "firing"}))
	if !strings.Contains(text, "hot") || strings.Contains(text, "cold [") {
		t.Fatalf("filtered render = %q", text)
	}
	if !json.Valid(e.StatusJSON(Filter{})) {
		t.Error("StatusJSON invalid")
	}
}

// TestRenderText pins the operator view: summary counts, condition
// line, aligned value sparkline and state strip, and the transition
// tail with exemplars.
func TestRenderText(t *testing.T) {
	e := New(mustParse(t, holdRule))
	e.Eval(Data{
		Series: mkTS(60, mkSeries("m", [2]int64{0, 10}, [2]int64{60, 10}, [2]int64{120, 10})),
		Exemplars: func(from, to simtime.Time, n int) []trace.Exemplar {
			return []trace.Exemplar{{ID: 7}}
		},
	})
	text := string(e.RenderText(Filter{}))
	for _, want := range []string{
		"1 rules (1 firing",
		"hold [alert high] state=firing",
		"when:  window(m) >= 5",
		"desc:  test rule",
		"value:",
		"state: pFF",
		"transitions:",
		"exemplars=0000000000000007",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("render missing %q in:\n%s", want, text)
		}
	}
}

// TestStripCompression pins that long histories compress to the column
// bound while keeping the worst state per chunk.
func TestStripCompression(t *testing.T) {
	hist := make([]histPoint, 600)
	for i := range hist {
		hist[i] = histPoint{t: simtime.Time(i * 60), v: float64(i % 10), s: StateInactive}
	}
	hist[300].s = StateFiring
	spark, states, _ := strips(hist)
	if len(spark) != maxCols || len(states) != maxCols {
		t.Fatalf("strip lengths = %d/%d, want %d", len(spark), len(states), maxCols)
	}
	if !strings.Contains(states, "F") {
		t.Fatalf("compressed strip lost the firing step: %q", states)
	}
}

// TestJSONLRoundTrip pins the artifact shape: one valid JSON object per
// line, fields intact.
func TestJSONLRoundTrip(t *testing.T) {
	e := New(mustParse(t, holdRule))
	e.Eval(Data{Series: mkTS(60, mkSeries("m", [2]int64{0, 10}, [2]int64{60, 10}, [2]int64{120, 0}))})
	lines := bytes.Split(bytes.TrimSpace(e.JSONL()), []byte("\n"))
	if len(lines) != 3 { // pending, firing, resolved
		t.Fatalf("got %d lines: %s", len(lines), e.JSONL())
	}
	for _, line := range lines {
		var tr Transition
		if err := json.Unmarshal(line, &tr); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		if tr.Rule != "hold" {
			t.Errorf("round-tripped rule = %q", tr.Rule)
		}
	}
}

// FuzzAlertParse feeds arbitrary rule text to the parser, seeded from
// the checked-in alerts.rules: it must never panic, parsing must be
// deterministic, and an engine over any accepted rules must evaluate
// without panicking.
func FuzzAlertParse(f *testing.F) {
	rules, err := os.ReadFile("../../alerts.rules")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(rules))
	f.Add("alert a\n  expr window(x)\n  op >=\n  threshold 1\n")
	f.Add("slo s\n  good g\n  bad b\n  objective 0.99\n  burn 2\n  short 60\n  long 3600\n")
	f.Add("alert\n\tfor -1\n")
	f.Fuzz(func(t *testing.T, src string) {
		got, err := Parse(src)
		again, err2 := Parse(src)
		if (err == nil) != (err2 == nil) || !reflect.DeepEqual(got, again) {
			t.Fatalf("Parse is not deterministic on %q", src)
		}
		if err != nil {
			return
		}
		New(got).Eval(Data{Series: obs.Timeseries{Width: 60, Series: []obs.Series{
			mkSeries("x", [2]int64{0, 1}, [2]int64{60, 5}),
		}}})
	})
}
