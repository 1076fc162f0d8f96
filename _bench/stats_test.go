package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestTailReportsHighestPercentileWithTenBeyond(t *testing.T) {
	cases := []struct {
		n     int
		p     float64
		value float64
		ok    bool
	}{
		{n: 15, ok: false},                         // the median has 7 samples above it
		{n: 20, p: 50, value: 10, ok: true},        // rank 10, 10 above
		{n: 100, p: 90, value: 90, ok: true},       // p99 would leave 1
		{n: 1000, p: 99, value: 990, ok: true},     // p99.9 would leave 1
		{n: 9999, p: 99, value: 9900, ok: true},    // p99.9 would leave 9
		{n: 10000, p: 99.9, value: 9990, ok: true}, // p99.99 would leave 1
		{n: 100000, p: 99.99, value: 99990, ok: true},
	}
	for _, c := range cases {
		p, v, ok := tail(seq(c.n))
		if ok != c.ok || (ok && (p != c.p || v != c.value)) {
			t.Errorf("tail(n=%d) = p%g %g %v, want p%g %g %v", c.n, p, v, ok, c.p, c.value, c.ok)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(10)
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

// fakeClock advances only when the loop sleeps or a request is served.
type fakeClock struct {
	now       time.Duration
	overshoot time.Duration
	sleeps    int
}

func (c *fakeClock) Now() time.Duration { return c.now }
func (c *fakeClock) Sleep(d time.Duration) {
	c.sleeps++
	c.now += d + c.overshoot
}

func TestOpenLoopMeasuresLatencyFromDueTime(t *testing.T) {
	c := &fakeClock{}
	cost := func(i int) time.Duration {
		if i == 3 {
			return 10 * time.Millisecond // a stall, like a rescore
		}
		return 100 * time.Microsecond
	}
	// 1000 requests per second: request i is due at i ms.
	lat, lateness := openLoop(20, 1000, c, func(i int) { c.now += cost(i) })
	if lat[0] != 100*time.Microsecond || lat[3] != 10*time.Millisecond {
		t.Fatalf("lat[0], lat[3] = %v, %v; want 100µs, 10ms", lat[0], lat[3])
	}
	// Request 4 fell due at 4 ms, while request 3 ran until 13 ms. Timed
	// from when it was sent it would read 100µs; from its due time it
	// carries the 9 ms it waited.
	if want := 9*time.Millisecond + 100*time.Microsecond; lat[4] != want {
		t.Errorf("lat[4] = %v, want %v", lat[4], want)
	}
	// The backlog drains at 0.9 ms per request, so by request 19 the loop
	// is idle again and each request costs only its own service time.
	if lat[19] != 100*time.Microsecond {
		t.Errorf("lat[19] = %v, want 100µs", lat[19])
	}
	for _, l := range lateness {
		if l != 0 {
			t.Errorf("lateness %v with an exact clock", l)
		}
	}

	// A generator that wakes late reports it as lateness, and the
	// lateness is part of every latency it delays.
	c = &fakeClock{overshoot: 300 * time.Microsecond}
	lat, lateness = openLoop(5, 1000, c, func(int) {})
	if len(lateness) != c.sleeps || lateness[0] != 300*time.Microsecond {
		t.Fatalf("lateness = %v over %d sleeps, want 300µs each", lateness, c.sleeps)
	}
	if lat[1] != 300*time.Microsecond {
		t.Errorf("lat[1] = %v, want the 300µs the generator overslept", lat[1])
	}
}

func TestBacklogGrowth(t *testing.T) {
	const n = 1000
	limit := 100 * time.Millisecond
	growing := make([]time.Duration, n)
	spiky := make([]time.Duration, n)
	for i := range growing {
		growing[i] = time.Duration(i) * 300 * time.Microsecond // 0 to 300 ms
		spiky[i] = time.Millisecond
		if i%50 < 5 {
			spiky[i] = 80 * time.Millisecond // a stall and its drain, every 50
		}
	}
	if !backlogGrows(growing, limit) {
		t.Error("a latency that rises through the replay is not a growing backlog")
	}
	if backlogGrows(spiky, limit) {
		t.Error("periodic stalls that drain count as a growing backlog")
	}
	if backlogGrows(nil, limit) {
		t.Error("an empty replay has a growing backlog")
	}
}

func TestSelfTimeSubtractsOverlappingChildrenOnce(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{id: 1, name: "bench.op", start: 0, end: 100 * ms},
		// Two children from different goroutines overlap on [30, 50).
		{id: 2, parent: 1, name: "stream.ingest", start: 10 * ms, end: 50 * ms},
		{id: 3, parent: 1, name: "alert.eval", start: 30 * ms, end: 70 * ms},
		// A child running past its parent's end counts only inside it.
		{id: 4, parent: 1, name: "stream.ingest", start: 90 * ms, end: 120 * ms},
		{id: 5, parent: 3, name: "stream.status", start: 40 * ms, end: 45 * ms},
	}
	self := selfTimes(spans)
	want := map[int32]time.Duration{1: 30 * ms, 2: 40 * ms, 3: 35 * ms, 4: 30 * ms, 5: 5 * ms}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %v, want %v", id, self[id], w)
		}
	}
	byLayer := layerSelf(spans)
	if byLayer["bench"] != 30*ms || byLayer["stream"] != 75*ms || byLayer["alert"] != 35*ms {
		t.Errorf("layer self times = %v", byLayer)
	}
}

func TestClimbFindsHighestPassingRung(t *testing.T) {
	passBelow8 := func(k int) bool { return k < 8 }
	cases := []struct{ start, max, best, probes int }{
		{start: 5, max: 10, best: 7, probes: 4},  // 5, 6, 7 pass, 8 fails
		{start: 10, max: 10, best: 7, probes: 4}, // 10, 9, 8 fail, 7 passes
		{start: 2, max: 3, best: 4, probes: 3},   // cut short while climbing
		{start: 20, max: 3, best: -1, probes: 3}, // cut short while descending
	}
	for _, c := range cases {
		best, probes := climb(c.start, c.max, passBelow8)
		if best != c.best || probes != c.probes {
			t.Errorf("climb(%d, %d) = %d after %d probes, want %d after %d", c.start, c.max, best, probes, c.best, c.probes)
		}
	}
	if best, _ := climb(0, 5, func(int) bool { return false }); best != -1 {
		t.Errorf("climb with no passing rung = %d, want -1", best)
	}
}

func TestLadder(t *testing.T) {
	if ladderStep > 1.1 {
		t.Fatalf("ladder steps %.2f apart, want at most a tenth", ladderStep)
	}
	for _, r := range []float64{1, ladderBase, 12345, 55000, 81000, 250000} {
		k := ladderRung(r)
		if k > 0 && ladderRate(k) > r || r >= ladderBase && ladderRate(k+1) <= r {
			t.Errorf("ladderRung(%g) = %d with rate %g, next %g", r, k, ladderRate(k), ladderRate(k+1))
		}
	}
}

// TestBenchmarkFileListsEveryMetric keeps BENCHMARK.json and the code in
// step: every per-layer metric a traced run reports is declared there
// with its unit, and so is every end-to-end metric the workloads report.
func TestBenchmarkFileListsEveryMetric(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the traced run reports %d", len(b.PerLayer), len(perLayerMetrics))
	}
	for i, m := range perLayerMetrics {
		if b.PerLayer[i].Name != m.name || b.PerLayer[i].Unit != m.unit {
			t.Errorf("per_layer[%d] = %s %s, want %s %s", i, b.PerLayer[i].Name, b.PerLayer[i].Unit, m.name, m.unit)
		}
	}
	units := map[string]string{}
	for _, m := range b.EndToEnd {
		units[m.Name] = m.Unit
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, every workload reports %d", len(b.EndToEnd), len(endToEnd))
	}
	for _, m := range endToEnd {
		if units[m.name] != m.unit {
			t.Errorf("workloads report %s in %s; BENCHMARK.json says %q", m.name, m.unit, units[m.name])
		}
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s has no implementation", w.Name)
		}
	}
	if math.IsNaN(median(nil)) == false {
		t.Error("median of nothing is a number")
	}
}
