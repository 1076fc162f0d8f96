// Chaos seed matrix: the PR 4 acceptance bar. With deterministic fault
// injection active — packet loss up to 20%, latency storms, SERVFAIL
// bursts — the full pipeline must still complete without error, and for
// a fixed (profile, seed) cell its observability snapshot and
// classification report must stay byte-identical at every worker count.
package backscatter_test

import (
	"bytes"
	"encoding/json"
	"testing"

	backscatter "dnsbackscatter"
)

// counterValue pulls one counter out of a SnapshotJSON document by its
// full metric identity (name plus label block).
func counterValue(t *testing.T, snapJSON []byte, metric string) int64 {
	t.Helper()
	var doc struct {
		Counters []struct {
			Metric string `json:"metric"`
			Value  int64  `json:"value"`
		} `json:"counters"`
	}
	if err := json.Unmarshal(snapJSON, &doc); err != nil {
		t.Fatalf("snapshot JSON: %v", err)
	}
	for _, c := range doc.Counters {
		if c.Metric == metric {
			return c.Value
		}
	}
	t.Fatalf("counter %q not in snapshot", metric)
	return 0
}

// TestChaosMatrix runs the pipeline under fault profiles {none, lossy,
// servfail-storm} × seeds {1, 2, 3} × workers {1, 8}. For every
// (profile, seed) pair the 8-worker run must reproduce the sequential
// run's bytes, and faulted cells must show their injections and the
// resolver's retries in the metrics.
func TestChaosMatrix(t *testing.T) {
	for _, fspec := range []string{"", "lossy@1", "servfail-storm@1"} {
		for _, seed := range []uint64{1, 2, 3} {
			wantSnap, wantReport := pipelineRun(t, seed, 1, fspec)
			if len(wantReport) == 0 {
				t.Fatalf("faults=%q seed=%d: empty classification report", fspec, seed)
			}
			gotSnap, gotReport := pipelineRun(t, seed, 8, fspec)
			if !bytes.Equal(gotSnap, wantSnap) {
				t.Errorf("faults=%q seed=%d: SnapshotJSON differs between workers 1 and 8", fspec, seed)
			}
			if !bytes.Equal(gotReport, wantReport) {
				t.Errorf("faults=%q seed=%d: classification report differs between workers 1 and 8", fspec, seed)
			}

			switch fspec {
			case "lossy@1":
				if v := counterValue(t, wantSnap, `faults_injected_total{kind="loss"}`); v == 0 {
					t.Errorf("faults=%q seed=%d: no loss injections recorded", fspec, seed)
				}
				if v := counterValue(t, wantSnap, "resolver_retries_total"); v == 0 {
					t.Errorf("faults=%q seed=%d: no resolver retries recorded", fspec, seed)
				}
			case "servfail-storm@1":
				if v := counterValue(t, wantSnap, `faults_injected_total{kind="servfail"}`); v == 0 {
					t.Errorf("faults=%q seed=%d: no servfail injections recorded", fspec, seed)
				}
			}
		}
	}
}

// tracedRun builds the seed-matrix dataset with tracing and a windowed
// registry attached and returns the two PR 5 artifacts: the sorted trace
// JSONL and the windowed time-series JSON.
func tracedRun(t *testing.T, seed uint64, workers int, fspec string) (jsonl, series []byte) {
	t.Helper()
	reg := backscatter.NewRegistry()
	reg.SetClock(backscatter.TickClock(1))
	reg.SetWindow(backscatter.NewWindow(6 * 3600))
	spec := seedMatrixSpec(seed, workers, fspec).WithTracing(4)
	spec.Obs = reg
	ds := backscatter.Build(spec)
	tr := ds.Tracer()
	if tr == nil {
		t.Fatalf("seed=%d workers=%d: WithTracing(4) built no tracer", seed, workers)
	}
	if tr.Sample() != 4 {
		t.Fatalf("seed=%d: tracer sample = %d, want 4", seed, tr.Sample())
	}
	return tr.JSONL(), reg.Window().SnapshotJSON()
}

// TestChaosTraceDeterminism is the PR 5 acceptance bar: under fault
// injection, the trace JSONL and the windowed time-series snapshot must
// be byte-identical at workers {1, 2, 8} and across repeated same-seed
// runs, and the traces must carry the injected faults and the pipeline's
// provenance verdicts.
func TestChaosTraceDeterminism(t *testing.T) {
	for _, seed := range []uint64{1, 3} {
		wantJSONL, wantTS := tracedRun(t, seed, 1, "lossy@1")
		if len(wantJSONL) == 0 {
			t.Fatalf("seed=%d: empty trace JSONL", seed)
		}
		for _, marker := range []string{
			`"kind":"lookup"`, `"kind":"fault"`, `"kind":"sensor"`,
			`"kind":"done"`, `"kind":"pipeline"`, `"stage":"dedup"`,
		} {
			if !bytes.Contains(wantJSONL, []byte(marker)) {
				t.Errorf("seed=%d: trace JSONL missing %s", seed, marker)
			}
		}
		if !bytes.Contains(wantTS, []byte("faults_injected_total")) ||
			!bytes.Contains(wantTS, []byte("world_events_total")) {
			t.Errorf("seed=%d: windowed series missing expected metrics:\n%s", seed, wantTS)
		}

		againJSONL, againTS := tracedRun(t, seed, 1, "lossy@1")
		if !bytes.Equal(againJSONL, wantJSONL) {
			t.Errorf("seed=%d: trace JSONL differs between repeated sequential runs", seed)
		}
		if !bytes.Equal(againTS, wantTS) {
			t.Errorf("seed=%d: windowed series differs between repeated sequential runs", seed)
		}
		for _, w := range []int{2, 8} {
			gotJSONL, gotTS := tracedRun(t, seed, w, "lossy@1")
			if !bytes.Equal(gotJSONL, wantJSONL) {
				t.Errorf("seed=%d workers=%d: trace JSONL differs from sequential run", seed, w)
			}
			if !bytes.Equal(gotTS, wantTS) {
				t.Errorf("seed=%d workers=%d: windowed series differs from sequential run", seed, w)
			}
		}
	}
}

// TestChaosNoGoroutineLeak runs faulted pipelines at high worker counts
// and asserts the stable goroutine count returns to its pre-run level:
// pool workers, fault paths, and tracing must all wind down. A warm-up
// run precedes the baseline so lazily started runtime goroutines (GC
// background mark workers scale with GOMAXPROCS and persist after the
// process's first collection) don't masquerade as a leak when shuffled
// test order puts this test first; the small slack absorbs the
// stragglers (finalizer, scavenger).
func TestChaosNoGoroutineLeak(t *testing.T) {
	pipelineRun(t, 1, 8, "")
	before := backscatter.StableGoroutines()
	for _, fspec := range []string{"", "lossy@1"} {
		pipelineRun(t, 1, 8, fspec)
	}
	after := backscatter.StableGoroutines()
	if after > before+2 {
		t.Errorf("stable goroutines grew %d -> %d across chaos runs; a pipeline goroutine leaked", before, after)
	}
}

// TestChaosSchedulesDivergeBySeed guards against a degenerate plan that
// ignores its seed: two lossy runs with different fault seeds must not
// produce the same injection schedule.
func TestChaosSchedulesDivergeBySeed(t *testing.T) {
	snapA, _ := pipelineRun(t, 1, 1, "lossy@1")
	snapB, _ := pipelineRun(t, 1, 1, "lossy@2")
	a := counterValue(t, snapA, `faults_injected_total{kind="loss"}`)
	b := counterValue(t, snapB, `faults_injected_total{kind="loss"}`)
	if a == b {
		t.Errorf("lossy@1 and lossy@2 injected the same loss count (%d); schedules look seed-independent", a)
	}
}

// TestChaosBadSpecPanics pins Build's contract for a malformed
// faults spec: a panic naming the problem, not a silent no-fault run.
func TestChaosBadSpecPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Build accepted an unknown fault profile")
		}
	}()
	spec := seedMatrixSpec(1, 1, "no-such-profile@1")
	backscatter.Build(spec)
}
