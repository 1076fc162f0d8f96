// Scratch-reuse invariance: the PR 8 acceptance bar for the allocation
// blitz. Every pooled or reused buffer in the pipeline — columnar shard
// scratch, vector scratch, intern tables, encode pools — is an ops-only
// optimization, so a run with reuse disabled (DatasetSpec.NoReuse) must
// produce byte-identical observability snapshots, trace JSONL, and
// classification reports at every worker count.
package backscatter_test

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	backscatter "dnsbackscatter"
)

// reuseRun executes the full pipeline for one (seed, workers, noReuse)
// cell with tracing on and returns the three artifacts compared by the
// invariance matrix.
func reuseRun(t *testing.T, seed uint64, workers int, noReuse bool) (snapJSON, jsonl, report []byte) {
	t.Helper()
	reg := backscatter.NewRegistry()
	reg.SetClock(backscatter.TickClock(1))
	spec := seedMatrixSpec(seed, workers, "").WithTracing(4)
	if noReuse {
		spec = spec.WithoutScratchReuse()
	}
	spec.Obs = reg
	ds := backscatter.Build(spec)
	tr := ds.Tracer()
	if tr == nil {
		t.Fatalf("seed=%d workers=%d: WithTracing(4) built no tracer", seed, workers)
	}

	model, err := ds.TrainClassifier(3)
	if err != nil {
		t.Fatalf("seed=%d workers=%d noReuse=%v: train: %v", seed, workers, noReuse, err)
	}
	labels := model.ClassifyAll(ds.Whole())
	addrs := make([]backscatter.Addr, 0, len(labels))
	for a := range labels {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	var b bytes.Buffer
	for _, a := range addrs {
		fmt.Fprintf(&b, "%s\t%s\n", a, labels[a])
	}
	return reg.SnapshotJSON(), tr.JSONL(), b.Bytes()
}

// TestScratchReuseInvariance runs workers {1, 8} × 2 seeds and asserts
// that disabling scratch reuse changes no output byte in the snapshot,
// the trace JSONL, or the classification report.
func TestScratchReuseInvariance(t *testing.T) {
	for _, seed := range []uint64{1404, 7} {
		for _, w := range []int{1, 8} {
			wantSnap, wantJSONL, wantReport := reuseRun(t, seed, w, false)
			if len(wantReport) == 0 {
				t.Fatalf("seed=%d workers=%d: empty classification report", seed, w)
			}
			if len(wantJSONL) == 0 {
				t.Fatalf("seed=%d workers=%d: empty trace JSONL", seed, w)
			}
			gotSnap, gotJSONL, gotReport := reuseRun(t, seed, w, true)
			if !bytes.Equal(gotSnap, wantSnap) {
				t.Errorf("seed=%d workers=%d: SnapshotJSON differs with NoReuse", seed, w)
			}
			if !bytes.Equal(gotJSONL, wantJSONL) {
				t.Errorf("seed=%d workers=%d: trace JSONL differs with NoReuse", seed, w)
			}
			if !bytes.Equal(gotReport, wantReport) {
				t.Errorf("seed=%d workers=%d: classification report differs with NoReuse:\n--- reuse ---\n%s--- noReuse ---\n%s",
					seed, w, wantReport, gotReport)
			}
		}
	}
}
