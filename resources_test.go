// Resource-observatory tests: the accountant is an *ops* channel, so
// attaching it must never perturb the deterministic artifacts — the
// obs snapshot, the trace JSONL, and the windowed time series stay
// byte-identical with accounting on and off.
package backscatter_test

import (
	"bytes"
	"testing"

	backscatter "dnsbackscatter"
)

// instrumentedRun executes the traced chaos pipeline with an optional
// accountant attached and returns the three deterministic artifacts.
func instrumentedRun(t *testing.T, acct *backscatter.Accountant) (snap, jsonl, series []byte) {
	t.Helper()
	reg := backscatter.NewRegistry()
	reg.SetClock(backscatter.TickClock(1))
	reg.SetWindow(backscatter.NewWindow(6 * 3600))
	spec := seedMatrixSpec(7, 4, "lossy@1").WithTracing(4)
	spec.Obs, spec.Acct = reg, acct
	ds := backscatter.Build(spec)
	m, err := ds.TrainClassifier(3)
	if err != nil {
		t.Fatalf("train: %v", err)
	}
	m.ClassifyAll(ds.Whole())
	return reg.SnapshotJSON(), ds.Tracer().JSONL(), reg.Window().SnapshotJSON()
}

// TestProfDoesNotPerturbArtifacts pins the ops/deterministic split:
// building and classifying with a resource accountant attached produces
// byte-identical snapshot, trace JSONL, and windowed series to the same
// run without one. Resource readings may vary run to run; the
// deterministic artifacts may not.
func TestProfDoesNotPerturbArtifacts(t *testing.T) {
	wantSnap, wantJSONL, wantTS := instrumentedRun(t, nil)
	acct := backscatter.NewAccountant()
	gotSnap, gotJSONL, gotTS := instrumentedRun(t, acct)
	if !bytes.Equal(gotSnap, wantSnap) {
		t.Error("SnapshotJSON differs with accounting attached")
	}
	if !bytes.Equal(gotJSONL, wantJSONL) {
		t.Error("trace JSONL differs with accounting attached")
	}
	if !bytes.Equal(gotTS, wantTS) {
		t.Error("windowed series differs with accounting attached")
	}
	if len(acct.Report().Stages) == 0 {
		t.Error("instrumented run recorded no stages — the comparison proved nothing")
	}
}

// TestResourcesReport pins the dataset-level accounting surface: the
// pipeline stages land in Resources(), and a dataset built without an
// accountant reports nothing rather than failing.
func TestResourcesReport(t *testing.T) {
	acct := backscatter.NewAccountant()
	_, _, _ = instrumentedRun(t, acct)
	report := acct.Report()
	byStage := make(map[string]backscatter.StageStats, len(report.Stages))
	for _, s := range report.Stages {
		byStage[s.Stage] = s
	}
	for _, stage := range []string{"dedup", "filter", "extract", "train", "classify"} {
		s, ok := byStage[stage]
		if !ok {
			t.Errorf("stage %q missing from resource report (have %v)", stage, report.Stages)
			continue
		}
		if s.Calls == 0 {
			t.Errorf("stage %q recorded no completed calls", stage)
		}
	}
	if s := byStage["extract"]; s.Shards == 0 || s.WorkerPeak == 0 {
		t.Errorf("extract stage missed pool accounting: %+v", s)
	}

	plain := backscatter.Build(seedMatrixSpec(7, 1, ""))
	if plain.Spec.Acct != nil {
		t.Error("plain Build attached an accountant")
	}
	if got := plain.Resources(); len(got.Stages) != 0 {
		t.Errorf("plain Build reported stages: %+v", got.Stages)
	}
}
