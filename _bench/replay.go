package main

import (
	"fmt"
	"time"

	bs "dnsbackscatter"
	"dnsbackscatter/internal/classify"
	"dnsbackscatter/internal/dnslog"
	"dnsbackscatter/internal/features"
	"dnsbackscatter/internal/ml"
	"dnsbackscatter/internal/obs"
	"dnsbackscatter/internal/simtime"
)

// replayScale and replayRateScale size B-long for repro-replay: the full
// campaign population at 0.15 of its touch rate, about 200k records. The
// many small campaigns keep the dataset's size, and with it set-up time
// and memory, steadier from seed to seed than fewer, larger ones would.
const (
	replayScale     = 1.0
	replayRateScale = 0.15
)

// replayInputs is how many B-long datasets a repro-replay run builds
// from its seed.
const replayInputs = 5

// validateRuns is the number of 60/40 splits per algorithm, as in the
// reproduction's Table III.
const validateRuns = 15

// minRFAccuracy is the bottom of the paper's 0.6-0.8 accuracy band.
const minRFAccuracy = 0.6

// replayState is repro-replay's set-up: B-long built once, with the
// digests every op's re-extraction and curation must reproduce.
type replayState struct {
	d            *bs.Dataset
	snaps, label string
}

// reproReplay is a closed loop over the Fig. 2 pipeline after simulation.
// Set-up builds B-long once per input; each op takes the next input and
// reruns dedup, extraction with a fresh extractor, curation, training,
// Table III validation, classification and the batch-versus-stream
// comparison over its built records.
func reproReplay(r *run) error {
	inputs, err := setup(r, replayInputs, func(seed uint64) (replayState, error) {
		d := bs.Build(seeded(bs.BLong(), replayScale, replayRateScale, seed))
		h := newDigest()
		h.snapshots(d.Snapshots)
		l := newDigest()
		l.labels(d.Labels)
		return replayState{d: d, snaps: h.sum(), label: l.sum()}, nil
	})
	if err != nil {
		return err
	}
	for j, st := range inputs {
		fmt.Printf("input %d: B-long, %d records, %d snapshots, %d labels\n", j, len(st.d.Records), len(st.d.Snapshots), len(st.d.Labels.Labels))
	}
	var times, traced, agree []float64
	acc := newLayerAcc()
	r.loop(2, func(i int) {
		// A traced run alternates untraced and traced ops, at least one of
		// each and both kinds on every input; the difference of their
		// medians is the tracing overhead.
		j, t := i%len(inputs), r.tr
		if t != nil {
			j = i / 2 % len(inputs)
		}
		st := inputs[j]
		if i%2 == 0 {
			t = nil
		}
		var reg *obs.Registry
		if t != nil {
			reg = obs.NewRegistry()
		}
		t0 := time.Now()
		a, err := pipeline(st, t, reg, acc)
		el := time.Since(t0).Seconds()
		if t != nil {
			traced = append(traced, el)
			acc.registry(reg)
			acc.add("stream.agreement", a)
			acc.ops++
		} else {
			times = append(times, el)
		}
		agree = append(agree, a)
		fmt.Printf("op %d: input %d, %.3fs, traced %v\n", i+1, j, el, t != nil)
		r.op(err)
	})
	if r.tr != nil {
		acc.emit(r, r.tr.snapshot())
		r.set("trace.overhead_pct", 100*(median(traced)-median(times))/median(times), "%")
		return nil
	}
	r.set("latency_ms", 1000*median(times), "ms")
	r.set("throughput_per_s", 1/median(times), "1/s")
	fmt.Printf("stream_agreement %.4f (printed, not gated), median of %d ops\n", median(agree), len(agree))
	return nil
}

// pipeline runs one repro-replay op and returns the stream agreement.
// With a tracer, each layer call runs in a span and acc collects the
// layers' counts; reg instruments the fresh extractor.
func pipeline(st replayState, t *tracer, reg *obs.Registry, acc *layerAcc) (float64, error) {
	src := st.d
	spec := src.Spec
	op := t.beginOp("bench.replay_op")
	defer t.end(op)

	var kept []dnslog.Record
	t.call("dnslog.dedup", op, func() { kept = dnslog.Dedup(src.Records, 30*simtime.Second) })
	if len(kept) == 0 || len(kept) > len(src.Records) {
		return 0, fmt.Errorf("dedup kept %d of %d records", len(kept), len(src.Records))
	}
	if t != nil {
		acc.add("dnslog.kept", float64(len(kept)))
		acc.add("dnslog.records", float64(len(src.Records)))
	}

	// A fresh Dataset value memoizes its own whole-span snapshot, so no
	// extraction from set-up is reused.
	d := &bs.Dataset{Spec: spec, World: src.World, Records: src.Records, Oracle: src.Oracle}
	d.Extractor = features.NewExtractor(src.World.Geo, src.World.QuerierName)
	d.Extractor.Workers = spec.Workers
	d.Extractor.MinQueriers = spec.MinQueriers
	d.Extractor.Obs = reg
	measure := func(name string, fn func()) {
		if t == nil {
			fn()
			return
		}
		acc.measure(t, name, "features.alloc_bytes", op, fn)
	}
	measure("features.snap_intervals", func() {
		d.Snapshots = classify.SnapIntervals(d.Records, d.Extractor, spec.Start, spec.Duration, spec.Interval)
	})
	h := newDigest()
	h.snapshots(d.Snapshots)
	if h.sum() != st.snaps {
		return 0, fmt.Errorf("re-extracted snapshots differ from the set-up build's")
	}
	var whole *classify.Snapshot
	measure("features.snap_whole", func() { whole = d.Whole() })

	t.call("groundtruth.curate", op, func() { d.Labels = curate(whole, d.Oracle, spec.Seed) })
	l := newDigest()
	l.labels(d.Labels)
	if l.sum() != st.label {
		return 0, fmt.Errorf("re-curated labels differ from the set-up build's")
	}

	var model *bs.Model
	var err error
	t.call("ml.train", op, func() { model, err = d.TrainClassifier(1) })
	if err != nil {
		return 0, fmt.Errorf("train: %w", err)
	}
	for _, alg := range []bs.Algorithm{bs.AlgCART, bs.AlgRandomForest, bs.AlgSVM} {
		var res ml.ValidationResult
		t.call("ml.validate", op, func() { res, err = d.Validate(alg, 0.6, validateRuns) })
		if err != nil {
			return 0, fmt.Errorf("validate %v: %w", alg, err)
		}
		if alg == bs.AlgRandomForest && res.Accuracy.Mean < minRFAccuracy {
			return 0, fmt.Errorf("random forest accuracy %.3f below %.1f", res.Accuracy.Mean, minRFAccuracy)
		}
	}
	if t != nil {
		acc.add("ml.validate_runs", 3*validateRuns)
		acc.add("groundtruth.labels", float64(len(d.Labels.Labels)))
	}

	var verdicts map[bs.Addr]bs.Class
	t.call("classify.classify_all", op, func() { verdicts = model.ClassifyAll(whole) })
	if len(verdicts) != len(whole.Vectors) {
		return 0, fmt.Errorf("%d verdicts for %d analyzable originators", len(verdicts), len(whole.Vectors))
	}
	if t != nil {
		acc.add("classify.verdicts", float64(len(verdicts)))
	}

	// The stream epoch is the dataset's weekly interval: hourly epochs
	// over B-long's 150 days would spend the op in 3,600 rescores.
	var cmp bs.StreamComparison
	t.call("stream.compare", op, func() { cmp = d.CompareStream(bs.StreamSpec{}, model) })
	if cmp.Agreement <= 0 {
		return 0, fmt.Errorf("stream agreement %v", cmp.Agreement)
	}
	return cmp.Agreement, nil
}
