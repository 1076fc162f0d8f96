package main

import (
	"fmt"
	"time"

	bs "dnsbackscatter"
	"dnsbackscatter/internal/obs"
	"dnsbackscatter/internal/world"
)

// table1Scale sizes the four two-day Table I specs, which cost little
// whatever their size. The long specs are shaped as many small campaigns
// (longShape: population scale, then touch-rate scale): the simulator
// draws touch rates from Pareto tails, so at the population scale a run
// can afford, one capped campaign can make one seed's M-sampled build
// five times another's. Many campaigns at a lower rate keep the op time
// steadier from seed to seed, and an op short enough for a run to cycle
// through eight inputs; README.md gives the figures.
const table1Scale = 0.05

var longShape = map[string][2]float64{
	"M-sampled":    {0.5, 0.025},
	"B-long":       {0.5, 0.075},
	"B-multi-year": {0.15, 0.075},
}

func table1Specs(seed uint64) []bs.DatasetSpec {
	specs := []bs.DatasetSpec{bs.JPDitl(), bs.BPostDitl(), bs.MDitl(), bs.MDitl2015(), bs.MSampled(), bs.BLong(), bs.BMultiYear()}
	for i, s := range specs {
		scale, rate := table1Scale, 1.0
		if sh, ok := longShape[s.Name]; ok {
			scale, rate = sh[0], sh[1]
		}
		specs[i] = seeded(s, scale, rate, seed)
	}
	return specs
}

// table1Inputs is how many inputs, each a set of seven specs, a
// table1-build run makes from its seed.
const table1Inputs = 8

// table1Build is a closed loop: each op builds all seven Table I datasets
// of one input with bs.Build, the ops cycling through the inputs. Set-up
// derives each input's specs and constructs their worlds once, which
// also checks that worldConfig accepts every spec. An input's digest must
// be the same every time it is built; the run makes at least one op more
// than it has inputs, so the check runs at least once.
func table1Build(r *run) error {
	inputs, err := setup(r, table1Inputs, func(seed uint64) ([]bs.DatasetSpec, error) {
		specs := table1Specs(seed)
		for _, s := range specs {
			cfg, err := worldConfig(s)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", s.Name, err)
			}
			world.New(cfg)
		}
		return specs, nil
	})
	if err != nil {
		return err
	}
	if r.tr != nil {
		return table1Traced(r, inputs)
	}
	var times []float64
	refs := make([]string, len(inputs))
	r.loop(len(inputs)+1, func(i int) {
		j := i % len(inputs)
		t0 := time.Now()
		sum, recs, err := buildAll(inputs[j])
		el := time.Since(t0).Seconds()
		times = append(times, el)
		fmt.Printf("op %d: input %d, %.3fs, %d records\n", len(times), j, el, recs)
		if err == nil && refs[j] != "" && sum != refs[j] {
			err = fmt.Errorf("input %d: digest %s differs from its first build's %s", j, sum, refs[j])
		}
		if refs[j] == "" && err == nil {
			refs[j] = sum
			fmt.Printf("digest table1-build seed %d input %d: %s\n", r.seed, j, sum)
		}
		r.op(err)
	})
	r.set("latency_ms", 1000*median(times), "ms")
	r.set("throughput_per_s", 1/median(times), "1/s")
	return nil
}

// buildAll builds every spec, checks each dataset, and returns a digest
// over all records and snapshot vectors, and the number of records.
func buildAll(specs []bs.DatasetSpec) (string, int, error) {
	h := newDigest()
	n := 0
	for _, s := range specs {
		d := bs.Build(s)
		if err := checkBuilt(d, d.ReverseQueries()); err != nil {
			return "", 0, err
		}
		h.records(d.Records)
		h.snapshots(d.Snapshots)
		n += len(d.Records)
	}
	return h.sum(), n, nil
}

// checkBuilt is the per-dataset correctness check of table1-build.
func checkBuilt(d *bs.Dataset, seen uint64) error {
	switch {
	case len(d.Records) == 0:
		return fmt.Errorf("%s: no records", d.Spec.Name)
	case seen < uint64(len(d.Records)):
		return fmt.Errorf("%s: %d reverse queries < %d records", d.Spec.Name, seen, len(d.Records))
	case len(d.Whole().Vectors) == 0:
		return fmt.Errorf("%s: no analyzable originator", d.Spec.Name)
	}
	return nil
}

// table1Traced times Build's steps layer by layer. Each op takes the next
// input, first builds every spec untraced with bs.Build, then replays the
// builds through the layer calls under spans with an obs registry
// attached. The replay must
// reproduce Build's records and snapshots exactly (the drift guard), so
// the per-layer numbers describe the program the untraced run times.
func table1Traced(r *run, inputs [][]bs.DatasetSpec) error {
	var refTimes, traceTimes []float64
	acc := newLayerAcc()
	r.loop(1, func(i int) {
		specs := inputs[i%len(inputs)]
		want := make([]string, len(specs))
		t0 := time.Now()
		for i, s := range specs {
			want[i] = datasetDigest(bs.Build(s))
		}
		refTimes = append(refTimes, time.Since(t0).Seconds())

		reg := obs.NewRegistry()
		op := r.tr.beginOp("bench.table1_op")
		t0 = time.Now()
		err := func() error {
			for i, s := range specs {
				id := r.tr.begin("bench.dataset", op)
				d, seen, err := replayBuild(s, r.tr, id, reg, acc)
				r.tr.end(id)
				if err != nil {
					return err
				}
				if err := checkBuilt(d, seen); err != nil {
					return err
				}
				if datasetDigest(d) != want[i] {
					return fmt.Errorf("%s: traced replay of Build drifted from bs.Build", s.Name)
				}
			}
			return nil
		}()
		traceTimes = append(traceTimes, time.Since(t0).Seconds())
		r.tr.end(op)
		r.op(err)
		acc.registry(reg)
		acc.ops++
	})
	acc.emit(r, r.tr.snapshot())
	r.set("trace.overhead_pct", 100*(median(traceTimes)-median(refTimes))/median(refTimes), "%")
	return nil
}
