package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"slices"
	"time"

	bs "dnsbackscatter"
	"dnsbackscatter/internal/activity"
	"dnsbackscatter/internal/classify"
	"dnsbackscatter/internal/dnslog"
	"dnsbackscatter/internal/faults"
	"dnsbackscatter/internal/features"
	"dnsbackscatter/internal/groundtruth"
	"dnsbackscatter/internal/ipaddr"
	"dnsbackscatter/internal/obs"
	"dnsbackscatter/internal/rng"
	"dnsbackscatter/internal/simtime"
	"dnsbackscatter/internal/world"
)

// seeded returns spec with its populations multiplied by scale, its touch
// rates by rateScale, the benchmark's worker count, and its seed mixed
// with the run's seed.
func seeded(spec bs.DatasetSpec, scale, rateScale float64, seed uint64) bs.DatasetSpec {
	spec.RateScale *= rateScale
	spec = spec.Scaled(scale).WithParallelism(workers)
	spec.Seed = mix(spec.Seed, seed)
	return spec
}

// mix combines a spec seed and the run seed with one splitmix64 round.
func mix(a, b uint64) uint64 {
	z := a ^ (b * 0x9e3779b97f4a7c15)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// worldConfig derives the world configuration bs.Build derives from a
// spec. The traced run replays Build through the layer calls with it;
// the drift guard in table1Build fails the run if the replay's records
// or snapshots ever differ from Build's.
func worldConfig(spec bs.DatasetSpec) (world.Config, error) {
	cfg := world.DefaultConfig()
	cfg.Seed = spec.Seed
	cfg.Start = spec.Start
	cfg.Duration = spec.Duration
	cfg.RateScale = spec.RateScale
	cfg.MSample = spec.Sample
	cfg.JPShare = spec.JPShare
	for cls, n := range spec.Population {
		scaled := int(float64(n)*spec.Scale + 0.5)
		if n > 0 && scaled == 0 {
			scaled = 1
		}
		cfg.ClassPopulation[cls] = scaled
	}
	cfg.QMinFraction = spec.QMinFraction
	if spec.TeamProb != 0 {
		cfg.Teams = max(spec.TeamProb, 0)
	}
	if spec.Darknet {
		cfg.DarknetSlash8 = 150
	}
	plan, err := faults.Parse(spec.Faults)
	if err != nil {
		return cfg, err
	}
	cfg.Faults = plan
	if spec.Heartbleed {
		hb := world.Burst{
			Class:    activity.Scan,
			Port:     "tcp443",
			Start:    simtime.Date(2014, time.April, 7, 12, 0),
			Duration: simtime.Days(28),
			Extra:    cfg.ClassPopulation[activity.Scan]/3 + 1,
		}
		end := spec.Start.Add(spec.Duration)
		if hb.Start.After(spec.Start) && hb.Start.Before(end) {
			cfg.Bursts = append(cfg.Bursts, hb)
		}
	}
	return cfg, nil
}

// sensorRecords returns the records of the spec's authority sensor.
func sensorRecords(w *world.World, authority string) ([]dnslog.Record, uint64, error) {
	switch authority {
	case "jp":
		s := w.National["jp"]
		return s.Records(), s.Seen(), nil
	case "b-root":
		return w.BRoot.Records(), w.BRoot.Seen(), nil
	case "m-root":
		return w.MRoot.Records(), w.MRoot.Seen(), nil
	}
	return nil, 0, fmt.Errorf("unknown authority %q", authority)
}

// replayBuild performs Build's steps as separate layer calls, each in its
// own span under parent: world.New and Run; extraction of the interval
// snapshots and the whole span; the oracle and the curation. reg
// instruments the world and the extractor; acc collects what the steps
// allocate and produce.
func replayBuild(spec bs.DatasetSpec, t *tracer, parent int32, reg *obs.Registry, acc *layerAcc) (*bs.Dataset, uint64, error) {
	cfg, err := worldConfig(spec)
	if err != nil {
		return nil, 0, err
	}
	var w *world.World
	acc.measure(t, "world.new", "world.alloc_bytes", parent, func() {
		w = world.New(cfg)
		w.SetMetrics(reg)
	})
	acc.measure(t, "world.run", "world.alloc_bytes", parent, w.Run)
	recs, seen, err := sensorRecords(w, spec.Authority)
	if err != nil {
		return nil, 0, err
	}
	acc.add("sensor.records", float64(len(recs)))
	acc.add("sensor.seen", float64(seen))
	d := &bs.Dataset{Spec: spec, World: w, Records: recs}
	acc.measure(t, "features.snap_intervals", "features.alloc_bytes", parent, func() {
		d.Extractor = features.NewExtractor(w.Geo, w.QuerierName)
		d.Extractor.Obs = reg
		d.Extractor.Workers = spec.Workers
		if spec.MinQueriers > 0 {
			d.Extractor.MinQueriers = spec.MinQueriers
		}
		d.Snapshots = classify.SnapIntervals(recs, d.Extractor, spec.Start, spec.Duration, spec.Interval)
	})
	t.call("groundtruth.oracle", parent, func() {
		truth := make(map[ipaddr.Addr]activity.Class)
		for a, tr := range w.TruthMap() {
			truth[a] = tr.Class
		}
		d.Oracle = groundtruth.NewOracle(truth, w.Dark, spec.Seed)
	})
	var whole *classify.Snapshot
	acc.measure(t, "features.snap_whole", "features.alloc_bytes", parent, func() { whole = d.Whole() })
	t.call("groundtruth.curate", parent, func() { d.Labels = curate(whole, d.Oracle, spec.Seed) })
	acc.add("groundtruth.labels", float64(len(d.Labels.Labels)))
	return d, seen, nil
}

// curate is Build's expert curation over a whole-span snapshot.
func curate(whole *classify.Snapshot, o *groundtruth.Oracle, seed uint64) *groundtruth.LabeledSet {
	st := rng.NewSource(seed).Stream("curation")
	return groundtruth.Curate(whole.Ranked(), o, groundtruth.DefaultCuration(), st)
}

// digest hashes values into a SHA-256 state field by field.
type digest struct {
	h   hash.Hash
	buf [8]byte
}

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) u64(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	d.h.Write(d.buf[:])
}

func (d *digest) str(s string) {
	d.u64(uint64(len(s)))
	d.h.Write([]byte(s))
}

func (d *digest) records(recs []dnslog.Record) {
	d.u64(uint64(len(recs)))
	for _, r := range recs {
		d.u64(uint64(r.Time))
		d.u64(uint64(r.Originator)<<32 | uint64(r.Querier))
		d.str(r.Authority)
		d.u64(uint64(r.RCode))
	}
}

func (d *digest) snapshots(snaps []*classify.Snapshot) {
	d.u64(uint64(len(snaps)))
	for _, s := range snaps {
		d.u64(uint64(s.Start))
		d.u64(uint64(s.Dur))
		d.u64(uint64(len(s.Vectors)))
		for _, v := range s.Vectors {
			d.u64(uint64(v.Originator))
			d.u64(uint64(v.Queriers))
			d.u64(uint64(v.Queries))
			for _, x := range v.X {
				d.u64(math.Float64bits(x))
			}
		}
	}
}

func (d *digest) labels(ls *groundtruth.LabeledSet) {
	d.u64(uint64(len(ls.Labels)))
	addrs := make([]ipaddr.Addr, 0, len(ls.Labels))
	for a := range ls.Labels {
		addrs = append(addrs, a)
	}
	slices.Sort(addrs)
	for _, a := range addrs {
		d.u64(uint64(a)<<8 | uint64(ls.Labels[a]))
	}
}

func (d *digest) sum() string { return fmt.Sprintf("%x", d.h.Sum(nil)) }

// datasetDigest covers a dataset's records and interval snapshots.
func datasetDigest(d *bs.Dataset) string {
	h := newDigest()
	h.records(d.Records)
	h.snapshots(d.Snapshots)
	return h.sum()
}
