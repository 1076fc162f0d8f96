package backscatter

import (
	"fmt"
	"sync"
	"time"

	"dnsbackscatter/internal/activity"
	"dnsbackscatter/internal/alert"
	"dnsbackscatter/internal/classify"
	"dnsbackscatter/internal/dnslog"
	"dnsbackscatter/internal/faults"
	"dnsbackscatter/internal/features"
	"dnsbackscatter/internal/groundtruth"
	"dnsbackscatter/internal/ipaddr"
	"dnsbackscatter/internal/obs"
	"dnsbackscatter/internal/prof"
	"dnsbackscatter/internal/rng"
	"dnsbackscatter/internal/simtime"
	"dnsbackscatter/internal/trace"
	"dnsbackscatter/internal/world"
)

// DatasetSpec describes a dataset to simulate — the knobs of the paper's
// Table I plus simulation-scale controls.
type DatasetSpec struct {
	Name      string
	Authority string   // "jp", "b-root", or "m-root"
	Start     Time     // collection start
	Duration  Duration // collection length
	Interval  Duration // feature-aggregation interval d (§III-B)
	Sample    int      // M-Root sampling divisor (1 = unsampled)
	Seed      uint64

	// Scale multiplies class populations; RateScale multiplies campaign
	// touch rates. Together they size the simulation.
	Scale     float64
	RateScale float64

	// Population is the steady-state concurrent campaigns per class
	// before Scale.
	Population [NumClasses]int

	// MinQueriers is the analyzability threshold; the paper uses 20.
	MinQueriers int

	// Heartbleed injects the 2014-04-07 scanning burst when the window
	// covers it.
	Heartbleed bool

	// Darknet enables the /17+/18 scan monitors.
	Darknet bool

	// JPShare boosts the fraction of originators in jp space.
	JPShare float64

	// QMinFraction is the share of resolvers performing QNAME
	// minimization, which hides lookups from root and national sensors
	// (§VII). 0 matches the paper's 2014-era world.
	QMinFraction float64

	// TeamProb is the probability a scan campaign spawns as a /24 team
	// (§VI-B). Negative disables teams; 0 uses the world default.
	TeamProb float64

	// Workers bounds the goroutines each pipeline stage (extract, train,
	// validate, classify) may use; <= 0 uses runtime.GOMAXPROCS(0) and 1
	// reproduces the sequential code path exactly. Every worker count
	// yields byte-identical snapshots, models, and metrics.
	Workers int

	// Faults degrades the simulated DNS path with a seeded fault plan,
	// written as "profile" or "profile@seed" (e.g. "lossy@42"; see
	// FaultProfiles). Empty or "none" keeps the fault-free network. The
	// schedule is a pure function of the spec, so a faulted dataset is
	// byte-identical at any worker count.
	Faults string

	// Trace enables end-to-end query tracing with head-based sampling:
	// 0 disables tracing, 1 traces every lookup, and N > 1 keeps the
	// deterministic 1/N of lookups whose trace ID satisfies
	// id % N == 0. Trace IDs are pure hashes of (seed, querier, qname,
	// time), so the sampled subset — and the rendered JSONL — is
	// byte-identical at any worker count.
	Trace int

	// NoReuse disables the extraction pipeline's scratch reuse (columnar
	// shard buffers, vector scratch pools), allocating fresh memory per
	// batch instead. Output is byte-identical either way; the flag exists
	// so invariance tests can prove it. Production runs leave it false.
	NoReuse bool

	// Alerts attaches a declarative alert/SLO rule file (the alerts.rules
	// grammar; see ParseAlertRules) evaluated on demand by
	// Dataset.Alerts against the build's windowed metrics and traces.
	// "default" selects the built-in DefaultAlertRules; empty disables
	// alerting (Dataset.Alerts returns a nil, fully no-op engine).
	// Evaluation is clocked purely by simulated time, so the transition
	// log is byte-identical at any worker count.
	Alerts string

	// Obs, when non-nil, is the observability registry the build and
	// every later pipeline run on the dataset record into. With a
	// deterministic clock (TickClock) its snapshot is a pure function of
	// the rest of the spec. Nil records nothing.
	Obs *obs.Registry

	// Acct, when non-nil, accumulates per-stage resource accounting
	// (alloc deltas, GC cycles, goroutine and worker peaks) for the
	// pipeline stages. Its readings depend on scheduling and GC timing,
	// so they reach only Dataset.Resources, never the deterministic
	// snapshot, traces, or time series. Nil accounts nothing.
	Acct *prof.Accountant
}

// Scaled returns a copy with populations and rates multiplied by f — the
// single knob for shrinking simulations in tests.
func (s DatasetSpec) Scaled(f float64) DatasetSpec {
	s.Scale *= f
	return s
}

// WithParallelism returns a copy that runs pipeline stages on up to n
// goroutines (see Workers). Output is byte-identical for every n.
func (s DatasetSpec) WithParallelism(n int) DatasetSpec {
	s.Workers = n
	return s
}

// WithFaults returns a copy whose DNS path degrades under the given
// "profile@seed" fault spec (see Faults).
func (s DatasetSpec) WithFaults(spec string) DatasetSpec {
	s.Faults = spec
	return s
}

// WithoutScratchReuse returns a copy whose extraction pipeline allocates
// fresh buffers per batch instead of reusing scratch (see NoReuse).
// Output bytes are identical; only allocation behavior changes.
func (s DatasetSpec) WithoutScratchReuse() DatasetSpec {
	s.NoReuse = true
	return s
}

// WithTracing returns a copy that records end-to-end lookup traces,
// keeping the deterministic 1/n sample (n = 1 traces everything; see
// Trace).
func (s DatasetSpec) WithTracing(n int) DatasetSpec {
	s.Trace = n
	return s
}

// WithAlerts returns a copy that evaluates the given alert/SLO rule
// text ("default" for the built-in rules; see Alerts).
func (s DatasetSpec) WithAlerts(rules string) DatasetSpec {
	s.Alerts = rules
	return s
}

// basePopulation reflects the relative class sizes of Table V.
func basePopulation() [NumClasses]int {
	var p [NumClasses]int
	p[Spam] = 36
	p[Scan] = 30
	p[Mail] = 22
	p[CDN] = 14
	p[P2P] = 12
	p[AdTracker] = 8
	p[Cloud] = 8
	p[Crawler] = 6
	p[DNSServer] = 6
	p[Push] = 5
	p[NTP] = 4
	p[Update] = 3
	return p
}

// JPDitl is the ccTLD 50-hour dataset (Table I row 1): unsampled, low in
// the hierarchy, jp-space originators only.
func JPDitl() DatasetSpec {
	return DatasetSpec{
		Name:        "JP-ditl",
		Authority:   "jp",
		Start:       simtime.Date(2014, time.April, 15, 11, 0),
		Duration:    simtime.Hours(50),
		Interval:    simtime.Hours(50),
		Sample:      1,
		Seed:        1404,
		Scale:       1,
		RateScale:   0.6,
		Population:  jpPopulation(),
		MinQueriers: 20,
		Darknet:     true,
		JPShare:     0.5,
		TeamProb:    0.02,
	}
}

// jpPopulation skews toward spam, the most common class the paper sees at
// the JP authority (Table V); scan teams otherwise dominate the small
// simulated ccTLD view.
func jpPopulation() [NumClasses]int {
	p := basePopulation()
	p[Spam] = 52
	p[Scan] = 18
	return p
}

// BPostDitl is B-Root's 36-hour dataset (taken shortly after DITL 2014).
func BPostDitl() DatasetSpec {
	s := JPDitl()
	s.Name = "B-post-ditl"
	s.TeamProb = 0.08
	s.Population = basePopulation()
	s.Authority = "b-root"
	s.Start = simtime.Date(2014, time.April, 28, 19, 56)
	s.Duration = simtime.Hours(36)
	s.Interval = simtime.Hours(36)
	s.Seed = 1428
	s.RateScale = 0.8
	s.JPShare = 0.12
	return s
}

// MDitl is M-Root's 50-hour DITL 2014 dataset.
func MDitl() DatasetSpec {
	s := JPDitl()
	s.Name = "M-ditl"
	s.TeamProb = 0.08
	s.Population = basePopulation()
	s.Authority = "m-root"
	s.Seed = 1415
	s.RateScale = 0.8
	s.JPShare = 0.12
	return s
}

// MDitl2015 is M-Root's DITL 2015 collection.
func MDitl2015() DatasetSpec {
	s := MDitl()
	s.Name = "M-ditl-2015"
	s.Start = simtime.Date(2015, time.April, 13, 11, 0)
	s.Seed = 1513
	return s
}

// MSampled is the nine-month, 1:10-sampled M-Root dataset used for the
// paper's longitudinal analysis (§VI-C), with weekly feature intervals
// (d = 7 days) and the Heartbleed window inside its span.
func MSampled() DatasetSpec {
	s := JPDitl()
	s.Name = "M-sampled"
	s.TeamProb = 0.08
	s.Authority = "m-root"
	s.Start = simtime.Date(2014, time.February, 16, 0, 0)
	s.Duration = simtime.Days(252) // 36 weeks ≈ 9 months
	s.Interval = simtime.Week
	s.Sample = 10
	s.Seed = 1402
	s.RateScale = 0.45
	s.JPShare = 0.12
	s.Heartbleed = true
	// Longitudinal trend shapes (Figures 11-15) need a deeper malicious
	// population than the two-day snapshots.
	s.Population[Scan] = 48
	s.Population[Spam] = 48
	return s
}

// BLong is B-Root's five-month unsampled dataset (controlled experiments,
// §IV-D).
func BLong() DatasetSpec {
	s := JPDitl()
	s.Name = "B-long"
	s.TeamProb = 0.08
	s.Population = basePopulation()
	s.Authority = "b-root"
	s.Start = simtime.Date(2015, time.January, 1, 0, 0)
	s.Duration = simtime.Days(150)
	s.Interval = simtime.Week
	s.Seed = 1501
	s.RateScale = 0.15
	s.JPShare = 0.12
	return s
}

// BMultiYear is B-Root's 4.16-year dataset behind the long-term accuracy
// study (§V), with daily intervals around the 2014-04-28..30 curation.
func BMultiYear() DatasetSpec {
	s := JPDitl()
	s.Name = "B-multi-year"
	s.TeamProb = 0.08
	s.Population = basePopulation()
	s.Authority = "b-root"
	s.Start = simtime.Date(2011, time.July, 8, 0, 0)
	s.Duration = simtime.Days(1520)
	s.Interval = simtime.Week
	s.Seed = 1107
	s.RateScale = 0.08 // leaner rates keep 4 years tractable
	s.JPShare = 0.12
	s.Heartbleed = true
	return s
}

// Dataset is a built (simulated and collected) dataset: the world, the
// authority's records, interval snapshots, and curated ground truth.
type Dataset struct {
	Spec    DatasetSpec
	World   *world.World
	Records []Record
	// Snapshots are the per-interval feature views; Whole() aggregates
	// the full span.
	Snapshots []*Snapshot
	Extractor *features.Extractor
	Oracle    *groundtruth.Oracle
	// Labels is the expert curation over the whole span.
	Labels *groundtruth.LabeledSet

	whole      *Snapshot
	tracer     *trace.Tracer // non-nil when built with tracing enabled
	alertRules []alert.Rule  // parsed from Spec.Alerts, nil when disabled

	truthOnce sync.Once
	truth     map[Addr]Class
}

// heartbleedBurst models the post-announcement scanning surge: the paper
// measures a ~25% jump in weekly scanner counts lasting about a month.
func heartbleedBurst(scanPop int) world.Burst {
	return world.Burst{
		Class:    Scan,
		Port:     "tcp443",
		Start:    simtime.Date(2014, time.April, 7, 12, 0),
		Duration: simtime.Days(28),
		Extra:    scanPop/3 + 1,
	}
}

// Build simulates the dataset and runs the Figure 2 pipeline over it.
// Large specs (M-sampled, B-multi-year) take tens of seconds; use Scaled
// for tests. With spec.Obs set, the world, hierarchy, resolver caches
// and pipeline stages record into that registry (and later pipeline runs
// on the dataset keep recording); with spec.Trace > 0, lookups and
// records are traced; with spec.Acct set, stages account their resource
// use on the ops channel. A malformed Faults or Alerts spec panics.
func Build(spec DatasetSpec) *Dataset {
	if spec.Scale <= 0 {
		spec.Scale = 1
	}
	cfg := world.DefaultConfig()
	cfg.Seed = spec.Seed
	cfg.Start = spec.Start
	cfg.Duration = spec.Duration
	cfg.RateScale = spec.RateScale
	if cfg.RateScale <= 0 {
		cfg.RateScale = 1
	}
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
		cfg.Teams = spec.TeamProb
		if cfg.Teams < 0 {
			cfg.Teams = 0
		}
	}
	if spec.Darknet {
		cfg.DarknetSlash8 = 150
	}
	plan, err := faults.Parse(spec.Faults)
	if err != nil {
		panic(fmt.Sprintf("backscatter: %v", err))
	}
	cfg.Faults = plan
	var alertRules []alert.Rule
	switch spec.Alerts {
	case "":
	case "default":
		alertRules = alert.DefaultRules()
	default:
		alertRules, err = alert.Parse(spec.Alerts)
		if err != nil {
			panic(fmt.Sprintf("backscatter: %v", err))
		}
	}
	if spec.Heartbleed {
		hb := heartbleedBurst(cfg.ClassPopulation[Scan])
		end := spec.Start.Add(spec.Duration)
		if hb.Start.After(spec.Start) && hb.Start.Before(end) {
			cfg.Bursts = append(cfg.Bursts, hb)
		}
	}

	w := world.New(cfg)
	w.SetMetrics(spec.Obs)
	var tr *trace.Tracer
	if spec.Trace > 0 {
		tr = trace.New(spec.Seed, uint64(spec.Trace))
	}
	w.SetTracer(tr)
	w.Run()

	d := &Dataset{Spec: spec, World: w, tracer: tr, alertRules: alertRules}
	switch spec.Authority {
	case "jp":
		d.Records = w.National["jp"].Records()
	case "b-root":
		d.Records = w.BRoot.Records()
	case "m-root":
		d.Records = w.MRoot.Records()
	default:
		panic(fmt.Sprintf("backscatter: unknown authority %q", spec.Authority))
	}

	d.Extractor = features.NewExtractor(w.Geo, w.QuerierName)
	d.Extractor.Obs = spec.Obs
	d.Extractor.Tracer = tr
	d.Extractor.Acct = spec.Acct
	d.Extractor.Workers = spec.Workers
	d.Extractor.NoReuse = spec.NoReuse
	if spec.MinQueriers > 0 {
		d.Extractor.MinQueriers = spec.MinQueriers
	}
	d.Snapshots = classify.SnapIntervals(d.Records, d.Extractor, spec.Start, spec.Duration, spec.Interval)

	truth := make(map[ipaddr.Addr]activity.Class)
	for a, tr := range w.TruthMap() {
		truth[a] = tr.Class
	}
	d.Oracle = groundtruth.NewOracle(truth, w.Dark, spec.Seed)
	cur := groundtruth.DefaultCuration()
	st := rng.NewSource(spec.Seed).Stream("curation")
	d.Labels = groundtruth.Curate(d.Whole().Ranked(), d.Oracle, cur, st)
	return d
}

// Whole returns the single snapshot aggregating the dataset's full span.
func (d *Dataset) Whole() *Snapshot {
	if d.whole == nil {
		d.whole = classify.Snap(d.Records, d.Extractor, d.Spec.Start, d.Spec.Duration)
	}
	return d.whole
}

// Truth returns the true class of an originator, if it ran a campaign.
func (d *Dataset) Truth(a Addr) (Class, bool) {
	tr, ok := d.World.Truth(a)
	return tr.Class, ok
}

// FullTruth returns an originator's class, scan-port label, and scanner
// team id (0 = none).
func (d *Dataset) FullTruth(a Addr) (cls Class, port string, team int, ok bool) {
	tr, ok := d.World.Truth(a)
	return tr.Class, tr.Port, tr.Team, ok
}

// TruthMap returns all originator classes. The map is built once and
// shared across calls (and across workers) — treat it as read-only.
func (d *Dataset) TruthMap() map[Addr]Class {
	d.truthOnce.Do(func() {
		wt := d.World.TruthMap()
		d.truth = make(map[Addr]Class, len(wt))
		for a, tr := range wt {
			d.truth[a] = tr.Class
		}
	})
	return d.truth
}

// ReverseQueries reports how many reverse queries arrived at the dataset's
// authority before sampling (Table I's reverse-query column).
func (d *Dataset) ReverseQueries() uint64 {
	switch d.Spec.Authority {
	case "jp":
		return d.World.National["jp"].Seen()
	case "b-root":
		return d.World.BRoot.Seen()
	default:
		return d.World.MRoot.Seen()
	}
}

// LogRecord re-exports dnslog parsing for tools.
func LogRecord(line string) (Record, error) { return dnslog.ParseRecord(line) }
