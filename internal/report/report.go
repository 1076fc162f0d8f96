// Package report regenerates every table and figure of the paper's
// evaluation from simulated datasets. Each experiment function returns the
// paper-style rows/series as formatted text; cmd/bsrepro prints them and
// the repository's benchmark harness drives them as named benchmarks.
//
// A Store caches built datasets so one bsrepro or benchmark run builds
// each dataset once. Store.Scale shrinks populations for quick runs.
package report

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	backscatter "dnsbackscatter"

	"dnsbackscatter/internal/activity"
)

// Store lazily builds and caches datasets.
type Store struct {
	// Scale multiplies dataset populations (1 = the specs' defaults).
	Scale float64
	// Heavy enables the most expensive trial points (the 10% and 100%
	// controlled scans of Figure 4).
	Heavy bool
	// Obs, when non-nil, attaches this registry to every dataset the
	// store builds (DatasetSpec.Obs), so one bsrepro run accumulates
	// world, cache, and pipeline-stage metrics across experiments. Set
	// it before the first Get.
	Obs *backscatter.Registry
	// Workers is threaded into every built spec (DatasetSpec.Workers):
	// <= 0 uses GOMAXPROCS(0), 1 runs sequentially. Results are
	// byte-identical either way. Set it before the first Get.
	Workers int
	// Faults is a "profile@seed" fault-injection spec threaded into every
	// built spec (DatasetSpec.Faults); "" disables injection. Set it
	// before the first Get.
	Faults string
	// Trace is the tracing sample divisor threaded into every built spec
	// (DatasetSpec.Trace): 0 disables tracing, 1 traces every lookup,
	// N keeps the deterministic 1/N. Set it before the first Get.
	Trace int
	// Acct, when non-nil, attaches this resource accountant to every
	// dataset the store builds (DatasetSpec.Acct), so one bsrepro run
	// accumulates per-stage resource accounting across experiments on
	// the ops channel. Set it before the first Get.
	Acct *backscatter.Accountant

	mu sync.Mutex
	ds map[string]*backscatter.Dataset // guarded by mu
}

// NewStore returns a store at the given scale.
func NewStore(scale float64) *Store {
	if scale <= 0 {
		scale = 1
	}
	return &Store{Scale: scale, ds: make(map[string]*backscatter.Dataset)}
}

// Get builds (once) and returns the dataset for a spec.
func (s *Store) Get(spec backscatter.DatasetSpec) *backscatter.Dataset {
	s.mu.Lock()
	defer s.mu.Unlock()
	if d, ok := s.ds[spec.Name]; ok {
		return d
	}
	spec = spec.Scaled(s.Scale).WithParallelism(s.Workers).WithFaults(s.Faults).WithTracing(s.Trace)
	spec.Obs, spec.Acct = s.Obs, s.Acct
	d := backscatter.Build(spec)
	s.ds[spec.Name] = d
	return d
}

// Datasets returns every dataset the store has built so far, sorted by
// name, so trace and time-series dumps iterate deterministically.
func (s *Store) Datasets() []*backscatter.Dataset {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.ds))
	for n := range s.ds {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*backscatter.Dataset, 0, len(names))
	for _, n := range names {
		out = append(out, s.ds[n])
	}
	return out
}

// Experiment pairs a name with its generator, for bsrepro's registry.
type Experiment struct {
	Name string
	Desc string
	Run  func(*Store) string
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"table1", "Dataset catalog (Table I)", Table1},
		{"figure3", "Static features, case studies (Figure 3)", Figure3},
		{"table2", "Dynamic features, case studies (Table II)", Table2},
		{"table3", "Classification validation (Table III)", Table3},
		{"table4", "Top discriminative features (Table IV)", Table4},
		{"figure4", "Controlled-scan attenuation (Figure 4)", Figure4},
		{"figure5", "Benign label stability (Figure 5)", Figure5},
		{"figure6", "Malicious label churn (Figure 6)", Figure6},
		{"figure7", "Training strategies over time (Figure 7)", Figure7},
		{"figure8", "Classification consistency CDF (Figure 8)", Figure8},
		{"figure9", "Footprint-size distribution (Figure 9)", Figure9},
		{"figure10", "Top-N class fractions (Figure 10)", Figure10},
		{"table5", "Originators per class (Table V)", Table5},
		{"table6", "Labeled ground truth (Table VI)", Table6},
		{"figure11", "Originators over time, Heartbleed (Figure 11)", Figure11},
		{"figure12", "Scanner footprint over time (Figure 12)", Figure12},
		{"figure13", "Example scanners (Figure 13)", Figure13},
		{"figure14", "Scanning /24 blocks (Figure 14)", Figure14},
		{"figure15", "Week-by-week scanner churn (Figure 15)", Figure15},
		{"table7", "Top originators at JP (Table VII)", Table7},
		{"table8", "Top originators at M-Root (Table VIII)", Table8},
		{"confusion", "Per-class accuracy and confusion (§IV-C)", Confusion},
		{"figure16", "Diurnal activity, case studies (Figure 16)", Figure16},
		{"teams", "Scanner teams by /24 (§VI-B)", Teams},
		{"ablation-dedup", "Ablation: dedup window", AblationDedup},
		{"ablation-threshold", "Ablation: querier threshold", AblationThreshold},
		{"ablation-features", "Ablation: feature sets", AblationFeatures},
		{"ablation-forest", "Ablation: forest size", AblationForest},
		{"ablation-classes", "Ablation: class merging", AblationClasses},
		{"extension-qmin", "Extension: QNAME minimization vs the sensor (§VII)", ExtensionQMin},
		{"extension-fusion", "Extension: darknet/blacklist evidence fusion (§III-F)", ExtensionFusion},
	}
}

// Find returns the experiment with the given name.
func Find(name string) (Experiment, bool) {
	for _, e := range All() {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// tw is a minimal column formatter for paper-style tables.
type tw struct {
	b    strings.Builder
	rows [][]string
}

func (t *tw) row(cells ...string) { t.rows = append(t.rows, cells) }

func (t *tw) rowf(format string, args ...any) {
	t.rows = append(t.rows, strings.Split(fmt.Sprintf(format, args...), "\t"))
}

func (t *tw) String() string {
	widths := map[int]int{}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i > 0 {
				t.b.WriteString("  ")
			}
			t.b.WriteString(c)
			if i < len(r)-1 {
				t.b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		t.b.WriteByte('\n')
	}
	return t.b.String()
}

// header formats an experiment banner.
func header(title string) string {
	return title + "\n" + strings.Repeat("=", len(title)) + "\n"
}

// classOrder returns all classes in the paper's column order.
func classOrder() []backscatter.Class {
	out := make([]backscatter.Class, activity.NumClasses)
	for i := range out {
		out[i] = activity.Class(i)
	}
	return out
}

// sparkline renders counts as a compact trend strip.
func sparkline(xs []int) string {
	if len(xs) == 0 {
		return ""
	}
	max := 0
	for _, v := range xs {
		if v > max {
			max = v
		}
	}
	if max == 0 {
		return strings.Repeat("_", len(xs))
	}
	levels := []byte("_.:-=+*#%@")
	var b strings.Builder
	for _, v := range xs {
		i := v * (len(levels) - 1) / max
		b.WriteByte(levels[i])
	}
	return b.String()
}
