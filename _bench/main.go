// Command perfbench is the repository benchmark. It runs one named
// workload for a fixed time, checks the program's outputs, and prints the
// workload's metrics, ending with one JSON line:
//
//	go build -o perfbench . && ./perfbench -workload table1-build -seed 1 -seconds 15 -trace 0
//
// With -trace 0 it reports the end-to-end metrics, measured with tracing
// off. With -trace 1 it reports the per-layer metrics instead: every call
// into a layer runs inside a span recorded by this program, each layer's
// self time is derived from the spans, and the spans are written to
// -spans at exit. README.md records why each workload exists and which
// end-to-end metric each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// workers is DatasetSpec.Workers for every workload: the benchmark is
// sized for a two-core machine.
const workers = 2

// A workload sets up at least setupReps times and until setupMin has
// passed, whichever takes longer; setup_s is the median. A set-up of a
// few milliseconds is thus repeated often enough for its median to hold
// still from run to run.
const (
	setupReps = 3
	setupMin  = time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is one benchmark invocation: its inputs, its tracer (nil when
// untraced), and what it has measured so far.
type run struct {
	seed    uint64
	seconds time.Duration
	tr      *tracer
	res     result
}

func (r *run) set(name string, v float64, unit string) {
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
}

// op counts one attempted operation, and a failed one when err is
// non-nil. Failures are printed so a failing run explains itself.
func (r *run) op(err error) {
	r.res.Attempted++
	if err != nil {
		r.res.Failed++
		fmt.Printf("FAILED op %d: %v\n", r.res.Attempted, err)
	}
}

// setup sets up n inputs, the j-th from inputSeed(r.seed, j), and
// returns them. It times every set-up, repeating the inputs in turn until
// at least setupReps set-ups have run and setupMin has passed, and
// reports the median as setup_s on an untraced run. A repeated input
// replaces the earlier one, which is dropped first, so at most n inputs
// are held at once.
func setup[T any](r *run, n int, fn func(seed uint64) (T, error)) ([]T, error) {
	ins := make([]T, n)
	var times []float64
	start := time.Now()
	for i := 0; i < max(n, setupReps) || time.Since(start) < setupMin; i++ {
		j := i % n
		var zero T
		ins[j] = zero
		t0 := time.Now()
		in, err := fn(inputSeed(r.seed, j))
		if err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		ins[j] = in
	}
	if r.tr == nil {
		r.set("setup_s", median(times), "s")
	}
	return ins, nil
}

// inputSeed is the seed of a run's j-th input. A run makes several
// inputs from its seed and its ops cycle through them: the simulator
// draws campaign rates from Pareto tails, so one seed's dataset can hold
// twice the records of another's, and a median over ops spread across
// several inputs holds still from seed to seed where one input's cost
// would not.
func inputSeed(seed uint64, j int) uint64 { return mix(seed, uint64(j)) }

// loop runs op until the run's measuring time is spent, and at least
// minOps times. Each op starts from a collected heap, so no op pays for
// the garbage of the one before. The freed memory stays with the process:
// returning it to the system would make every op fault its heap back in,
// a cost that swung one op's time by a third on a virtual machine.
func (r *run) loop(minOps int, op func(i int)) {
	start := time.Now()
	for i := 0; i < minOps || time.Since(start) < r.seconds; i++ {
		runtime.GC()
		op(i)
	}
}

var workloads = map[string]func(*run) error{
	"table1-build": table1Build,
	"repro-replay": reproReplay,
	"stream-live":  streamLive,
}

// endToEnd lists the end-to-end metrics every workload reports with
// tracing off, each measuring the workload's own unit of work (README.md
// says what that is per workload). Runs also print peak memory, and
// stream-live its p99 and sustained rate, without reporting them: their
// spread from seed to seed exceeds any bound BENCHMARK.json may set.
var endToEnd = []layerMetric{
	{"setup_s", "s"},
	{"latency_ms", "ms"},
	{"throughput_per_s", "1/s"},
}

func main() {
	name := flag.String("workload", "", "workload to run: table1-build, repro-replay or stream-live")
	seed := flag.Uint64("seed", 1, "input seed, mixed into every dataset spec's seed")
	seconds := flag.Float64("seconds", 20, "how long to measure, in seconds")
	traced := flag.Int("trace", 0, "1 runs traced and reports per-layer metrics; 0 reports end-to-end metrics")
	spans := flag.String("spans", filepath.Join(".bench_build", "perfbench"), "directory for the span file of a traced run")
	flag.Parse()

	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload in %v, -seconds > 0 and -trace 0|1\n", names())
		os.Exit(2)
	}
	r := &run{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		res:     result{Metrics: make(map[string]metric)},
	}
	if *traced == 1 {
		r.tr = newTracer()
	}
	fmt.Printf("perfbench: workload %s, seed %d, %gs, trace %d, %d workers\n", *name, *seed, *seconds, *traced, workers)
	if err := wl(r); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if r.tr == nil {
		var ru syscall.Rusage
		if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
			fmt.Printf("peak_rss_mb %.1f MB (printed, not gated)\n", float64(ru.Maxrss)/1024) // Maxrss is in KiB on Linux
		}
	} else {
		path := filepath.Join(*spans, fmt.Sprintf("spans-%s-seed%d.tsv", *name, *seed))
		if err := writeSpans(path, r.tr.snapshot()); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: write spans:", err)
			os.Exit(1)
		}
		fmt.Printf("spans: %s\n", path)
	}
	want := endToEnd
	if r.tr != nil {
		want = perLayerMetrics
	}
	if err := checkMetrics(r.res.Metrics, want); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r.res.Correct = r.res.Failed == 0

	keys := make([]string, 0, len(r.res.Metrics))
	for k := range r.res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m := r.res.Metrics[k]
		fmt.Printf("%-32s %14.6g %s\n", k, m.Value, m.Unit)
	}
	fmt.Printf("ops: %d attempted, %d failed\n", r.res.Attempted, r.res.Failed)
	line, err := json.Marshal(r.res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// checkMetrics verifies that got holds exactly the wanted metrics, each
// with its declared unit.
func checkMetrics(got map[string]metric, want []layerMetric) error {
	if len(got) != len(want) {
		return fmt.Errorf("reported %d metrics, want %d", len(got), len(want))
	}
	for _, m := range want {
		if g, ok := got[m.name]; !ok || g.Unit != m.unit {
			return fmt.Errorf("metric %s: got %+v, want unit %s", m.name, g, m.unit)
		}
	}
	return nil
}

func names() []string {
	var out []string
	for k := range workloads {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
