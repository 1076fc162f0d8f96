package backscatter

import (
	"dnsbackscatter/internal/obs"
	"dnsbackscatter/internal/simtime"
	"dnsbackscatter/internal/trace"
)

// Observability re-exports, so tools and library users reach the obs layer
// without importing internal packages. Set DatasetSpec.Obs to attach a
// registry to a simulated dataset.
type (
	// Registry collects labeled counters, gauges, histograms, and
	// pipeline-stage spans; snapshots are byte-deterministic.
	Registry = obs.Registry
	// Label is one name=value metric dimension.
	Label = obs.Label
)

// NewRegistry returns an empty metric registry with no span clock (install
// one with SetClock; TickClock keeps runs reproducible).
func NewRegistry() *Registry { return obs.NewRegistry() }

// TickClock returns a deterministic span clock advancing by step per
// reading, so stage "durations" count clock readings — identical runs
// report identical numbers.
func TickClock(step Duration) obs.Clock { return obs.TickClock(step) }

// WallClock returns a span clock backed by the wall clock in whole seconds
// (simtime.Wall) — for operational use in mains, where determinism rules
// do not apply.
func WallClock() obs.Clock { return simtime.Wall }

// Tracing re-exports, mirroring the obs aliases above. Set
// DatasetSpec.Trace to attach a tracer to a simulated dataset.
type (
	// Tracer records deterministic end-to-end lookup traces; every
	// method on a nil Tracer is a no-op, so tracing costs one nil check
	// when disabled.
	Tracer = trace.Tracer
	// TraceID is a 64-bit trace identifier, a pure hash of
	// (seed, querier, qname, time).
	TraceID = trace.ID
	// Window buckets *At metric writes by simulated-time interval for
	// windowed time-series snapshots (attach with Registry.SetWindow).
	Window = obs.Window
	// Timeseries is the parsed JSON document a Window snapshot encodes.
	Timeseries = obs.Timeseries
)

// NewTracer returns a tracer keeping the deterministic 1/sample of
// lookups (sample <= 1 traces everything); seed must match the world's.
func NewTracer(seed, sample uint64) *Tracer { return trace.New(seed, sample) }

// NewWindow returns a time-series window bucketing metric writes every
// width of simulated time.
func NewWindow(width Duration) *Window { return obs.NewWindow(width) }

// Tracer returns the tracer this dataset's lookups recorded into, or nil
// when the dataset was built without tracing.
func (d *Dataset) Tracer() *trace.Tracer { return d.tracer }
