package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"time"

	"dnsbackscatter/internal/obs"
)

// layers are the repository's modules as the traced run names them; the
// world layer includes dnssim, the resolver caches and the sensors, which
// run inside world.Run. "bench" is the benchmark's own code and "idle"
// the open loop's sleeps between due records.
var layers = []string{"bench", "idle", "world", "dnslog", "features", "groundtruth", "ml", "classify", "stream", "alert"}

// layerMetric is one per-layer metric of the traced run.
type layerMetric struct{ name, unit string }

// perLayerMetrics lists every metric a traced run reports, in
// BENCHMARK.json's order. Every workload reports all of them; a layer
// that a workload does not call reads 0.
var perLayerMetrics = func() []layerMetric {
	ms := []layerMetric{
		{"world.run_s", "s"},
		{"world.alloc_mb", "MB"},
		{"world.events", "count"},
		{"dnssim.lookups", "count"},
		{"dnssim.queries", "count"},
		{"dnssim.upstream_per_lookup", "ratio"},
		{"cache.hit_ratio", "ratio"},
		{"sensor.records", "count"},
		{"sensor.kept_ratio", "ratio"},
		{"dnslog.dedup_s", "s"},
		{"dnslog.kept_ratio", "ratio"},
		{"features.extract_s", "s"},
		{"features.extract_alloc_mb", "MB"},
		{"features.records_per_s", "1/s"},
		{"features.analyzable_ratio", "ratio"},
		{"groundtruth.curate_s", "s"},
		{"groundtruth.labels", "count"},
		{"ml.train_s", "s"},
		{"ml.validate_s", "s"},
		{"ml.validate_runs", "count"},
		{"classify.classify_s", "s"},
		{"classify.verdicts", "count"},
		{"stream.compare_s", "s"},
		{"stream.agreement", "ratio"},
		{"stream.ingest_s", "s"},
		{"stream.ingest_calls", "count"},
		{"stream.rescore_s", "s"},
		{"stream.rescores", "count"},
		{"stream.rescore_max_ms", "ms"},
		{"stream.kept_ratio", "ratio"},
		{"stream.tracked_max", "count"},
		{"stream.gen_lateness_ms", "ms"},
		{"alert.eval_s", "s"},
		{"alert.evals", "count"},
		{"alert.transitions", "count"},
	}
	for _, l := range layers {
		ms = append(ms, layerMetric{l + ".self_s", "s"})
		if l != "idle" {
			ms = append(ms, layerMetric{l + ".self_share", "ratio"})
		}
	}
	return append(ms, layerMetric{"trace.overhead_pct", "%"})
}()

// layerAcc accumulates the traced ops' per-layer quantities. Counts and
// bytes are summed over ops and reported per op; span times come from the
// tracer at the end of the run.
type layerAcc struct {
	ops     int
	sum     map[string]float64
	peak    map[string]float64
	samples map[string][]float64
}

func newLayerAcc() *layerAcc {
	return &layerAcc{sum: map[string]float64{}, peak: map[string]float64{}, samples: map[string][]float64{}}
}

func (a *layerAcc) add(key string, v float64) { a.sum[key] += v }

func (a *layerAcc) atLeast(key string, v float64) { a.peak[key] = max(a.peak[key], v) }

func (a *layerAcc) sample(key string, v float64) { a.samples[key] = append(a.samples[key], v) }

// measure runs fn in a span and adds the bytes fn allocated under key.
func (a *layerAcc) measure(t *tracer, name, key string, parent int32, fn func()) {
	b := allocBytes()
	t.call(name, parent, fn)
	a.add(key, float64(allocBytes()-b))
}

func allocBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// registry adds every counter of reg, summed over its label sets, under
// "reg.<name>".
func (a *layerAcc) registry(reg *obs.Registry) {
	for _, line := range bytes.Split(reg.Snapshot(), []byte("\n")) {
		sp := bytes.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := bytes.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(string(line[sp+1:]), 64)
		if err == nil {
			a.add("reg."+string(name), v)
		}
	}
}

// emit sets every per-layer metric on r from the accumulated quantities
// and the run's spans.
func (a *layerAcc) emit(r *run, spans []span) {
	ops := float64(max(a.ops, 1))
	dur := map[string]float64{}
	calls := map[string]float64{}
	longest := map[string]float64{}
	for _, s := range spans {
		d := (s.end - s.start).Seconds()
		dur[s.name] += d
		calls[s.name]++
		longest[s.name] = max(longest[s.name], d)
	}
	per := func(v float64) float64 { return v / ops }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	s := a.sum
	extract := dur["features.snap_intervals"] + dur["features.snap_whole"]
	v := map[string]float64{
		"world.run_s":                per(dur["world.run"]),
		"world.alloc_mb":             per(s["world.alloc_bytes"]) / (1 << 20),
		"world.events":               per(s["reg.world_events_total"]),
		"dnssim.lookups":             per(s["reg.dnssim_resolves_total"]),
		"dnssim.queries":             per(s["reg.dnssim_queries_total"]),
		"dnssim.upstream_per_lookup": ratio(s["reg.dnssim_queries_total"], s["reg.dnssim_resolves_total"]),
		"cache.hit_ratio":            ratio(s["reg.cache_hits_total"], s["reg.cache_hits_total"]+s["reg.cache_misses_total"]),
		"sensor.records":             per(s["sensor.records"]),
		"sensor.kept_ratio":          ratio(s["sensor.records"], s["sensor.seen"]),
		"dnslog.dedup_s":             per(dur["dnslog.dedup"]),
		"dnslog.kept_ratio":          ratio(s["dnslog.kept"], s["dnslog.records"]),
		"features.extract_s":         per(extract),
		"features.extract_alloc_mb":  per(s["features.alloc_bytes"]) / (1 << 20),
		"features.records_per_s":     ratio(s["reg.pipeline_records_total"], extract),
		"features.analyzable_ratio":  ratio(s["reg.pipeline_analyzable_total"], s["reg.pipeline_originators_total"]),
		"groundtruth.curate_s":       per(dur["groundtruth.curate"]),
		"groundtruth.labels":         per(s["groundtruth.labels"]),
		"ml.train_s":                 per(dur["ml.train"]),
		"ml.validate_s":              per(dur["ml.validate"]),
		"ml.validate_runs":           per(s["ml.validate_runs"]),
		"classify.classify_s":        per(dur["classify.classify_all"]),
		"classify.verdicts":          per(s["classify.verdicts"]),
		"stream.compare_s":           per(dur["stream.compare"]),
		"stream.agreement":           per(s["stream.agreement"]),
		"stream.ingest_s":            per(dur["stream.ingest"]),
		"stream.ingest_calls":        per(calls["stream.ingest"]),
		"stream.rescore_s":           per(dur["stream.rescore"]),
		"stream.rescores":            per(calls["stream.rescore"]),
		"stream.rescore_max_ms":      1000 * longest["stream.rescore"],
		"stream.kept_ratio":          ratio(s["stream.kept"], s["stream.records"]),
		"stream.tracked_max":         a.peak["stream.tracked"],
		"alert.eval_s":               per(dur["alert.eval"]),
		"alert.evals":                per(calls["alert.eval"]),
		"alert.transitions":          per(s["alert.transitions"]),
	}
	if late := sortedCopy(a.samples["stream.gen_lateness_ms"]); len(late) > 0 {
		v["stream.gen_lateness_ms"] = percentile(late, 99)
	}
	// Shares are of the busy self time: sleeping is not work.
	self := layerSelf(spans)
	var total time.Duration
	for l, d := range self {
		if l != "idle" {
			total += d
		}
	}
	for _, l := range layers {
		v[l+".self_s"] = per(self[l].Seconds())
		if l != "idle" {
			v[l+".self_share"] = ratio(self[l].Seconds(), total.Seconds())
		}
	}
	for _, m := range perLayerMetrics {
		if m.name != "trace.overhead_pct" {
			r.set(m.name, v[m.name], m.unit)
		}
	}
	printShares(self, total)
}

// printShares prints each layer's share of the traced self time.
func printShares(self map[string]time.Duration, total time.Duration) {
	ls := append([]string(nil), layers...)
	sort.Slice(ls, func(i, j int) bool { return self[ls[i]] > self[ls[j]] })
	for _, l := range ls {
		if l == "idle" {
			fmt.Printf("self time %-12s %10.4fs (sleeping, not in the shares)\n", l, self[l].Seconds())
		} else if total > 0 {
			fmt.Printf("self time %-12s %10.4fs %6.1f%%\n", l, self[l].Seconds(), 100*float64(self[l])/float64(total))
		}
	}
}
