package features

import (
	"cmp"
	"slices"

	"dnsbackscatter/internal/geo"
	"dnsbackscatter/internal/ipaddr"
	"dnsbackscatter/internal/qname"
	"dnsbackscatter/internal/simtime"
)

// SketchStats is the sketch-derived summary of one originator over an
// observation interval: the HLL footprint estimate, the exact
// deduplicated query count, the distinct 10-minute persistence buckets,
// and the bottom-k uniform sample of distinct queriers. It is the
// hand-off type between the sketch holder (the sharded stream engine,
// internal/stream) and the vector computation below, which lives here
// beside the batch extractor whose feature definitions it mirrors.
type SketchStats struct {
	Originator ipaddr.Addr
	Estimate   int // HLL unique-querier estimate
	Queries    int // deduplicated query count
	Buckets    int // distinct 10-minute buckets observed
	Sample     []ipaddr.Addr
}

// SketchNorms holds the interval-level normalizers the dynamic features
// divide by, estimated from the union of per-originator samples with the
// querier total rescaled by HLL mass (samples undercount global
// uniques).
type SketchNorms struct {
	TotalAS       int
	TotalCountry  int
	TotalQueriers int
	TotalBuckets  int
}

// NormsFromStats computes interval normalizers from every originator's
// sketch stats (analyzable or not — the paper's normalizers count all
// observed queriers). Set sizes and integer-valued sums are
// order-insensitive, so the result is identical however stats is
// ordered.
func NormsFromStats(g *geo.Registry, stats []SketchStats, dur simtime.Duration) SketchNorms {
	norms := SketchNorms{TotalBuckets: int(dur / (10 * simtime.Minute))}
	if norms.TotalBuckets < 1 {
		norms.TotalBuckets = 1
	}
	allAS := make(map[int]struct{})
	allCountry := make(map[string]struct{})
	allQueriers := make(map[ipaddr.Addr]struct{})
	var hllMass, sampleMass float64
	for _, st := range stats {
		hllMass += float64(st.Estimate)
		sampleMass += float64(len(st.Sample))
		for _, q := range st.Sample {
			if _, seen := allQueriers[q]; seen {
				continue
			}
			allQueriers[q] = struct{}{}
			allAS[g.ASN(q)] = struct{}{}
			allCountry[g.Country(q)] = struct{}{}
		}
	}
	norms.TotalAS = len(allAS)
	norms.TotalCountry = len(allCountry)
	norms.TotalQueriers = len(allQueriers)
	if sampleMass > 0 {
		norms.TotalQueriers = int(float64(norms.TotalQueriers) * hllMass / sampleMass)
	}
	return norms
}

// SketchVector computes one originator's feature vector from its sketch
// stats: static fractions, entropies, and dispersion come from the
// bottom-k sample (scaled to the footprint estimate where the feature
// is a count), Queriers carries the HLL estimate. Returns nil when the
// sample is empty. The computation is a pure function of (stats, norms):
// every accumulation is integer or order-normalized (normEntropy sorts),
// so byte-identical inputs give byte-identical vectors.
func SketchVector(g *geo.Registry, nameOf NameFunc, st SketchStats, norms SketchNorms) *Vector {
	n := len(st.Sample)
	if n == 0 {
		return nil
	}
	est := st.Estimate
	v := &Vector{Originator: st.Originator, Queriers: est, Queries: st.Queries}

	counts24 := make(map[uint32]int)
	counts8 := make(map[byte]int)
	ases := make(map[int]struct{})
	countries := make(map[string]struct{})
	for _, q := range st.Sample {
		name, unreach := nameOf(q)
		cat := qname.Classify(name)
		if unreach {
			cat = qname.Unreach
		}
		v.X[int(cat)]++
		counts24[q.Slash24()]++
		counts8[q.Slash8()]++
		ases[g.ASN(q)] = struct{}{}
		countries[g.Country(q)] = struct{}{}
	}
	for i := 0; i < NumStatic; i++ {
		v.X[i] /= float64(n)
	}
	d := v.X[NumStatic:]
	d[DynQueriesPerQuerier] = float64(st.Queries) / float64(est)
	d[DynPersistence] = float64(st.Buckets) / float64(norms.TotalBuckets)
	d[DynLocalEntropy] = normEntropy24(counts24, n)
	d[DynGlobalEntropy] = normEntropy8(counts8, n)
	// Dispersion scales from the sample to the full footprint.
	scale := float64(est) / float64(n)
	d[DynUniqueASes] = ratio(int(float64(len(ases))*scale+0.5), norms.TotalAS)
	if d[DynUniqueASes] > 1 {
		d[DynUniqueASes] = 1
	}
	d[DynUniqueCountries] = ratio(len(countries), norms.TotalCountry)
	if len(countries) > 0 && norms.TotalQueriers > 0 {
		d[DynQueriersPerCountry] = float64(est) / float64(len(countries)) / float64(norms.TotalQueriers)
	}
	if len(ases) > 0 && norms.TotalQueriers > 0 {
		estAS := float64(len(ases)) * scale
		d[DynQueriersPerAS] = float64(est) / estAS / float64(norms.TotalQueriers)
	}
	return v
}

// SortVectors orders vectors in the pipeline's canonical emission order:
// footprint descending, originator address ascending — the order every
// extractor and snapshot emits, so downstream artifacts are
// byte-deterministic.
func SortVectors(vs []*Vector) {
	slices.SortFunc(vs, func(a, b *Vector) int {
		if a.Queriers != b.Queriers {
			return b.Queriers - a.Queriers
		}
		return cmp.Compare(a.Originator, b.Originator)
	})
}
