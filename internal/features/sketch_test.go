package features

import (
	"testing"

	"dnsbackscatter/internal/hll"
	"dnsbackscatter/internal/ipaddr"
	"dnsbackscatter/internal/rng"
)

// TestKMVIsUniformOverDistinct pins the sampling contract SketchStats.Sample
// relies on: the sample is uniform over distinct queriers, so static
// fractions computed from it do not over-represent hot queriers. The
// sample is built the way the stream engine builds it (bottom-k keyed by
// hll.Hash64 of the querier); one querier fed a thousand times among a
// thousand singletons must occupy at most one sample slot.
func TestKMVIsUniformOverDistinct(t *testing.T) {
	sample := hll.NewBottomK[ipaddr.Addr](256)
	add := func(q ipaddr.Addr) { sample.Add(hll.Hash64(uint64(q)), q) }
	hot := ipaddr.MustParse("10.0.0.1")
	for k := 0; k < 1000; k++ {
		add(hot)
	}
	st := rng.New(9)
	for q := 0; q < 1000; q++ {
		add(ipaddr.Addr(st.Uint64()))
	}
	stats := SketchStats{Sample: sample.Values()}
	if len(stats.Sample) != 256 {
		t.Fatalf("sample holds %d queriers, want 256", len(stats.Sample))
	}
	hotCount := 0
	for _, a := range stats.Sample {
		if a == hot {
			hotCount++
		}
	}
	if hotCount > 1 {
		t.Errorf("hot querier occupies %d sample slots", hotCount)
	}
}
