package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it: a tail value resting on fewer samples is noise.
const minBeyond = 10

// tailPercentiles are the candidates the tail rule picks from, highest
// first.
var tailPercentiles = []float64{99.99, 99.9, 99, 90, 50}

// percentile returns the nearest-rank p-th percentile of sorted xs
// (0 < p <= 100): the smallest sample with at least p% of the samples at
// or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile of n samples.
// The tolerance keeps float rounding (99.9/100*10000 = 9990.000000000002)
// from pushing an exact rank one higher.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return min(max(r, 1), n)
}

// tail applies the reporting rule for timings: the highest percentile in
// tailPercentiles that has at least minBeyond samples above its rank. ok
// is false when even the median has fewer than minBeyond samples above it.
func tail(sorted []float64) (p, value float64, ok bool) {
	for _, p := range tailPercentiles {
		if len(sorted)-rank(len(sorted), p) >= minBeyond {
			return p, percentile(sorted, p), true
		}
	}
	return 0, 0, false
}

// median returns the median of xs (the mean of the middle two for an even
// count) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// clock is the open loop's view of time, so tests can drive the pacing
// logic with a simulated clock.
type clock interface {
	Now() time.Duration
	Sleep(d time.Duration)
}

// wallClock reads the monotonic clock relative to its origin.
type wallClock struct{ origin time.Time }

func (c wallClock) Now() time.Duration    { return time.Since(c.origin) }
func (c wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// openLoop offers n requests at a fixed rate per second, request i being
// due at start + i/rate. Whenever the next request is not yet due the
// generator sleeps until it is; it never spins. serve handles one request
// synchronously. Each latency runs from the request's due time to the
// end of its serve call, so a stall also counts against every request
// that fell due while it lasted. lateness holds, for every sleep, how far
// past the due time the generator woke: the generator's own error.
func openLoop(n int, rate float64, c clock, serve func(i int)) (lat, lateness []time.Duration) {
	interval := float64(time.Second) / rate
	due := func(start time.Duration, i int) time.Duration {
		return start + time.Duration(float64(i)*interval)
	}
	lat = make([]time.Duration, n)
	start := c.Now()
	for i := 0; i < n; {
		now := c.Now()
		if d := due(start, i); now < d {
			c.Sleep(d - now)
			now = c.Now()
			lateness = append(lateness, now-d)
		}
		for ; i < n && due(start, i) <= now; i++ {
			serve(i)
			now = c.Now()
			lat[i] = now - due(start, i)
		}
	}
	return lat, lateness
}

// backlogGrows reports whether latency kept rising through a replay: the
// median latency of the last quarter of requests exceeds that of the
// first quarter by more than half the latency limit. Periodic stalls
// raise both quarters alike; only a queue that never drains separates
// them.
func backlogGrows(lat []time.Duration, limit time.Duration) bool {
	q := len(lat) / 4
	if q == 0 {
		return false
	}
	first, last := make([]float64, q), make([]float64, q)
	for i := 0; i < q; i++ {
		first[i] = float64(lat[i])
		last[i] = float64(lat[len(lat)-q+i])
	}
	return median(last)-median(first) > float64(limit)/2
}

// ladderRate is rung k of the fixed geometric rate ladder used to find
// the highest sustained rate.
func ladderRate(k int) float64 { return ladderBase * math.Pow(ladderStep, float64(k)) }

// ladderRung returns the highest rung whose rate does not exceed r,
// clamped to rung 0.
func ladderRung(r float64) int {
	if r <= ladderBase {
		return 0
	}
	k := int(math.Floor(math.Log(r/ladderBase) / math.Log(ladderStep)))
	for k > 0 && ladderRate(k) > r {
		k--
	}
	for ladderRate(k+1) <= r {
		k++
	}
	return k
}

// climb searches the ladder from rung start for the highest rung that
// passes: it steps up while rungs pass and down while they fail, and
// returns the highest passing rung, or -1 when every rung down to 0
// fails. Each probe costs a full replay, so the search starts near an
// estimate of the capacity. maxProbes bounds the search; a search cut
// short returns the best passing rung seen so far.
func climb(start, maxProbes int, pass func(k int) bool) (best, probes int) {
	best = -1
	k := start
	lowestFail := math.MaxInt
	for probes < maxProbes && k >= 0 && k < lowestFail {
		probes++
		if pass(k) {
			best = max(best, k)
			k++
		} else {
			lowestFail = k
			if best >= 0 {
				break
			}
			k--
		}
	}
	return best, probes
}
