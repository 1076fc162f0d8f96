// Package determinism is a bslint fixture: every construct the
// determinism check must flag, plus the patterns it must leave alone.
package determinism

import (
	"math/rand"
	"sort"
	"time"
)

func wallClock() int64 {
	t := time.Now() // want "wall-clock read time.Now"
	return t.Unix()
}

func elapsed(start time.Time) time.Duration {
	return time.Since(start) // want "wall-clock read time.Since"
}

func sleepy() {
	time.Sleep(time.Second) // want "wall-clock wait time.Sleep"
}

func timerWaits() {
	<-time.After(time.Second) // want "wall-clock wait time.After"
	<-time.Tick(time.Second)  // want "wall-clock wait time.Tick"
	_ = time.NewTimer(1)      // want "wall-clock wait time.NewTimer"
	_ = time.NewTicker(1)     // want "wall-clock wait time.NewTicker"
}

func durationMathOK(d time.Duration) time.Duration {
	return d * 2 // time.Duration values themselves are fine
}

func globalRand() int {
	return rand.Intn(10) // want "global math/rand.Intn"
}

func globalShuffle(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) // want "global math/rand.Shuffle"
}

func seededRandOK() int {
	r := rand.New(rand.NewSource(42)) // explicitly seeded: allowed
	return r.Intn(10)
}

func suppressed() int64 {
	return time.Now().Unix() //nolint:determinism
}

func mapOrderLeak(m map[string]int) []string {
	var keys []string
	for k := range m { // want "map order makes output nondeterministic"
		keys = append(keys, k)
	}
	return keys
}

func mapOrderSorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys) // sorted before return: allowed
	return keys
}

func mapOrderNotReturned(m map[string]int) int {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	return len(keys) // only the length escapes: order is irrelevant
}

func mapOrderNamedResult(m map[string]int) (keys []string) {
	for k := range m { // want "map order makes output nondeterministic"
		keys = append(keys, k)
	}
	return
}

// mapFirstExpired is the eviction shape the first-match check exists for:
// which expired entry it returns depends on map iteration order.
func mapFirstExpired(m map[uint64]int64, now int64) uint64 {
	var victim uint64
	for k, exp := range m { // want "map order makes the selected entry nondeterministic"
		if exp <= now {
			victim = k
			break
		}
	}
	return victim
}

type pick struct{ key string }

func mapFirstIntoField(m map[string]int, p *pick) bool {
	for k, v := range m { // want "range over map saves p from the entry it stops at"
		if v > 0 {
			p.key = k
			return true
		}
	}
	return false
}

func mapLabeledExit(ms []map[string]int) string {
	var got string
outer:
	for _, m := range ms {
		for k := range m { // want "map order makes the selected entry nondeterministic"
			got = k
			continue outer
		}
	}
	return got
}

func mapFullScanOK(m map[string]int) int {
	best := 0
	for _, v := range m { // every entry is seen: the maximum is order-independent
		if v > best {
			best = v
		}
	}
	return best
}

func mapExistsOK(m map[string]int) bool {
	found := false
	for _, v := range m { // only whether a match exists escapes
		if v < 0 {
			found = true
			break
		}
	}
	return found
}

func mapInnerBreakOK(m map[string][]int) int {
	total := 0
	for _, vs := range m { // the break ends the inner loop only
		for _, v := range vs {
			if v < 0 {
				break
			}
			total += v
		}
	}
	return total
}

func mapClosureReturnOK(m map[string]int) []func() string {
	var fs []func() string
	for k := range m { // the return belongs to the closure
		fs = append(fs, func() string { return k })
	}
	sort.Slice(fs, func(i, j int) bool { return fs[i]() < fs[j]() })
	return fs
}

func mapFirstSuppressed(m map[string]int) string {
	var any string
	for k := range m { //nolint:determinism — fixture: the caller accepts any key
		any = k
		break
	}
	return any
}
