package cache

import (
	"fmt"
	"testing"

	"dnsbackscatter/internal/obs"
	"dnsbackscatter/internal/rng"
	"dnsbackscatter/internal/simtime"
)

func TestPutGet(t *testing.T) {
	c := New(0)
	c.Put(1001, "spam.bad.jp", 3600, 100)
	e, ok := c.Get(1001, 200)
	if !ok || e.Value != "spam.bad.jp" || e.Negative {
		t.Errorf("got %+v, %v", e, ok)
	}
}

func TestExpiry(t *testing.T) {
	c := New(0)
	c.Put(7, "v", 60, 100)
	if _, ok := c.Get(7, 159); !ok {
		t.Error("entry expired early")
	}
	if _, ok := c.Get(7, 160); ok {
		t.Error("entry alive at exact expiry instant")
	}
	// The expired entry must have been swept.
	if c.Len() != 0 {
		t.Errorf("Len = %d after expiry sweep", c.Len())
	}
}

func TestNegativeCaching(t *testing.T) {
	c := New(0)
	c.PutNegative(42, 300, 0)
	e, ok := c.Get(42, 299)
	if !ok || !e.Negative {
		t.Errorf("negative entry: %+v, %v", e, ok)
	}
	if _, ok := c.Get(42, 300); ok {
		t.Error("negative entry outlived TTL")
	}
}

func TestZeroTTLDisablesCaching(t *testing.T) {
	c := New(0)
	c.Put(7, "v", 0, 100)
	if _, ok := c.Get(7, 100); ok {
		t.Error("zero TTL entry stored")
	}
	// Zero-TTL put also clears a previous entry (fresh answer supersedes).
	c.Put(7, "v", 100, 100)
	c.Put(7, "v2", 0, 110)
	if _, ok := c.Get(7, 111); ok {
		t.Error("zero TTL put did not clear prior entry")
	}
	c.PutNegative(8, 0, 100)
	if _, ok := c.Get(8, 100); ok {
		t.Error("zero TTL negative entry stored")
	}
}

func TestOverwrite(t *testing.T) {
	c := New(0)
	c.Put(7, "old", 100, 0)
	c.Put(7, "new", 100, 50)
	e, _ := c.Get(7, 100)
	if e.Value != "new" {
		t.Errorf("value = %q", e.Value)
	}
	// The first Put expired at 100; the overwrite must carry it to 150.
	if e, ok := c.Get(7, 149); !ok || e.Expires != 150 {
		t.Errorf("overwrite did not refresh expiry: %+v, %v", e, ok)
	}
	if _, ok := c.Get(7, 150); ok {
		t.Error("overwritten entry outlived its new expiry")
	}
}

func TestCapacityBound(t *testing.T) {
	c := New(10)
	for i := 0; i < 100; i++ {
		c.Put(uint64(i), "v", 1000, 0)
	}
	if c.Len() > 10 {
		t.Errorf("Len = %d exceeds capacity 10", c.Len())
	}
}

func TestEvictionPrefersExpired(t *testing.T) {
	c := New(4)
	c.Put(101, "v", 1000, 0)
	c.Put(102, "v", 1000, 0)
	c.Put(201, "v", 10, 0)
	c.Put(202, "v", 10, 0)
	// At time 500 the dead entries are expired; inserting two new keys
	// should evict them, keeping both live entries.
	c.Put(301, "v", 1000, 500)
	c.Put(302, "v", 1000, 500)
	for _, k := range []uint64{101, 102, 301, 302} {
		if _, ok := c.Get(k, 500); !ok {
			t.Errorf("live entry %d evicted while expired entries existed", k)
		}
	}
}

func TestOverwriteAtCapacityKeepsKey(t *testing.T) {
	c := New(2)
	c.Put(1, "1", 1000, 0)
	c.Put(2, "2", 1000, 0)
	c.Put(1, "3", 1000, 0) // overwrite must not force an eviction
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
	ea, okA := c.Get(1, 1)
	_, okB := c.Get(2, 1)
	if !okA || ea.Value != "3" || !okB {
		t.Error("overwrite at capacity lost an entry")
	}
}

func TestStats(t *testing.T) {
	c := New(0)
	c.Put(7, "v", 100, 0)
	c.Get(7, 10)  // hit
	c.Get(99, 10) // miss
	c.Get(7, 200) // expired miss
	hits, misses, expired := c.Stats()
	if hits != 1 || misses != 2 || expired != 1 {
		t.Errorf("stats = %d/%d/%d, want 1/2/1", hits, misses, expired)
	}
}

func TestFlush(t *testing.T) {
	c := New(0)
	c.Put(7, "v", 100, 0)
	c.Flush()
	if c.Len() != 0 {
		t.Error("Flush left entries")
	}
}

// TestMatchesMapModel runs random operation sequences against a plain map
// holding the cache's documented semantics. Below capacity no eviction
// happens, so every answer, Len and Stats must match the model exactly.
func TestMatchesMapModel(t *testing.T) {
	st := rng.New(11)
	for round := 0; round < 50; round++ {
		c := New(1 << 12)
		model := map[uint64]Entry{}
		var hits, misses, expired uint64
		keySpace := 4 + st.Intn(600) // small spaces collide, large ones grow the table
		now := simtime.Time(0)
		for op := 0; op < 4000; op++ {
			key := uint64(st.Intn(keySpace))
			if st.Bool(0.3) {
				key |= uint64(1+st.Intn(3)) << 40 // tier-tagged keys probe differently
			}
			now = now.Add(simtime.Duration(st.Intn(5)))
			ttl := simtime.Duration(st.Intn(200)) - 20 // some <= 0: deletes
			switch r := st.Intn(10); {
			case r < 4:
				got, ok := c.Get(key, now)
				want, wok := model[key]
				if wok && !now.Before(want.Expires) {
					delete(model, key)
					expired++
					wok = false
				}
				if wok {
					hits++
				} else {
					misses++
					want = Entry{}
				}
				if ok != wok || got != want {
					t.Fatalf("round %d op %d: Get(%#x, %v) = %+v, %v; model %+v, %v", round, op, key, now, got, ok, want, wok)
				}
			case r < 7:
				c.Put(key, fmt.Sprint("v", op), ttl, now)
				if ttl <= 0 {
					delete(model, key)
				} else {
					model[key] = Entry{Value: fmt.Sprint("v", op), Expires: now.Add(ttl)}
				}
			case r < 9:
				c.PutNegative(key, ttl, now)
				if ttl <= 0 {
					delete(model, key)
				} else {
					model[key] = Entry{Negative: true, Expires: now.Add(ttl)}
				}
			default:
				if st.Bool(0.05) {
					c.Flush()
					clear(model)
				}
			}
			if c.Len() != len(model) {
				t.Fatalf("round %d op %d: Len = %d, model %d", round, op, c.Len(), len(model))
			}
		}
		if h, m, e := c.Stats(); h != hits || m != misses || e != expired {
			t.Fatalf("round %d: Stats = %d/%d/%d, model %d/%d/%d", round, h, m, e, hits, misses, expired)
		}
		// Every surviving model entry must still be reachable after all
		// the backward-shift deletes.
		for k, want := range model {
			if got, ok := c.Get(k, want.Expires-1); !ok || got != want {
				t.Fatalf("round %d: key %#x lost: %+v, %v; want %+v", round, k, got, ok, want)
			}
		}
	}
}

// TestEvictionPolicy pins the deterministic victim choice: an expired
// entry always goes before a live one, and a cache full of live entries
// drops the one that expires earliest.
func TestEvictionPolicy(t *testing.T) {
	st := rng.New(12)
	for round := 0; round < 200; round++ {
		const max = 16
		c := New(max)
		expires := map[uint64]simtime.Time{}
		keys := st.Perm(1000)
		for _, k := range keys[:max] {
			ttl := simtime.Duration(10 + st.Intn(1000))
			c.Put(uint64(k), "v", ttl, 0)
			expires[uint64(k)] = simtime.Time(ttl)
		}
		now := simtime.Time(st.Intn(400))
		var nExpired int
		earliest := uint64(0)
		for k, e := range expires {
			if !now.Before(e) {
				nExpired++
			}
			if earliest == 0 || e < expires[earliest] || (e == expires[earliest] && k < earliest) {
				earliest = k
			}
		}
		newKey := uint64(keys[max])
		c.Put(newKey, "new", 5000, now)
		if c.Len() != max {
			t.Fatalf("round %d: Len = %d after eviction, want %d", round, c.Len(), max)
		}
		_, _, expiredEvicted := c.Stats()
		if nExpired > 0 {
			if expiredEvicted != 1 {
				t.Fatalf("round %d: %d entries expired but the victim was live", round, nExpired)
			}
			for k, e := range expires {
				if now.Before(e) {
					if _, ok := c.Get(k, now); !ok {
						t.Fatalf("round %d: live key %d evicted while %d entries were expired", round, k, nExpired)
					}
				}
			}
			continue
		}
		if expiredEvicted != 0 {
			t.Fatalf("round %d: no entry expired but an expired eviction was counted", round)
		}
		// Ties in expiry go by slot index, which the test cannot see; only
		// check the victim when the earliest expiry is unique.
		unique := true
		for k, e := range expires {
			if k != earliest && e == expires[earliest] {
				unique = false
			}
		}
		if !unique {
			continue
		}
		for k := range expires {
			_, ok := c.Get(k, now)
			if ok == (k == earliest) {
				t.Fatalf("round %d: key %d (expires %v) resident=%v; want only the earliest-expiring %d evicted",
					round, k, expires[k], ok, earliest)
			}
		}
	}
}

// TestEvictionDeterministic replays one overfull operation sequence on two
// caches: with the victim a function of the cache's state, every answer
// matches.
func TestEvictionDeterministic(t *testing.T) {
	a, b := New(32), New(32)
	st := rng.New(13)
	for op := 0; op < 20000; op++ {
		key := uint64(st.Intn(200))
		now := simtime.Time(op)
		if st.Bool(0.5) {
			ttl := simtime.Duration(st.Intn(3000))
			a.Put(key, "v", ttl, now)
			b.Put(key, "v", ttl, now)
			continue
		}
		ea, oka := a.Get(key, now)
		eb, okb := b.Get(key, now)
		if ea != eb || oka != okb {
			t.Fatalf("op %d: caches diverged: %+v/%v vs %+v/%v", op, ea, oka, eb, okb)
		}
	}
}

func BenchmarkGetHit(b *testing.B) {
	c := New(0)
	c.Put(1001, "x.example.jp", simtime.Duration(1<<40), 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Get(1001, 1)
	}
}

func BenchmarkPut(b *testing.B) {
	c := New(1 << 16)
	keys := make([]uint64, 1024)
	for i := range keys {
		keys[i] = uint64(i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Put(keys[i%len(keys)], "v", 1000, simtime.Time(i))
	}
}

// TestTierMetrics pins the per-tier cache counters: keys tagged with the
// shared tier scheme (1=ptr, 2=z8, 3=z16 in bits 40+) count under their
// tier label; untagged keys fall into "other".
func TestTierMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	c := New(2)
	c.SetMetrics(reg, "test")

	ptr := uint64(1)<<40 | 7
	z8 := uint64(2)<<40 | 100
	c.Put(ptr, "a", 60, 0)       // fills slot 1
	c.Get(ptr, 10)               // ptr hit
	c.Get(z8, 10)                // z8 miss
	c.PutNegative(z8, 60, 0)     // fills slot 2
	c.Get(z8, 10)                // z8 negative hit
	c.Put(uint64(9), "b", 60, 0) // over capacity: evicts one entry
	c.Get(ptr, 100)              // expired: ptr miss (if still resident)

	get := func(name, tier string) uint64 {
		t.Helper()
		return reg.Counter(name, obs.L("cache", "test"), obs.L("tier", tier)).Value()
	}
	if got := get("cache_hits_total", "ptr"); got != 1 {
		t.Errorf("ptr hits = %d, want 1", got)
	}
	if got := get("cache_hits_total", "z8"); got != 1 {
		t.Errorf("z8 hits = %d, want 1", got)
	}
	if got := get("cache_negative_hits_total", "z8"); got != 1 {
		t.Errorf("z8 negative hits = %d, want 1", got)
	}
	if got := get("cache_misses_total", "z8"); got != 1 {
		t.Errorf("z8 misses = %d, want 1", got)
	}
	evicted := func(victim string) uint64 {
		return reg.Counter("cache_evictions_total", obs.L("cache", "test"), obs.L("victim", victim)).Value()
	}
	// Both residents are live at time 0, so the victim is live.
	if live, expired := evicted("live"), evicted("expired"); live != 1 || expired != 0 {
		t.Errorf("evictions live/expired = %d/%d, want 1/0", live, expired)
	}
	// Uninstrumenting stops counting without touching entries.
	c.SetMetrics(nil, "")
	c.Get(ptr, 10)
	if got := get("cache_hits_total", "ptr") + get("cache_misses_total", "ptr"); got > 3 {
		t.Errorf("uninstrumented cache still counting: %d", got)
	}
}
