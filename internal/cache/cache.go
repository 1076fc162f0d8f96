// Package cache implements the TTL cache used by simulated recursive
// resolvers.
//
// DNS caching is the dominant attenuator of backscatter (§II, §IV-D):
// whether an authority sees a reverse query at all depends on what the
// querier's resolver still holds — the final PTR record, or any NS
// delegation along the in-addr.arpa chain. The cache supports positive and
// negative entries (NXDomain results are cached too, per RFC 2308), uses
// the simulator's explicit clock, and bounds memory with a deterministic
// eviction policy: an expired entry if one exists, else the live entry
// that expires earliest. The victim is a pure function of the cache's
// state, so a bounded cache answers identically on every run.
package cache

import (
	"dnsbackscatter/internal/obs"
	"dnsbackscatter/internal/simtime"
)

// Entry is a cached DNS result.
type Entry struct {
	Value    string // e.g. a PTR target or NS hostname; empty for negative
	Negative bool   // NXDomain / NODATA result
	Expires  simtime.Time
}

// slot is one cell of the open-addressed table.
type slot struct {
	key  uint64
	used bool
	e    Entry
}

// minSlots is the table size a cache starts with; it doubles as needed.
const minSlots = 8

// Cache is a TTL cache with bounded size, keyed by compact uint64 zone/
// record identifiers (resolvers issue millions of lookups, so keys avoid
// string construction). Entries live in a flat open-addressed table with
// linear probing; the table doubles at load 3/4 and deletes by backward
// shift, so no tombstones accumulate. It is not safe for concurrent use;
// the simulator drives each resolver from one goroutine.
type Cache struct {
	max   int
	slots []slot // len is a power of two, or 0 before the first insert
	n     int    // used slots

	hits, misses, expired uint64

	m *cacheMetrics
}

// Key tiers: callers tag keys in bits 40+ (1 = PTR record, 2 = /8 zone
// delegation, 3 = /16 zone delegation — the scheme both dnssim resolvers
// and the live recursor use), which is what makes per-zone cache metrics
// possible without string keys.
var tierNames = [4]string{"other", "ptr", "z8", "z16"}

// tierOf maps a cache key to its metric tier index.
func tierOf(key uint64) int {
	if t := key >> 40; t >= 1 && t <= 3 {
		return int(t)
	}
	return 0
}

// cacheMetrics holds the pre-resolved counters of one instrumented cache.
// All methods are no-ops on a nil receiver, so the uninstrumented hot
// path pays one pointer test.
type cacheMetrics struct {
	hits    [4]*obs.Counter
	negHits [4]*obs.Counter
	misses  [4]*obs.Counter
	// evictions is split by victim kind, not by tier: whether the victim
	// was expired or live is what tells a well-sized cache (expired
	// victims only) from one that drops answers it still holds.
	evictions [2]*obs.Counter // victimExpired, victimLive
}

// Victim kinds, indexing cacheMetrics.evictions.
const (
	victimExpired = iota
	victimLive
)

// SetMetrics instruments the cache: hits, negative hits, and misses are
// counted per key tier under cache_*_total{cache=name,
// tier=ptr|z8|z16|other}; evictions per cache and victim kind under
// cache_evictions_total{cache=name, victim=expired|live}. Caches sharing
// a name (every simulated resolver, say) share counters — the registry
// dedups by identity. A nil registry leaves the cache uninstrumented.
func (c *Cache) SetMetrics(reg *obs.Registry, name string) {
	if reg == nil {
		c.m = nil
		return
	}
	m := &cacheMetrics{}
	for vi, victim := range [2]string{"expired", "live"} {
		m.evictions[vi] = reg.Counter("cache_evictions_total", obs.L("cache", name), obs.L("victim", victim))
	}
	for ti, tier := range tierNames {
		ls := []obs.Label{obs.L("cache", name), obs.L("tier", tier)}
		m.hits[ti] = reg.Counter("cache_hits_total", ls...)
		m.negHits[ti] = reg.Counter("cache_negative_hits_total", ls...)
		m.misses[ti] = reg.Counter("cache_misses_total", ls...)
	}
	c.m = m
}

func (m *cacheMetrics) hit(key uint64, negative bool) {
	if m == nil {
		return
	}
	t := tierOf(key)
	m.hits[t].Inc()
	if negative {
		m.negHits[t].Inc()
	}
}

func (m *cacheMetrics) miss(key uint64) {
	if m == nil {
		return
	}
	m.misses[tierOf(key)].Inc()
}

func (m *cacheMetrics) evict(victim int) {
	if m == nil {
		return
	}
	m.evictions[victim].Inc()
}

// New returns a cache holding at most max entries. max <= 0 means
// unbounded.
func New(max int) *Cache {
	return &Cache{max: max}
}

// home returns key's preferred slot. Keys are structured (tier bits over
// an address), so a multiplicative hash spreads them before masking.
func (c *Cache) home(key uint64) int {
	return int((key * 0x9e3779b97f4a7c15) >> 32 & uint64(len(c.slots)-1))
}

// find returns the slot holding key, or the empty slot where key would go
// and false. The table must have at least one empty slot.
func (c *Cache) find(key uint64) (int, bool) {
	mask := len(c.slots) - 1
	for i := c.home(key); ; i = (i + 1) & mask {
		s := &c.slots[i]
		if !s.used {
			return i, false
		}
		if s.key == key {
			return i, true
		}
	}
}

// Get returns the live entry for key at time now. Expired entries are
// removed and reported as misses.
//
//bslint:hotpath
func (c *Cache) Get(key uint64, now simtime.Time) (Entry, bool) {
	if c.n == 0 {
		c.misses++
		c.m.miss(key)
		return Entry{}, false
	}
	i, ok := c.find(key)
	if !ok {
		c.misses++
		c.m.miss(key)
		return Entry{}, false
	}
	e := c.slots[i].e
	if !now.Before(e.Expires) {
		c.remove(i)
		c.expired++
		c.misses++
		c.m.miss(key)
		return Entry{}, false
	}
	c.hits++
	c.m.hit(key, e.Negative)
	return e, true
}

// Put stores a positive entry with the given TTL. A TTL <= 0 stores
// nothing (the zero-TTL PTR records of the paper's controlled experiment
// disable caching entirely).
func (c *Cache) Put(key uint64, value string, ttl simtime.Duration, now simtime.Time) {
	if ttl <= 0 {
		c.delete(key)
		return
	}
	c.insert(key, Entry{Value: value, Expires: now.Add(ttl)}, now)
}

// PutNegative stores an NXDomain result for the negative-cache TTL.
func (c *Cache) PutNegative(key uint64, ttl simtime.Duration, now simtime.Time) {
	if ttl <= 0 {
		c.delete(key)
		return
	}
	c.insert(key, Entry{Negative: true, Expires: now.Add(ttl)}, now)
}

// delete drops key if present.
func (c *Cache) delete(key uint64) {
	if c.n == 0 {
		return
	}
	if i, ok := c.find(key); ok {
		c.remove(i)
	}
}

// insert stores e under key, evicting first when a new key would exceed
// max and growing the table past load 3/4.
//
//bslint:hotpath
func (c *Cache) insert(key uint64, e Entry, now simtime.Time) {
	if len(c.slots) == 0 {
		c.slots = make([]slot, minSlots)
	}
	i, ok := c.find(key)
	if ok {
		c.slots[i].e = e
		return
	}
	if c.max > 0 && c.n >= c.max {
		c.evict(key, now)
		i, _ = c.find(key)
	}
	if 4*(c.n+1) > 3*len(c.slots) {
		c.grow()
		i, _ = c.find(key)
	}
	c.slots[i] = slot{key: key, used: true, e: e}
	c.n++
}

// grow doubles the table and reinserts every entry in slot order.
func (c *Cache) grow() {
	old := c.slots
	c.slots = make([]slot, 2*len(old))
	for _, s := range old {
		if s.used {
			i, _ := c.find(s.key)
			c.slots[i] = s
		}
	}
}

// remove empties slot i and shifts later members of its probe run back,
// so every remaining key stays reachable from its home slot.
func (c *Cache) remove(i int) {
	mask := len(c.slots) - 1
	for j := (i + 1) & mask; c.slots[j].used; j = (j + 1) & mask {
		// The entry at j may move into the hole at i only if its home
		// does not lie cyclically in (i, j].
		if h := c.home(c.slots[j].key); (j-h)&mask >= (j-i)&mask {
			c.slots[i] = c.slots[j]
			i = j
		}
	}
	c.slots[i] = slot{}
	c.n--
}

// evict removes one entry to make room for key. It scans the table from
// key's home slot: the first expired entry found is the victim; with none
// expired, the live entry that expires earliest goes, ties to the lowest
// slot index. The choice depends only on the table's state.
func (c *Cache) evict(key uint64, now simtime.Time) {
	mask := len(c.slots) - 1
	live := -1
	for k, i := 0, c.home(key); k < len(c.slots); k, i = k+1, (i+1)&mask {
		s := &c.slots[i]
		if !s.used {
			continue
		}
		if !now.Before(s.e.Expires) {
			c.remove(i)
			c.expired++
			c.m.evict(victimExpired)
			return
		}
		if live < 0 || s.e.Expires.Before(c.slots[live].e.Expires) ||
			(s.e.Expires == c.slots[live].e.Expires && i < live) {
			live = i
		}
	}
	if live >= 0 {
		c.remove(live)
		c.m.evict(victimLive)
	}
}

// Len returns the number of stored entries, counting expired-but-unswept.
func (c *Cache) Len() int { return c.n }

// Stats returns cumulative hit/miss/expiry counters.
func (c *Cache) Stats() (hits, misses, expired uint64) {
	return c.hits, c.misses, c.expired
}

// Flush drops every entry.
func (c *Cache) Flush() {
	clear(c.slots)
	c.n = 0
}
