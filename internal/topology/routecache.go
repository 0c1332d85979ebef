package topology

import "math/rand"

// Packing limits for cached route keys: up to maxCachedDraws picks of
// drawBits bits each, packed into a uint64. A draw sequence that does not
// fit — more draws, or a pick too large for its field — is routed without
// memoization rather than risk two sequences colliding on one key. The
// paper's XGFT(2;18,14;1,18) uses a single one-byte draw; the dragonfly's
// intermediate-group draw (Intn(65) even on dragonfly-big) and the XGFT(3;...)
// per-level draws fit comfortably. A synthetic fabric with fan-out >= 256
// simply routes uncached — see TestRouteCacheHighRadixUncached.
const (
	maxCachedDraws = 8
	drawBits       = 8
	maxDraw        = 1<<drawBits - 1
)

// Cache geometry. Entries spread over a fixed power-of-two number of shards
// by key hash; each shard is independently size-bounded and runs its own
// clock (second-chance) eviction, so the scan cost of one eviction is bounded
// by the shard, not the cache. DefaultCacheEntries bounds a cache at ~64k
// routes — about 3 MB of paths on an 8k-terminal fat tree — where the old
// unbounded map would grow with the full (src, dst, draws) product
// (xgft3-big alone has 8000*8000*400 potential keys).
const (
	cacheShards         = 16
	DefaultCacheEntries = 1 << 16
)

// routeKey identifies a route by its endpoints and the packed sequence of
// routing draws made for it. The draw count is part of the key, so two
// sequences of different lengths can never alias; within one length the
// fixed-width fields make packing injective. Given the same draws, the path
// is a pure function of (src, dst), so equal keys always map to the
// identical path.
type routeKey struct {
	src, dst int32
	n        int32
	choice   uint64
}

// shard spreads keys over the shard array with a cheap multiplicative hash.
func (k routeKey) shard() int {
	h := uint64(uint32(k.src))*0x9E3779B1 ^ uint64(uint32(k.dst))*0x85EBCA77 ^
		uint64(uint32(k.n)) ^ k.choice*0xC2B2AE3D
	h ^= h >> 29
	return int(h & (cacheShards - 1))
}

// packDraws packs a draw sequence into a fixed-width key, reporting whether
// it fits (at most maxCachedDraws picks, each at most maxDraw).
func packDraws(draws []int) (uint64, bool) {
	if len(draws) > maxCachedDraws {
		return 0, false
	}
	var key uint64
	for _, p := range draws {
		if p < 0 || p > maxDraw {
			return 0, false
		}
		key = key<<drawBits | uint64(p)
	}
	return key, true
}

// cacheShard is one clock ring of memoized routes: parallel slot arrays plus
// an index map. Evicted slots keep their path's backing array (truncated to
// length zero), so steady-state churn re-fills storage instead of allocating.
type cacheShard struct {
	index map[routeKey]int32
	keys  []routeKey
	paths [][]LinkID
	ref   []bool
	hand  int32
}

// RouteCache memoizes routes per (src, dst, routing-draw sequence) so that
// steady-state routing performs no allocation and no path walk: the cache
// consumes the RNG exactly as the fabric's RouteIDsInto does (same number of
// Intn calls in the same order, so timings driven by the shared RNG stay
// bit-identical), then returns the memoized path for that draw.
//
// The cache is size-bounded: entries spread over hash shards and each shard
// evicts with a second-chance clock once full, so a 10k-terminal fabric's
// (src, dst, draws) product cannot grow the cache without bound. Eviction
// never touches the RNG contract — draws are consumed before the lookup, and
// a miss (fresh or re-computed after eviction) rebuilds the identical path
// from the recorded draws.
//
// Returned paths are read-only views into cache slots: they are valid until
// a later Route call evicts or recycles the slot, so callers must consume
// (or copy) a path before routing again. A RouteCache is not safe for
// concurrent use — use one per RNG it consumes.
type RouteCache struct {
	f          Fabric
	shards     [cacheShards]cacheShard
	shardCap   int
	draws      []int    // scratch for RouteDraws; reused across calls
	uncachable []LinkID // scratch path for draw sequences that don't pack

	hits, misses, evictions int64
}

// NewRouteCache returns an empty route cache over f bounded at
// DefaultCacheEntries memoized routes.
func NewRouteCache(f Fabric) *RouteCache {
	return NewRouteCacheSize(f, DefaultCacheEntries)
}

// NewRouteCacheSize returns an empty route cache over f bounded at roughly
// entries memoized routes (rounded up to a whole number per shard).
func NewRouteCacheSize(f Fabric, entries int) *RouteCache {
	per := (entries + cacheShards - 1) / cacheShards
	if per < 1 {
		per = 1
	}
	c := &RouteCache{
		f:        f,
		shardCap: per,
		draws:    make([]int, 0, maxCachedDraws),
	}
	for i := range c.shards {
		c.shards[i].index = make(map[routeKey]int32)
	}
	return c
}

// Fabric returns the fabric the cache routes over.
func (c *RouteCache) Fabric() Fabric { return c.f }

// Len returns the number of memoized routes.
func (c *RouteCache) Len() int {
	n := 0
	for i := range c.shards {
		n += len(c.shards[i].index)
	}
	return n
}

// Cap returns the maximum number of memoized routes.
func (c *RouteCache) Cap() int { return c.shardCap * cacheShards }

// Stats returns cumulative hit/miss/eviction counters (misses include
// re-computation after eviction; uncachable draw sequences count as misses).
func (c *RouteCache) Stats() (hits, misses, evictions int64) {
	return c.hits, c.misses, c.evictions
}

// Route returns the directed links of a path from terminal src to terminal
// dst, drawing the random routing choices from rng exactly as the fabric's
// RouteIDsInto would. The returned slice is shared with the cache and valid
// until the next Route call: callers must not mutate or retain it.
// src == dst yields an empty path.
func (c *RouteCache) Route(src, dst int, rng *rand.Rand) []LinkID {
	c.draws = c.f.RouteDraws(c.draws[:0], src, dst, rng)
	choice, ok := packDraws(c.draws)
	if !ok {
		// The sequence does not fit the packed key: compute the path for
		// these draws directly instead of caching under an ambiguous key.
		c.misses++
		c.uncachable = c.f.RouteIDsFromDraws(c.uncachable[:0], src, dst, c.draws)
		return c.uncachable
	}
	k := routeKey{src: int32(src), dst: int32(dst), n: int32(len(c.draws)), choice: choice}
	sh := &c.shards[k.shard()]
	if slot, ok := sh.index[k]; ok {
		c.hits++
		sh.ref[slot] = true
		return sh.paths[slot]
	}
	c.misses++
	var slot int32
	if len(sh.keys) < c.shardCap {
		slot = int32(len(sh.keys))
		sh.keys = append(sh.keys, k)
		sh.paths = append(sh.paths, nil)
		sh.ref = append(sh.ref, false)
	} else {
		// Second-chance clock: skip (and clear) referenced slots, evict the
		// first unreferenced one. Terminates within two sweeps.
		for sh.ref[sh.hand] {
			sh.ref[sh.hand] = false
			sh.hand = (sh.hand + 1) % int32(len(sh.keys))
		}
		slot = sh.hand
		sh.hand = (sh.hand + 1) % int32(len(sh.keys))
		delete(sh.index, sh.keys[slot])
		sh.keys[slot] = k
		c.evictions++
	}
	sh.paths[slot] = c.f.RouteIDsFromDraws(sh.paths[slot][:0], src, dst, c.draws)
	sh.index[k] = slot
	return sh.paths[slot]
}
