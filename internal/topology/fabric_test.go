package topology

import (
	"math/rand"
	"slices"
	"testing"

	"ibpower/internal/registrytest"
)

// TestRegistryPresets asserts every preset builds, satisfies the size floor
// for the evaluation grid (up to 128 processes), and is memoized.
func TestRegistryPresets(t *testing.T) {
	names := Names()
	for _, want := range []string{"xgft", "xgft3", "dragonfly", "torus2d", "torus3d", "xgft3-big", "dragonfly-big"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("preset %q not registered (have %v)", want, names)
		}
	}
	for _, n := range names {
		f, err := Named(n)
		if err != nil {
			t.Fatalf("Named(%q): %v", n, err)
		}
		if f.NumTerminals() < 128 {
			t.Errorf("%s: %d terminals, want >= 128 for the evaluation grid", n, f.NumTerminals())
		}
		if again, _ := Named(n); again != f {
			t.Errorf("%s: Named returned a different instance on second lookup", n)
		}
		if f.NumLinks() != 2*f.NumCables() {
			t.Errorf("%s: %d directed links, want %d (2 per cable)", n, f.NumLinks(), 2*f.NumCables())
		}
		if tab := f.Table(); tab.Len() != f.NumLinks() {
			t.Errorf("%s: table has %d links, NumLinks reports %d", n, tab.Len(), f.NumLinks())
		}
	}
	if f, err := Named(""); err != nil || f != MustNamed(DefaultFabric) {
		t.Errorf("empty name must resolve to the default fabric (err=%v)", err)
	}
	if MustNamed(DefaultFabric).(*XGFT) != Paper() {
		t.Error("default fabric is not the shared paper instance")
	}
}

// TestRegistryContract runs the shared registry property test. The
// throwaway entries it registers build the paper fabric, so the structural
// sweeps below that iterate Names() keep passing over them.
func TestRegistryContract(t *testing.T) {
	registrytest.Run(t, registrytest.Registry{
		Kind:    "fabric",
		Default: DefaultFabric,
		Names:   Names,
		Check:   CheckRegistered,
		RegisterValid: func(name string) {
			Register(name, func() (Fabric, error) { return Paper(), nil })
		},
		RegisterNil: func(name string) { Register(name, nil) },
	})
}

// TestCableClosedForms pins each preset's cable count to its closed form —
// including the supercomputer-scale presets, whose structure is checked here
// in closed form rather than by exhaustive walks.
func TestCableClosedForms(t *testing.T) {
	cases := []struct {
		name      string
		terminals int
		cables    int
	}{
		// XGFT(2;18,14;1,18): 252 host + 14*18 leaf-top.
		{"xgft", 252, 252 + 14*18},
		// XGFT(3;6,6,4;1,4,4): 144 host + 24 L1-switches*4 + 16 L2-switches*4.
		{"xgft3", 144, 144 + 24*4 + 16*4},
		// Dragonfly(p=4,a=4,h=2): 9 groups; 144 host + 9*C(4,2) local + C(9,2) global.
		{"dragonfly", 144, 144 + 9*6 + 36},
		// 12x12 torus: 144 host + 144 routers * 2 dimensions.
		{"torus2d", 144, 144 + 144*2},
		// 6x6x4 torus: 144 host + 144 routers * 3 dimensions.
		{"torus3d", 144, 144 + 144*3},
		// XGFT(3;20,20,20;1,20,20): full bisection — 8000 host + 400 L1*20 +
		// 400 L2*20.
		{"xgft3-big", 8000, 8000 + 400*20 + 400*20},
		// Dragonfly(p=8,a=16,h=4): 65 groups; 8320 host + 65*C(16,2) local +
		// C(65,2) global.
		{"dragonfly-big", 8320, 8320 + 65*120 + 65*64/2},
	}
	for _, c := range cases {
		f := MustNamed(c.name)
		if got := f.NumTerminals(); got != c.terminals {
			t.Errorf("%s: terminals = %d, want %d", c.name, got, c.terminals)
		}
		if got := f.NumCables(); got != c.cables {
			t.Errorf("%s: cables = %d, want %d", c.name, got, c.cables)
		}
	}
}

// TestBigPresetSwitchCounts pins the big presets' switch populations and
// host-link wiring in closed form.
func TestBigPresetSwitchCounts(t *testing.T) {
	xg := MustNamed("xgft3-big").(*XGFT)
	if xg.NumSwitches() != 1200 {
		t.Errorf("xgft3-big: switches = %d, want 1200", xg.NumSwitches())
	}
	for l := 1; l <= 3; l++ {
		if got := xg.SwitchesAtLevel(l); got != 400 {
			t.Errorf("xgft3-big: level-%d switches = %d, want 400", l, got)
		}
	}
	df := MustNamed("dragonfly-big").(*Dragonfly)
	if df.NumSwitches() != 65*16 {
		t.Errorf("dragonfly-big: routers = %d, want %d", df.NumSwitches(), 65*16)
	}
	// 20 terminals per leaf switch on the fat tree, 8 per dragonfly router.
	leaves := map[int32]int{}
	for i := 0; i < xg.NumTerminals(); i++ {
		leaves[HostSwitch(xg, i)]++
	}
	for sw, n := range leaves {
		if n != 20 {
			t.Fatalf("xgft3-big: leaf switch %d hosts %d terminals, want 20", sw, n)
		}
	}
}

// checkPath asserts path is a valid adjacent-link walk from terminal src to
// terminal dst over f's own link table.
func checkPath(t *testing.T, f Fabric, src, dst int, path []LinkID) {
	t.Helper()
	tab := f.Table()
	if src == dst {
		if len(path) != 0 {
			t.Fatalf("%s: self route %d has %d links, want 0", f.Name(), src, len(path))
		}
		return
	}
	if len(path) == 0 {
		t.Fatalf("%s: empty route %d->%d", f.Name(), src, dst)
	}
	if tab.From[path[0]] != tab.From[f.HostLinkID(src)] {
		t.Fatalf("%s: route %d->%d does not start at src terminal", f.Name(), src, dst)
	}
	if tab.To[path[len(path)-1]] != tab.From[f.HostLinkID(dst)] {
		t.Fatalf("%s: route %d->%d does not end at dst terminal", f.Name(), src, dst)
	}
	cur := tab.From[path[0]]
	for i, l := range path {
		if l < 0 || int(l) >= tab.Len() {
			t.Fatalf("%s: route %d->%d hop %d is not a fabric link", f.Name(), src, dst, i)
		}
		if tab.From[l] != cur {
			t.Fatalf("%s: route %d->%d discontiguous at hop %d", f.Name(), src, dst, i)
		}
		if i < len(path)-1 && tab.Kind[l]&LinkToSwitch == 0 {
			t.Fatalf("%s: route %d->%d passes through terminal %d mid-path", f.Name(), src, dst, tab.To[l])
		}
		cur = tab.To[l]
	}
}

// TestRouteValidityAllFabrics is the cross-fabric structural property: every
// route over every registered fabric — the 8k-terminal presets included — is
// a valid adjacent-link path from src to dst, with and without random
// routing. Sampled pairs keep it fast enough for plain `go test`.
func TestRouteValidityAllFabrics(t *testing.T) {
	for _, name := range Names() {
		f := MustNamed(name)
		rng := rand.New(rand.NewSource(7))
		pick := rand.New(rand.NewSource(13))
		n := f.NumTerminals()
		for i := 0; i < 400; i++ {
			src, dst := pick.Intn(n), pick.Intn(n)
			checkPath(t, f, src, dst, f.RouteIDsInto(nil, src, dst, rng))
			checkPath(t, f, src, dst, f.RouteIDsInto(nil, src, dst, nil))
		}
	}
}

// TestXGFT3UpDownInvariant asserts three-level routes ascend then descend —
// never up again after the first down link.
func TestXGFT3UpDownInvariant(t *testing.T) {
	for _, name := range []string{"xgft3", "xgft3-big"} {
		f := MustNamed(name).(*XGFT)
		tab := f.Table()
		rng := rand.New(rand.NewSource(3))
		pick := rand.New(rand.NewSource(17))
		n := f.NumTerminals()
		for i := 0; i < 400; i++ {
			src, dst := pick.Intn(n), pick.Intn(n)
			if src == dst {
				continue
			}
			path := f.RouteIDsInto(nil, src, dst, rng)
			descending := false
			for j, l := range path {
				if tab.IsUp(l) && descending {
					t.Fatalf("%s: route %d->%d goes up at hop %d after descending", name, src, dst, j)
				}
				if !tab.IsUp(l) {
					descending = true
				}
			}
		}
	}
}

// TestDragonflyInvariants asserts dragonfly routes — on the small and the
// 8k-terminal preset — use at most two global hops (minimal or one Valiant
// detour) and that random intermediate-group routing spreads traffic over
// the groups.
func TestDragonflyInvariants(t *testing.T) {
	for _, name := range []string{"dragonfly", "dragonfly-big"} {
		f := MustNamed(name).(*Dragonfly)
		tab := f.Table()
		rng := rand.New(rand.NewSource(5))
		pick := rand.New(rand.NewSource(23))
		// Routers occupy node IDs at multiples of P+1; group = router/A.
		groupOfNode := func(n int32) int { return int(n) / (f.P + 1) / f.A }
		isGlobal := func(l LinkID) bool {
			return tab.SwitchToSwitch(l) && groupOfNode(tab.From[l]) != groupOfNode(tab.To[l])
		}
		globalsUsed := map[int32]bool{}
		n := f.NumTerminals()
		for i := 0; i < 600; i++ {
			src, dst := pick.Intn(n), pick.Intn(n)
			if src == dst {
				continue
			}
			path := f.RouteIDsInto(nil, src, dst, rng)
			globals := 0
			for _, l := range path {
				if isGlobal(l) {
					globals++
				}
			}
			if globals > 2 {
				t.Fatalf("%s: route %d->%d crossed %d global links, want <= 2", name, src, dst, globals)
			}
			if f.group(src) != f.group(dst) {
				if globals == 0 {
					t.Fatalf("%s: inter-group route %d->%d used no global link", name, src, dst)
				}
				globals = 0
				minimal := f.RouteIDsInto(nil, src, dst, nil)
				for _, l := range minimal {
					if isGlobal(l) {
						globals++
					}
				}
				if globals != 1 {
					t.Fatalf("%s: minimal route %d->%d crossed %d global links, want 1", name, src, dst, globals)
				}
			}
			for _, l := range path {
				if isGlobal(l) {
					globalsUsed[tab.Cable[l]] = true
				}
			}
		}
		if len(globalsUsed) < 10 {
			t.Errorf("%s: random intermediate groups exercised only %d global cables", name, len(globalsUsed))
		}
	}
}

// TestTorusDimensionOrder asserts torus routes correct dimensions strictly
// in order, one ±1 ring step at a time along the shorter arc, and are fully
// deterministic. Every (src, dst) pair of both presets is checked, and an
// exact half-ring tie must travel in the + direction: the + step of a ring is
// its cable's forward (even) LinkID, the - step the reverse (odd) one.
// Coordinates are recomputed from Dims here, independently of the
// precomputed ring tables routing walks.
func TestTorusDimensionOrder(t *testing.T) {
	for _, name := range []string{"torus2d", "torus3d"} {
		f := MustNamed(name).(*Torus)
		tab := f.Table()
		coords := func(r int) []int {
			c := make([]int, len(f.Dims))
			for d, size := range f.Dims {
				c[d] = r % size
				r /= size
			}
			return c
		}
		// Routers occupy node IDs at multiples of P+1.
		routerOf := func(n int32) int { return int(n) / (f.P + 1) }
		rng := rand.New(rand.NewSource(29))
		n := f.NumTerminals()
		var path, again []LinkID
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				if src == dst {
					continue
				}
				path = f.RouteIDsInto(path[:0], src, dst, rng)
				again = f.RouteIDsInto(again[:0], src, dst, nil)
				if !slices.Equal(path, again) {
					t.Fatalf("%s: route %d->%d depends on the RNG", name, src, dst)
				}
				// Per dimension: the shorter-arc step count and direction,
				// ties going +.
				sc, dc := coords(src/f.P), coords(dst/f.P)
				wantSteps := make([]int, len(f.Dims))
				wantPlus := make([]bool, len(f.Dims))
				expectedLen := 2
				for d, size := range f.Dims {
					delta := (dc[d] - sc[d] + size) % size
					wantSteps[d], wantPlus[d] = delta, true
					if size-delta < delta {
						wantSteps[d], wantPlus[d] = size-delta, false
					}
					expectedLen += wantSteps[d]
				}
				if len(path) != expectedLen {
					t.Fatalf("%s: route %d->%d has %d links, want %d (shortest arcs)", name, src, dst, len(path), expectedLen)
				}
				// Interior hops are router->router ring steps.
				highest := 0
				steps := make([]int, len(f.Dims))
				for _, l := range path[1 : len(path)-1] {
					a, b := coords(routerOf(tab.From[l])), coords(routerOf(tab.To[l]))
					changed := -1
					for d := range a {
						if a[d] == b[d] {
							continue
						}
						if changed >= 0 {
							t.Fatalf("%s: route %d->%d: hop changes two dimensions", name, src, dst)
						}
						changed = d
						diff, size := (b[d]-a[d]+f.Dims[d])%f.Dims[d], f.Dims[d]
						wantDiff := 1
						if !wantPlus[d] {
							wantDiff = size - 1
						}
						if diff != wantDiff {
							t.Fatalf("%s: route %d->%d: hop moves %d in dimension %d, want %d", name, src, dst, diff, d, wantDiff)
						}
						if plus := l&1 == 0; plus != wantPlus[d] {
							t.Fatalf("%s: route %d->%d: dimension %d stepped + = %v, want %v (ties go +)",
								name, src, dst, d, plus, wantPlus[d])
						}
					}
					if changed < 0 {
						t.Fatalf("%s: route %d->%d: hop changes no dimension", name, src, dst)
					}
					if changed < highest {
						t.Fatalf("%s: route %d->%d: dimension %d corrected after dimension %d", name, src, dst, changed, highest)
					}
					highest = changed
					steps[changed]++
				}
				if !slices.Equal(steps, wantSteps) {
					t.Fatalf("%s: route %d->%d: steps per dimension %v, want %v", name, src, dst, steps, wantSteps)
				}
			}
		}
	}
}

// TestRouteCacheMatchesAllFabrics asserts cached routing over every
// registered fabric returns the exact uncached path and consumes the RNG
// identically — the contract RouteDraws/RouteIDsFromDraws exist for.
func TestRouteCacheMatchesAllFabrics(t *testing.T) {
	for _, name := range Names() {
		f := MustNamed(name)
		cache := NewRouteCache(f)
		rngA := rand.New(rand.NewSource(11))
		rngB := rand.New(rand.NewSource(11))
		pick := rand.New(rand.NewSource(5))
		n := f.NumTerminals()
		for i := 0; i < 1500; i++ {
			src, dst := pick.Intn(n), pick.Intn(n)
			want := f.RouteIDsInto(nil, src, dst, rngA)
			got := cache.Route(src, dst, rngB)
			if len(want) != len(got) {
				t.Fatalf("%s (%d,%d): lengths differ: %d vs %d", name, src, dst, len(want), len(got))
			}
			for j := range want {
				if want[j] != got[j] {
					t.Fatalf("%s (%d,%d): hop %d differs", name, src, dst, j)
				}
			}
		}
		if a, b := rngA.Int63(), rngB.Int63(); a != b {
			t.Errorf("%s: RNG states diverged after cached routing", name)
		}
		if cache.Len() == 0 {
			t.Errorf("%s: cache memoized no routes", name)
		}
		if cache.Len() > cache.Cap() {
			t.Errorf("%s: cache holds %d routes over its bound %d", name, cache.Len(), cache.Cap())
		}
		if cache.Fabric() != f {
			t.Errorf("%s: cache reports wrong fabric", name)
		}
	}
}

// TestRouteCacheBoundedEviction drives a deliberately tiny cache far past
// its capacity and asserts (a) the bound holds, (b) clock eviction actually
// runs, and (c) cached routing stays bit-identical to uncached routing —
// eviction must never disturb paths or the RNG draw sequence.
func TestRouteCacheBoundedEviction(t *testing.T) {
	f := MustNamed("xgft3")
	cache := NewRouteCacheSize(f, 64)
	if cache.Cap() < 64 {
		t.Fatalf("Cap() = %d, want >= 64", cache.Cap())
	}
	rngA := rand.New(rand.NewSource(19))
	rngB := rand.New(rand.NewSource(19))
	pick := rand.New(rand.NewSource(37))
	n := f.NumTerminals()
	for i := 0; i < 6000; i++ {
		src, dst := pick.Intn(n), pick.Intn(n)
		want := f.RouteIDsInto(nil, src, dst, rngA)
		got := cache.Route(src, dst, rngB)
		if len(want) != len(got) {
			t.Fatalf("(%d,%d): lengths differ: %d vs %d", src, dst, len(want), len(got))
		}
		for j := range want {
			if want[j] != got[j] {
				t.Fatalf("(%d,%d): hop %d differs after eviction churn", src, dst, j)
			}
		}
		if cache.Len() > cache.Cap() {
			t.Fatalf("cache grew to %d routes, bound is %d", cache.Len(), cache.Cap())
		}
	}
	if a, b := rngA.Int63(), rngB.Int63(); a != b {
		t.Error("RNG states diverged under eviction churn")
	}
	hits, misses, evictions := cache.Stats()
	if evictions == 0 {
		t.Error("tiny cache saw no evictions")
	}
	if hits == 0 || misses == 0 {
		t.Errorf("implausible counters: hits=%d misses=%d", hits, misses)
	}
}

// collideFabric is a minimal Fabric whose routing draw deliberately exceeds
// the cache's packed-key field width: fan-out 300 means picks 1 and 257
// alias under naive 8-bit packing (257 & 0xff == 1). Paths are one synthetic
// link per pick (the forward link of cable p), so a collision would return
// the wrong link. It can also vary the number of draws per route
// (variable=true draws a second pick when the first is zero), aliasing
// [0, x] with [x] under count-free packing.
type collideFabric struct {
	tab      LinkTable
	fan      int
	variable bool
}

func newCollideFabric(fan int, variable bool) *collideFabric {
	f := &collideFabric{fan: fan, variable: variable}
	for i := 0; i < fan; i++ {
		f.tab.addCable(0, 1, LinkToSwitch|LinkUp)
	}
	return f
}

// linkFor maps pick p to its synthetic link (cable p's forward direction).
func (f *collideFabric) linkFor(p int) LinkID { return LinkID(2 * p) }

func (f *collideFabric) Name() string          { return "collide" }
func (f *collideFabric) NumTerminals() int     { return 2 }
func (f *collideFabric) NumSwitches() int      { return 1 }
func (f *collideFabric) NumCables() int        { return f.fan }
func (f *collideFabric) NumLinks() int         { return f.tab.Len() }
func (f *collideFabric) Table() *LinkTable     { return &f.tab }
func (f *collideFabric) HostLinkID(int) LinkID { return 0 }
func (f *collideFabric) RouteIDsInto(buf []LinkID, src, dst int, rng *rand.Rand) []LinkID {
	return f.RouteIDsFromDraws(buf, src, dst, f.RouteDraws(nil, src, dst, rng))
}
func (f *collideFabric) RouteDraws(draws []int, src, dst int, rng *rand.Rand) []int {
	if src == dst || rng == nil {
		return draws
	}
	pick := rng.Intn(f.fan)
	draws = append(draws, pick)
	if f.variable && pick == 0 {
		draws = append(draws, rng.Intn(f.fan))
	}
	return draws
}
func (f *collideFabric) RouteIDsFromDraws(buf []LinkID, src, dst int, draws []int) []LinkID {
	for _, p := range draws {
		buf = append(buf, f.linkFor(p))
	}
	return buf
}

// fixedSeq is a rand.Source replaying a fixed Int63 sequence.
type fixedSeq struct {
	vals []int64
	i    int
}

func (s *fixedSeq) Int63() int64 {
	v := s.vals[s.i%len(s.vals)]
	s.i++
	return v
}
func (s *fixedSeq) Seed(int64) {}

// drawRNG returns a Rand whose next Intn(fan) calls yield exactly picks.
// rand.Intn's rejection-free path for non-power-of-two n maps Int63 values
// by modulo after masking to 31 bits via Int31n; feeding v*? is brittle, so
// instead binary-search an Int63 value that produces each pick.
func drawRNG(fan int, picks ...int) *rand.Rand {
	vals := make([]int64, len(picks))
	for i, want := range picks {
		found := false
		for v := int64(0); v < int64(4*fan); v++ {
			if int(rand.New(&fixedSeq{vals: []int64{v << 32}}).Intn(fan)) == want {
				vals[i] = v << 32
				found = true
				break
			}
		}
		if !found {
			panic("drawRNG: no source value found")
		}
	}
	return rand.New(&fixedSeq{vals: vals})
}

// TestRouteCacheCollisionRegression is the packed-key audit: draw values too
// wide for the key's per-pick field, and draw sequences of different
// lengths, must never silently collide two routes. Before the guard, pick
// 257 aliased pick 1 (both pack to 0x01) and [0,5] aliased [5].
func TestRouteCacheCollisionRegression(t *testing.T) {
	// Wide picks: 1 then 257 for the same (src, dst).
	f := newCollideFabric(300, false)
	cache := NewRouteCache(f)
	first := cache.Route(0, 1, drawRNG(300, 1))
	if len(first) != 1 || first[0] != f.linkFor(1) {
		t.Fatalf("pick 1 routed to %v", first)
	}
	second := cache.Route(0, 1, drawRNG(300, 257))
	if len(second) != 1 || second[0] != f.linkFor(257) {
		t.Fatalf("pick 257 returned link %d — aliased with pick 1's cached route", second[0])
	}

	// Variable-length sequences: [5] then [0, 5] for the same (src, dst).
	fv := newCollideFabric(16, true)
	cachev := NewRouteCache(fv)
	one := cachev.Route(0, 1, drawRNG(16, 5))
	if len(one) != 1 || one[0] != fv.linkFor(5) {
		t.Fatalf("draw [5] routed to %v", one)
	}
	two := cachev.Route(0, 1, drawRNG(16, 0, 5))
	if len(two) != 2 || two[0] != fv.linkFor(0) || two[1] != fv.linkFor(5) {
		t.Fatalf("draw [0,5] returned %d link(s) — aliased with draw [5]'s cached route", len(two))
	}
	// In-range draws on the same fabric still memoize.
	if cachev.Len() == 0 {
		t.Error("in-range draws were not cached")
	}
}

// TestRouteCacheHighRadixUncached is the 8-bit draw-packing regression for
// high-radix fabrics: any pick >= 256 must route uncached — correct links,
// nothing memoized under an aliasing key — while in-range picks on the same
// fabric keep memoizing.
func TestRouteCacheHighRadixUncached(t *testing.T) {
	f := newCollideFabric(300, false)
	cache := NewRouteCache(f)
	for _, pick := range []int{256, 257, 299} {
		for round := 0; round < 2; round++ {
			got := cache.Route(0, 1, drawRNG(300, pick))
			if len(got) != 1 || got[0] != f.linkFor(pick) {
				t.Fatalf("pick %d round %d routed to %v, want link %d", pick, round, got, f.linkFor(pick))
			}
		}
		if cache.Len() != 0 {
			t.Fatalf("pick %d was memoized; high-radix draws must route uncached", pick)
		}
	}
	if got := cache.Route(0, 1, drawRNG(300, 42)); len(got) != 1 || got[0] != f.linkFor(42) {
		t.Fatalf("in-range pick routed to %v", got)
	}
	if cache.Len() != 1 {
		t.Errorf("in-range pick not memoized (len=%d)", cache.Len())
	}
	if _, misses, _ := cache.Stats(); misses < 7 {
		t.Errorf("uncached routes must count as misses (misses=%d)", misses)
	}
}

// TestRouteCachePackGuard pins packDraws's fit contract directly.
func TestRouteCachePackGuard(t *testing.T) {
	if _, ok := packDraws([]int{0, 1, 255}); !ok {
		t.Error("in-range draws rejected")
	}
	if _, ok := packDraws([]int{256}); ok {
		t.Error("pick 256 accepted: would alias pick 0")
	}
	if _, ok := packDraws([]int{-1}); ok {
		t.Error("negative pick accepted")
	}
	if _, ok := packDraws(make([]int, maxCachedDraws+1)); ok {
		t.Error("draw sequence longer than the key accepted")
	}
	a, _ := packDraws([]int{1, 2})
	b, _ := packDraws([]int{2, 1})
	if a == b {
		t.Error("packing is order-insensitive")
	}
}

// TestLinkTableInvariants pins the table-wide structural contract every
// consumer leans on: cable pairing by Reverse, kind-bit mirroring, and the
// memory report.
func TestLinkTableInvariants(t *testing.T) {
	for _, name := range Names() {
		tab := MustNamed(name).Table()
		for id := 0; id < tab.Len(); id += 2 {
			fwd, rev := LinkID(id), Reverse(LinkID(id))
			if rev != LinkID(id)+1 || Reverse(rev) != fwd {
				t.Fatalf("%s: Reverse is not an involution at %d", name, id)
			}
			if tab.From[fwd] != tab.To[rev] || tab.To[fwd] != tab.From[rev] {
				t.Fatalf("%s: cable %d directions are not mirrored", name, tab.Cable[fwd])
			}
			if tab.Cable[fwd] != tab.Cable[rev] {
				t.Fatalf("%s: link pair %d has mismatched cables", name, id)
			}
			if tab.IsUp(rev) {
				t.Fatalf("%s: reverse link %d claims to ascend", name, id+1)
			}
			fromSw := tab.Kind[fwd]&LinkFromSwitch != 0
			if toSwRev := tab.Kind[rev]&LinkToSwitch != 0; fromSw != toSwRev {
				t.Fatalf("%s: kind bits of pair %d are not mirrored", name, id)
			}
		}
		if tab.Bytes() != int64(tab.Len())*13 {
			t.Errorf("%s: Bytes() = %d, want %d (13 per directed link)", name, tab.Bytes(), tab.Len()*13)
		}
	}
}
