package topology

import (
	"math/rand"
	"sync"

	"ibpower/internal/registry"
)

// Fabric is the interconnect abstraction the network model times transfers
// over. The paper evaluates its mechanism on a single XGFT(2;18,14;1,18) fat
// tree, but the prediction mechanism itself is topology-agnostic: everything
// above this package only needs terminals, directed links, and a routing
// function. Implementations are immutable after construction, so one instance
// can be shared by every replay engine and concurrent sweep point.
//
// Links are identified by dense LinkIDs into the fabric's LinkTable — paths
// are []LinkID and per-link state lives in flat slices sized by NumLinks().
//
// Routing is split into three methods so fault-aware routing (FaultRouter)
// can choose a detour without disturbing the random-routing draw sequence:
//
//   - RouteIDsInto computes a path directly, drawing any random choices from
//     rng (the entry point every fault-free transfer takes).
//   - RouteDraws consumes from rng exactly the draws RouteIDsInto would make
//     for (src, dst) — same count, same order, same Intn arguments — and
//     records each pick. Timings driven by a shared RNG therefore stay
//     bit-identical whether a path comes from RouteIDsInto or from recorded
//     draws (a detour, or the RouteCache).
//   - RouteIDsFromDraws deterministically reconstructs the path a recorded
//     draw sequence selects. For any rng state,
//     RouteIDsFromDraws(nil, s, d, RouteDraws(nil, s, d, rng)) must equal
//     RouteIDsInto(nil, s, d, rng') where rng' started in the same state.
//
// A nil rng must route deterministically (pick 0 / minimal), still recording
// the picks that reproduce that path.
type Fabric interface {
	// Name describes the concrete fabric instance (e.g. "xgft(2;18,14;1,18)").
	Name() string
	// NumTerminals returns the number of compute endpoints. Terminals are
	// addressed 0..NumTerminals()-1 and carry one MPI process each.
	NumTerminals() int
	// NumSwitches returns the number of switching elements.
	NumSwitches() int
	// NumCables returns the number of physical cables; every cable is two
	// directed links.
	NumCables() int
	// NumLinks returns the number of directed links (2*NumCables). LinkIDs
	// are dense in [0, NumLinks()), so per-link state arrays are sized by it.
	NumLinks() int
	// Table returns the fabric's compact link table, shared and immutable.
	Table() *LinkTable
	// HostLinkID returns the directed link from terminal t into its
	// first-hop switch — the link the power mechanism manages.
	HostLinkID(t int) LinkID
	// RouteIDsInto appends the directed links of a valid adjacent-link path
	// from terminal src to terminal dst and returns the extended slice.
	// src == dst appends nothing.
	RouteIDsInto(buf []LinkID, src, dst int, rng *rand.Rand) []LinkID
	// RouteDraws appends the random picks RouteIDsInto would draw from rng
	// for (src, dst), consuming rng identically, and returns the extended
	// slice.
	RouteDraws(draws []int, src, dst int, rng *rand.Rand) []int
	// RouteIDsFromDraws appends the path selected by a draw sequence
	// previously recorded by RouteDraws for the same (src, dst).
	RouteIDsFromDraws(buf []LinkID, src, dst int, draws []int) []LinkID
}

// RouteIDs returns a freshly allocated path over f (convenience wrapper over
// RouteIDsInto).
func RouteIDs(f Fabric, src, dst int, rng *rand.Rand) []LinkID {
	return f.RouteIDsInto(nil, src, dst, rng)
}

// DefaultFabric is the registry entry used when no fabric is named: the
// paper's XGFT(2;18,14;1,18).
const DefaultFabric = "xgft"

var fabrics = registry.New[func() (Fabric, error)]("topology", "fabric", DefaultFabric)

// Register adds a fabric constructor under name. It panics on an empty name,
// a nil constructor, or a duplicate registration. The built instance is
// memoized: fabrics are immutable after construction, so Named returns the
// same shared Fabric for every lookup of name.
func Register(name string, build func() (Fabric, error)) {
	if build != nil {
		build = sync.OnceValues(build)
	}
	fabrics.Register(name, build)
}

// Names returns the registered fabric names, sorted.
func Names() []string { return fabrics.Names() }

// CheckRegistered returns a descriptive error naming the whole registry when
// name does not resolve (the empty name resolves to DefaultFabric), so a
// typo'd -topo flag tells the user what would have worked. It is the single
// validation every layer (replay config, harness, CLI) shares.
func CheckRegistered(name string) error { return fabrics.Check(name) }

// Named returns the shared instance of the named fabric, building it on
// first use; the empty name selects DefaultFabric.
func Named(name string) (Fabric, error) {
	build, err := fabrics.Get(name)
	if err != nil {
		return nil, err
	}
	return build()
}

// MustNamed is Named, panicking on errors (for preset names validated up
// front).
func MustNamed(name string) Fabric {
	f, err := Named(name)
	if err != nil {
		panic(err)
	}
	return f
}

// The preset registry. Every non-paper preset has at least 144 terminals so
// the full evaluation grid (up to 128 processes) runs on any of them.
func init() {
	// The paper's fabric (Table II).
	Register(DefaultFabric, func() (Fabric, error) { return Paper(), nil })
	// A three-level fat tree: XGFT(3;6,6,4;1,4,4), 144 terminals. Cross-tree
	// routes draw up-link choices at two levels, exercising multi-draw route
	// keys in the cache.
	Register("xgft3", func() (Fabric, error) { return New(3, []int{6, 6, 4}, []int{1, 4, 4}) })
	// A balanced dragonfly: 4 terminals per router, 4 routers per group,
	// 2 global links per router -> 9 fully connected groups, 144 terminals.
	Register("dragonfly", func() (Fabric, error) { return NewDragonfly(4, 4, 2) })
	// Tori with dimension-order routing, 144 routers x 1 terminal each.
	Register("torus2d", func() (Fabric, error) { return NewTorus([]int{12, 12}, 1) })
	Register("torus3d", func() (Fabric, error) { return NewTorus([]int{6, 6, 4}, 1) })
	// Supercomputer-scale presets for the scale axis of the evaluation.
	// xgft3-big: a full-bisection three-level fat tree XGFT(3;20,20,20;1,20,20)
	// — 8000 terminals, 1200 switches, 24000 cables; cross-tree routes draw
	// two Intn(20) picks, still well inside the cache's 8-bit draw fields.
	Register("xgft3-big", func() (Fabric, error) { return New(3, []int{20, 20, 20}, []int{1, 20, 20}) })
	// dragonfly-big: a balanced dragonfly with 8 terminals per router, 16
	// routers per group and 4 global links per router -> 65 groups, 8320
	// terminals, 18200 cables. The Valiant draw is Intn(65), cache-packable.
	Register("dragonfly-big", func() (Fabric, error) { return NewDragonfly(8, 16, 4) })
}
