package multijob

import (
	"math/rand"

	"ibpower/internal/registry"
	"ibpower/internal/topology"
)

// PlaceFunc is a placement policy: given the fabric, it returns a preference
// order over every terminal — a permutation of 0..NumTerminals()-1 — that
// the terminal free-list allocates from, first free terminal first. A static
// job mix therefore lands on consecutive blocks of the order, and a churn
// scenario's arrivals on the first free terminals of it. The order must be
// deterministic for a given (fabric, seed): placement is part of the
// simulation's reproducibility contract. NewFreeList rejects an order that
// is not a permutation.
type PlaceFunc func(f topology.Fabric, seed int64) []int

// DefaultPlacement is the registry entry used when no policy is named:
// contiguous terminal blocks, the way batch schedulers fill an idle machine.
const DefaultPlacement = "linear"

var placements = registry.New[PlaceFunc]("multijob", "placement", DefaultPlacement)

// Register adds a placement policy under name. It panics on an empty name, a
// nil policy, or a duplicate registration.
func Register(name string, fn PlaceFunc) { placements.Register(name, fn) }

// Names returns the registered placement policy names, sorted.
func Names() []string { return placements.Names() }

// CheckRegistered returns a descriptive error naming the whole registry when
// name does not resolve (the empty name resolves to DefaultPlacement), so a
// typo'd -placement flag tells the user what would have worked.
func CheckRegistered(name string) error { return placements.Check(name) }

// Ordering returns the named placement policy's preference order over every
// terminal of the fabric (the empty name selects DefaultPlacement).
func Ordering(placement string, f topology.Fabric, seed int64) ([]int, error) {
	fn, err := placements.Get(placement)
	if err != nil {
		return nil, err
	}
	return fn(f, seed), nil
}

// The preset registry.
func init() {
	// linear: contiguous terminal blocks in fabric order. Jobs pack onto as
	// few first-hop switches as possible, so each job mostly keeps its
	// switch neighborhood to itself — the friendliest sharing for the idle
	// predictor, and the policy a slurm-style scheduler approximates on an
	// empty machine.
	Register("linear", func(f topology.Fabric, _ int64) []int {
		order := make([]int, f.NumTerminals())
		for t := range order {
			order[t] = t
		}
		return order
	})
	// random: a seeded shuffle of all terminals, consumed in job order — the
	// fragmented machine after months of job churn. Deterministic per seed.
	Register("random", func(f topology.Fabric, seed int64) []int {
		return rand.New(rand.NewSource(seed)).Perm(f.NumTerminals())
	})
	// roundrobin: terminals are consumed by cycling over the first-hop
	// switches, so consecutive ranks — and the jobs themselves — interleave
	// across the whole edge of the fabric. Every switch hosts a slice of
	// every job: maximum neighbor diversity, the adversarial case for
	// idle-window prediction.
	Register("roundrobin", func(f topology.Fabric, _ int64) []int {
		groups := make(map[int32][]int)
		var sw []int32 // first-hop switch node IDs in first-appearance order
		for t := 0; t < f.NumTerminals(); t++ {
			s := topology.HostSwitch(f, t)
			if _, ok := groups[s]; !ok {
				sw = append(sw, s)
			}
			groups[s] = append(groups[s], t)
		}
		order := make([]int, 0, f.NumTerminals())
		for round := 0; len(order) < f.NumTerminals(); round++ {
			for _, s := range sw {
				if g := groups[s]; round < len(g) {
					order = append(order, g[round])
				}
			}
		}
		return order
	})
}
