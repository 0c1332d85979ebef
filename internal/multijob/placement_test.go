package multijob

import (
	"reflect"
	"strings"
	"testing"

	"ibpower/internal/registrytest"
	"ibpower/internal/topology"
)

// allocBlocks places a job mix the way a static multijob run does: the
// named policy's ordering feeds a fresh free-list, and each job, in order,
// claims the next sizes[j] free terminals.
func allocBlocks(t *testing.T, placement string, f topology.Fabric, sizes []int, seed int64) [][]int {
	t.Helper()
	order, err := Ordering(placement, f, seed)
	if err != nil {
		t.Fatal(err)
	}
	fl, err := NewFreeList(f, order)
	if err != nil {
		t.Fatalf("%s on %s: %v", placement, f.Name(), err)
	}
	terms := make([][]int, len(sizes))
	for j, n := range sizes {
		ts := fl.Alloc(n)
		if ts == nil {
			t.Fatalf("%s on %s: job %d (%d ranks) did not fit", placement, f.Name(), j, n)
		}
		terms[j] = append([]int(nil), ts...)
	}
	return terms
}

// TestPlacementInvariants runs every registered policy over every registered
// fabric and checks the contract the free-list relies on: the ordering is a
// permutation of the fabric's terminals, so a mix allocated from it maps
// every rank, stays in range, and never shares a terminal between ranks or
// jobs.
func TestPlacementInvariants(t *testing.T) {
	sizes := []int{16, 9, 32, 8}
	for _, fname := range topology.Names() {
		f, err := topology.Named(fname)
		if err != nil {
			t.Fatal(err)
		}
		for _, pname := range Names() {
			terms := allocBlocks(t, pname, f, sizes, 7)
			seen := make(map[int]bool)
			for j, ts := range terms {
				if len(ts) != sizes[j] {
					t.Errorf("%s on %s: job %d got %d terminals, want %d",
						pname, fname, j, len(ts), sizes[j])
				}
				for _, term := range ts {
					if term < 0 || term >= f.NumTerminals() {
						t.Errorf("%s on %s: terminal %d out of range", pname, fname, term)
					}
					if seen[term] {
						t.Errorf("%s on %s: terminal %d assigned twice", pname, fname, term)
					}
					seen[term] = true
				}
			}
		}
	}
}

// TestRandomPlacementDeterministicPerSeed pins the "random" policy's
// reproducibility contract: same seed, same ordering; different seed,
// different ordering.
func TestRandomPlacementDeterministicPerSeed(t *testing.T) {
	f := topology.Paper()
	sizes := []int{64, 16}
	a := allocBlocks(t, "random", f, sizes, 42)
	b := allocBlocks(t, "random", f, sizes, 42)
	if !reflect.DeepEqual(a, b) {
		t.Error("random placement differs for identical seeds")
	}
	c := allocBlocks(t, "random", f, sizes, 43)
	if reflect.DeepEqual(a, c) {
		t.Error("random placement identical across different seeds")
	}
}

// TestLinearPlacementIsContiguous asserts linear hands out contiguous
// terminal blocks in job order — the identity placement replay.Run uses when
// a single job has the fabric to itself.
func TestLinearPlacementIsContiguous(t *testing.T) {
	f := topology.Paper()
	next := 0
	for j, ts := range allocBlocks(t, "linear", f, []int{8, 4}, 0) {
		for r, term := range ts {
			if term != next {
				t.Fatalf("job %d rank %d on terminal %d, want %d", j, r, term, next)
			}
			next++
		}
	}
}

// TestRoundRobinSpreadsAcrossSwitches asserts consecutive ranks land on
// distinct first-hop switches (while distinct switches remain), the whole
// point of the interleaving policy.
func TestRoundRobinSpreadsAcrossSwitches(t *testing.T) {
	f := topology.Paper() // 14 leaf switches, 18 terminals each
	seen := make(map[int32]bool)
	for r, term := range allocBlocks(t, "roundrobin", f, []int{14}, 0)[0] {
		sw := topology.HostSwitch(f, term)
		if seen[sw] {
			t.Errorf("rank %d landed on already-used switch %d before all switches were visited", r, sw)
		}
		seen[sw] = true
	}
	if len(seen) != 14 {
		t.Errorf("14 interleaved ranks span %d switches, want 14", len(seen))
	}
}

// TestPlaceErrors covers the placement error paths the shared registry
// contract does not reach: an unknown name through Ordering itself, and an
// ordering that breaks the permutation contract, which NewFreeList refuses
// before any job could be placed from it.
func TestPlaceErrors(t *testing.T) {
	f := topology.Paper()
	if _, err := Ordering("nosuch", f, 0); err == nil ||
		!strings.Contains(err.Error(), "unknown placement") ||
		!strings.Contains(err.Error(), "roundrobin") {
		t.Errorf("unknown policy: error %v, want the registry listed", err)
	}
	order, err := Ordering("linear", f, 0)
	if err != nil {
		t.Fatal(err)
	}
	dup := append([]int(nil), order...)
	dup[1] = dup[0]
	for name, c := range map[string]struct {
		order []int
		want  string
	}{
		"short":     {order[:10], "covers 10 of 252 terminals"},
		"duplicate": {dup, "terminal 0 twice"},
	} {
		if _, err := NewFreeList(f, c.order); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s ordering: error %v, want substring %q", name, err, c.want)
		}
	}
}

// TestRegistryContract runs the shared registry property test. The
// throwaway entries it registers delegate to the linear policy, so
// TestPlacementInvariants keeps passing over them.
func TestRegistryContract(t *testing.T) {
	registrytest.Run(t, registrytest.Registry{
		Kind:    "placement",
		Default: DefaultPlacement,
		Names:   Names,
		Check:   CheckRegistered,
		RegisterValid: func(name string) {
			Register(name, func(f topology.Fabric, seed int64) []int {
				order, err := Ordering("linear", f, seed)
				if err != nil {
					panic(err)
				}
				return order
			})
		},
		RegisterNil: func(name string) { Register(name, nil) },
	})
}
