package network

import (
	"testing"
	"time"

	"ibpower/internal/topology"
)

// runTransfers drives a fixed transfer pattern and returns the arrival times.
func runTransfers(t *testing.T, n *Network) []time.Duration {
	t.Helper()
	nt := n.Topology().NumTerminals()
	var out []time.Duration
	var clock time.Duration
	for i := 0; i < 40; i++ {
		src := (i * 7) % nt
		dst := (i*13 + 5) % nt
		out = append(out, n.Transfer(src, dst, 4096, clock))
		clock += 500 * time.Nanosecond
	}
	return out
}

// TestTransferFaultFreeIdentical pins the network half of the determinism
// contract: attaching an EMPTY fault set must not change a single arrival
// time relative to the direct fault-free path — the fault layer consumes the
// routing RNG through RouteDraws, never an extra draw.
func TestTransferFaultFreeIdentical(t *testing.T) {
	topo := topology.Paper()
	base, err := New(topo, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := runTransfers(t, base)

	faulty, err := New(topo, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	fs := topology.NewFaultSet(topo)
	// Fail and repair a cable: the set is empty again, but the network has
	// a non-nil fault attachment — it must still bypass nothing.
	var s2s topology.LinkID = -1
	tab := topo.Table()
	for id := 0; id < tab.Len(); id += 2 {
		if tab.SwitchToSwitch(topology.LinkID(id)) {
			s2s = topology.LinkID(id)
			break
		}
	}
	fs.FailLink(s2s)
	fs.RepairLink(s2s)
	if err := faulty.SetFaults(fs); err != nil {
		t.Fatal(err)
	}
	got := runTransfers(t, faulty)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("transfer %d arrival differs with empty fault set: %v != %v", i, got[i], want[i])
		}
	}
	if faulty.Unroutable() != 0 {
		t.Fatalf("empty fault set produced %d unroutable transfers", faulty.Unroutable())
	}
}

// TestTransferWithFaultsDeterministic runs the same faulty workload twice
// and requires bit-identical arrivals, plus an alloc-free steady state on
// the degraded path.
func TestTransferWithFaultsDeterministic(t *testing.T) {
	topo := topology.Paper()
	mk := func() *Network {
		n, err := New(topo, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		fs := topology.NewFaultSet(topo)
		tab := topo.Table()
		failed := 0
		for id := 0; id < tab.Len() && failed < 5; id += 2 {
			if tab.SwitchToSwitch(topology.LinkID(id)) {
				fs.FailLink(topology.LinkID(id))
				failed++
			}
		}
		if err := n.SetFaults(fs); err != nil {
			t.Fatal(err)
		}
		return n
	}
	a, b := runTransfers(t, mk()), runTransfers(t, mk())
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("faulty transfer %d not deterministic: %v != %v", i, a[i], b[i])
		}
	}

	// Steady-state degraded transfers must not allocate.
	n := mk()
	runTransfers(t, n) // warm scratch buffers
	var clock time.Duration
	allocs := testing.AllocsPerRun(200, func() {
		n.Transfer(0, topo.NumTerminals()-1, 4096, clock)
		clock += time.Microsecond
	})
	if allocs != 0 {
		t.Errorf("degraded Transfer allocates %.1f/op, want 0", allocs)
	}
}

// TestTransferUnroutableFallback cuts every switch-to-switch cable: every
// cross-switch transfer is counted unroutable and timed over the healthy
// path instead of panicking or hanging.
func TestTransferUnroutableFallback(t *testing.T) {
	topo := topology.Paper()
	n, err := New(topo, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	fs := topology.NewFaultSet(topo)
	tab := topo.Table()
	for id := 0; id < tab.Len(); id += 2 {
		if tab.SwitchToSwitch(topology.LinkID(id)) {
			fs.FailLink(topology.LinkID(id))
		}
	}
	if err := n.SetFaults(fs); err != nil {
		t.Fatal(err)
	}
	n.Transfer(0, topo.NumTerminals()-1, 2048, 0)
	if n.Unroutable() != 1 {
		t.Fatalf("unroutable = %d, want 1", n.Unroutable())
	}
	n.Reset()
	if n.Unroutable() != 0 {
		t.Fatal("Reset must clear the unroutable counter")
	}
}
