package multijob

import (
	"fmt"

	"ibpower/internal/topology"
)

// FreeList tracks which fabric terminals are free during a churn scenario
// and hands them out in the preference order a placement policy defines, so
// the same three policies that place a static job mix also govern where
// arriving jobs land: "linear" packs the lowest free terminals, "roundrobin"
// spreads across first-hop switches, "random" scatters per seed.
//
// Alloc and Release recycle terminal slices through an internal pool, so the
// steady state of a long scenario — jobs claiming and freeing terminals
// forever — allocates nothing (pinned by TestFreeListSteadyStateAllocs).
// A terminal can also be *down* — failed hardware, tracked as a counter
// because a terminal may be downed independently by its own fault and by its
// host switch's fault, and must stay excluded until every cause is repaired.
// Down terminals are never handed out by Alloc and do not count as free;
// Release of a down terminal (its occupant was killed) parks it until repair.
type FreeList struct {
	f      topology.Fabric
	order  []int  // policy preference order over every terminal
	busy   []bool // terminal -> occupied
	nfree  int
	down   []int32       // terminal -> overlapping fault count (0 = healthy)
	ndown  int           // terminals with down > 0
	swBusy map[int32]int // first-hop switch -> busy terminal count
	pool   [][]int       // recycled terminal slices
}

// NewFreeList returns a fully free list over the fabric whose Alloc order is
// the given permutation of its terminals (see Ordering).
func NewFreeList(f topology.Fabric, order []int) (*FreeList, error) {
	nt := f.NumTerminals()
	if len(order) != nt {
		return nil, fmt.Errorf("multijob: ordering covers %d of %d terminals", len(order), nt)
	}
	seen := make([]bool, nt)
	for _, t := range order {
		if t < 0 || t >= nt {
			return nil, fmt.Errorf("multijob: ordering names terminal %d, fabric has [0,%d)", t, nt)
		}
		if seen[t] {
			return nil, fmt.Errorf("multijob: ordering names terminal %d twice", t)
		}
		seen[t] = true
	}
	return &FreeList{
		f:      f,
		order:  append([]int(nil), order...),
		busy:   make([]bool, nt),
		nfree:  nt,
		down:   make([]int32, nt),
		swBusy: make(map[int32]int),
	}, nil
}

// Free returns how many terminals are currently free (healthy and idle).
func (fl *FreeList) Free() int { return fl.nfree }

// Down returns how many terminals are currently failed.
func (fl *FreeList) Down() int { return fl.ndown }

// Fail marks terminal t down under one more fault cause. An idle terminal
// leaves the free pool immediately; a busy one stays the caller's problem
// (the churn engine kills its occupant, whose Release then parks it).
func (fl *FreeList) Fail(t int) {
	fl.down[t]++
	if fl.down[t] == 1 {
		fl.ndown++
		if !fl.busy[t] {
			fl.nfree--
		}
	}
}

// Repair removes one fault cause from terminal t; the terminal re-enters the
// free pool once every overlapping cause is repaired.
func (fl *FreeList) Repair(t int) {
	if fl.down[t] == 0 {
		panic(fmt.Sprintf("multijob: repair of healthy terminal %d", t))
	}
	fl.down[t]--
	if fl.down[t] == 0 {
		fl.ndown--
		if !fl.busy[t] {
			fl.nfree++
		}
	}
}

// NumTerminals returns the fabric's terminal count.
func (fl *FreeList) NumTerminals() int { return len(fl.busy) }

// Alloc claims the first n free terminals in policy order and returns them,
// or nil when fewer than n are free. The returned slice belongs to the
// free-list's pool: hand it back through Release, and copy it first if it
// must outlive the occupancy.
func (fl *FreeList) Alloc(n int) []int {
	if n <= 0 || n > fl.nfree {
		return nil
	}
	out := fl.take(n)
	for _, t := range fl.order {
		if fl.busy[t] || fl.down[t] > 0 {
			continue
		}
		out = append(out, t)
		fl.busy[t] = true
		fl.swBusy[topology.HostSwitch(fl.f, t)]++
		if len(out) == n {
			break
		}
	}
	fl.nfree -= n
	return out
}

// PeekAlloc returns the terminals the next Alloc(n) would claim, without
// claiming them; nil when fewer than n are free. The slice is freshly
// allocated and owned by the caller (schedulers use it for what-if scoring).
func (fl *FreeList) PeekAlloc(n int) []int {
	if n <= 0 || n > fl.nfree {
		return nil
	}
	out := make([]int, 0, n)
	for _, t := range fl.order {
		if fl.busy[t] || fl.down[t] > 0 {
			continue
		}
		out = append(out, t)
		if len(out) == n {
			break
		}
	}
	return out
}

// Release frees previously allocated terminals and recycles the slice. It
// panics on a terminal that is not currently busy: a double release means
// the caller's scheduling loop lost track of an occupancy, which would
// silently double-book host links if ignored.
func (fl *FreeList) Release(terms []int) {
	for _, t := range terms {
		if t < 0 || t >= len(fl.busy) || !fl.busy[t] {
			panic(fmt.Sprintf("multijob: release of free terminal %d", t))
		}
		fl.busy[t] = false
		fl.swBusy[topology.HostSwitch(fl.f, t)]--
		if fl.down[t] == 0 {
			fl.nfree++
		}
	}
	fl.pool = append(fl.pool, terms[:0])
}

// IdleSwitches counts the distinct first-hop switches among terms that are
// currently fully idle — no busy terminal hosted. Power-aware scheduling
// minimizes this: admitting a job onto already-woken switches preserves the
// fabric's idle-link coverage.
func (fl *FreeList) IdleSwitches(terms []int) int {
	idle := 0
	seen := make(map[int32]bool, len(terms))
	for _, t := range terms {
		sw := topology.HostSwitch(fl.f, t)
		if seen[sw] {
			continue
		}
		seen[sw] = true
		if fl.swBusy[sw] == 0 {
			idle++
		}
	}
	return idle
}

// Clone returns an independent copy sharing only the immutable ordering —
// what-if planning material for schedulers. The clone's pool starts empty.
func (fl *FreeList) Clone() *FreeList {
	sw := make(map[int32]int, len(fl.swBusy))
	for k, v := range fl.swBusy {
		sw[k] = v
	}
	return &FreeList{
		f:      fl.f,
		order:  fl.order,
		busy:   append([]bool(nil), fl.busy...),
		nfree:  fl.nfree,
		down:   append([]int32(nil), fl.down...),
		ndown:  fl.ndown,
		swBusy: sw,
	}
}

// take pops a pooled slice with capacity n, or grows a fresh one.
func (fl *FreeList) take(n int) []int {
	for i, s := range fl.pool {
		if cap(s) >= n {
			last := len(fl.pool) - 1
			fl.pool[i] = fl.pool[last]
			fl.pool[last] = nil
			fl.pool = fl.pool[:last]
			return s[:0]
		}
	}
	return make([]int, 0, n)
}
