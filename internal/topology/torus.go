package topology

import (
	"fmt"
	"math/rand"
)

// Torus is a k-ary n-dimensional torus of routers with P terminals each and
// deterministic dimension-order routing: each route corrects dimension 0
// first, then dimension 1, and so on, always travelling around the shorter
// arc of the ring (ties break toward +). Routing consumes no RNG draws, so
// every (src, dst) pair has exactly one path. Routers are row-major indices
// over Dims; the ring adjacency is two flat LinkID arrays, and per-(router,
// dim) neighbour and coordinate tables let routing walk a ring without a
// divide or modulo per hop.
type Torus struct {
	Dims []int // ring length per dimension; each >= 2
	P    int   // terminals per router

	tab LinkTable

	hostUp      []LinkID // per terminal: the up-link into its router
	plus, minus []LinkID // per (router*len(Dims)+dim): directed ring links
	next, prev  []int32  // per (router*len(Dims)+dim): ring neighbour routers
	coord       []int32  // per (router*len(Dims)+dim): the router's coordinate
}

// NewTorus builds the torus with the given per-dimension ring lengths and p
// terminals per router.
func NewTorus(dims []int, p int) (*Torus, error) {
	if len(dims) == 0 {
		return nil, fmt.Errorf("topology: torus needs at least one dimension")
	}
	if p < 1 {
		return nil, fmt.Errorf("topology: non-positive terminals per router %d", p)
	}
	n := 1
	for i, d := range dims {
		if d < 2 {
			return nil, fmt.Errorf("topology: torus dimension %d has length %d < 2", i, d)
		}
		n *= d
	}
	t := &Torus{Dims: append([]int(nil), dims...), P: p}
	nd := len(dims)
	t.next = make([]int32, n*nd)
	t.prev = make([]int32, n*nd)
	t.coord = make([]int32, n*nd)
	for r := 0; r < n; r++ {
		stride := 1
		for d, size := range dims {
			c := (r / stride) % size
			t.coord[r*nd+d] = int32(c)
			t.next[r*nd+d] = int32(r + ((c+1)%size-c)*stride)
			t.prev[r*nd+d] = int32(r + ((c+size-1)%size-c)*stride)
			stride *= size
		}
	}

	// Node IDs follow construction order: router r at r*(p+1), immediately
	// followed by its p terminals. Host cable index = terminal index.
	routerNode := func(r int) int32 { return int32(r * (p + 1)) }
	t.hostUp = make([]LinkID, n*p)
	for r := 0; r < n; r++ {
		for k := 0; k < p; k++ {
			t.hostUp[r*p+k] = t.tab.addCable(routerNode(r)+1+int32(k), routerNode(r), LinkToSwitch|LinkUp)
		}
	}
	// Ring cables: one +1-direction cable per (router, dimension); the -1
	// neighbour's link is the reverse direction of that neighbour's cable.
	// A length-2 ring yields two parallel cables between the pair (one per
	// endpoint), the standard double-link degenerate torus.
	t.plus = make([]LinkID, n*nd)
	t.minus = make([]LinkID, n*nd)
	for i := range t.plus {
		t.plus[i] = t.tab.addCable(routerNode(i/nd), routerNode(int(t.next[i])), LinkFromSwitch|LinkToSwitch)
	}
	for i := range t.minus {
		// prev's +1 cable points at r; its reverse runs r -> prev.
		t.minus[i] = Reverse(t.plus[int(t.prev[i])*nd+i%nd])
	}
	return t, nil
}

// Name describes the instance.
func (t *Torus) Name() string {
	name := "torus("
	for i, d := range t.Dims {
		if i > 0 {
			name += "x"
		}
		name += fmt.Sprint(d)
	}
	return fmt.Sprintf("%s,p=%d)", name, t.P)
}

// NumTerminals returns the terminal count.
func (t *Torus) NumTerminals() int { return len(t.hostUp) }

// NumSwitches returns the router count.
func (t *Torus) NumSwitches() int { return len(t.plus) / len(t.Dims) }

// NumCables returns the physical cable count.
func (t *Torus) NumCables() int { return t.tab.NumCables() }

// NumLinks returns the directed link count.
func (t *Torus) NumLinks() int { return t.tab.Len() }

// Table returns the fabric's compact link table.
func (t *Torus) Table() *LinkTable { return &t.tab }

// RoutingBytes returns the resident size of the flat adjacency and ring
// tables.
func (t *Torus) RoutingBytes() int64 {
	return 4 * int64(len(t.hostUp)+len(t.plus)+len(t.minus)+len(t.next)+len(t.prev)+len(t.coord))
}

// HostLinkID returns the directed link from terminal i into its router.
func (t *Torus) HostLinkID(i int) LinkID { return t.hostUp[i] }

// RouteIDsInto appends the dimension-order path from src to dst. The rng is
// never consulted: dimension-order routing is deterministic.
func (t *Torus) RouteIDsInto(buf []LinkID, src, dst int, _ *rand.Rand) []LinkID {
	if src == dst {
		return buf
	}
	buf = append(buf, t.hostUp[src])
	cur, target := src/t.P, dst/t.P
	nd := len(t.Dims)
	for d, size := range t.Dims {
		delta := int(t.coord[target*nd+d] - t.coord[cur*nd+d])
		if delta < 0 {
			delta += size
		}
		// Travel the shorter arc; an exact half-ring tie keeps the +
		// direction so routing stays deterministic.
		if size-delta < delta {
			for s := delta; s < size; s++ {
				buf = append(buf, t.minus[cur*nd+d])
				cur = int(t.prev[cur*nd+d])
			}
		} else {
			for s := 0; s < delta; s++ {
				buf = append(buf, t.plus[cur*nd+d])
				cur = int(t.next[cur*nd+d])
			}
		}
	}
	return append(buf, Reverse(t.hostUp[dst]))
}

// RouteDraws appends nothing: torus routing never consumes the RNG.
func (t *Torus) RouteDraws(draws []int, _, _ int, _ *rand.Rand) []int { return draws }

// RouteIDsFromDraws appends the (unique) dimension-order path.
func (t *Torus) RouteIDsFromDraws(buf []LinkID, src, dst int, _ []int) []LinkID {
	return t.RouteIDsInto(buf, src, dst, nil)
}
