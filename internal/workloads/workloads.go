// Package workloads generates synthetic per-rank MPI traces that stand in
// for the paper's production traces of GROMACS, ALYA, WRF, NAS BT and NAS
// MG (Section IV-A).
//
// The generators model what the prediction mechanism actually observes —
// the per-process stream of (MPI call type, inter-communication interval) —
// with the statistical structure of each application:
//
//   - an iterative SPMD phase structure between initialization and
//     finalization phases;
//   - strong-scaling traces: per-rank computation shrinks ~1/NP while halo
//     message sizes shrink only with the subdomain surface (~NP^(-2/3)), so
//     communication becomes dominant at scale (the paper's explanation for
//     declining savings, Section IV-B);
//   - application-specific regularity: ALYA and NAS BT iterate almost
//     perfectly (93–98 % MPI call hit rates in Table III), GROMACS and WRF
//     alternate between several communication variants (42–59 % and 25–33 %),
//     NAS MG nests V-cycle levels with widely mixed idle-interval scales
//     (the 20–200 µs bucket of Table I).
//
// All generation is deterministic for a given (application, NP, Options).
package workloads

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"ibpower/internal/trace"
)

// Options tune trace generation.
type Options struct {
	Seed int64
	// IterScale multiplies the application's default iteration count;
	// 0 means 1.0. Benchmarks use small scales.
	IterScale float64
	// Weak selects weak scaling: per-rank computation and message sizes
	// stay at their reference values as the process count grows, instead of
	// shrinking (strong scaling, the paper's trace set). The paper expects
	// the mechanism "would be more effective for weak scaling than for
	// strong scaling runs" (Section III); the WeakScaling experiment tests
	// that claim.
	Weak bool

	// only restricts generation to a single rank (value rank+1; 0 generates
	// all ranks). Only NewSource sets it, which is why it is unexported:
	// callers' Options values always compare equal regardless of how the
	// trace is later streamed, so Options stays usable as a cache key.
	//
	// Restricting to one rank is exact, not approximate: structure decisions
	// draw from the shared rng at iteration level only (never per rank) and
	// per-rank timing draws from jit[r], seeded independently per rank — so
	// rank r of a filtered build is identical to rank r of a full build.
	only int

	// Presizing, set only by presized and unexported for the same reason.
	// Every builder round appends exactly one op to every emitted rank, so
	// a dry run (count set) emits no rank and counts the rounds into
	// *count; a real run given that count as rounds allocates each emitted
	// rank stream once, at its exact final length.
	count  *int
	rounds int
}

func (o Options) seed() int64 {
	if o.Seed == 0 {
		return 42
	}
	return o.Seed
}

func (o Options) iters(base int) int {
	s := o.IterScale
	if s <= 0 {
		s = 1
	}
	n := int(math.Round(float64(base) * s))
	if n < 4 {
		n = 4
	}
	return n
}

// Generator builds a trace for one application at a process count.
type Generator func(np int, opt Options) *trace.Trace

var registry = map[string]Generator{
	"gromacs": Gromacs,
	"alya":    Alya,
	"wrf":     WRF,
	"nasbt":   NASBT,
	"nasmg":   NASMG,
}

// Apps returns the registered application names, sorted.
func Apps() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Generate builds the trace for a registered application.
func Generate(app string, np int, opt Options) (*trace.Trace, error) {
	g, opt, err := presized(app, np, opt)
	if err != nil {
		return nil, err
	}
	return g(np, opt), nil
}

// presized resolves app's generator, checks np, and sets opt.rounds from a
// dry run. The dry run draws the shared structure rng exactly as a real run
// does and makes no per-rank jitter source, so it costs one pass of the
// structure loop.
func presized(app string, np int, opt Options) (Generator, Options, error) {
	g, ok := registry[app]
	if !ok {
		return nil, opt, fmt.Errorf("workloads: unknown application %q (have %v)", app, Apps())
	}
	if np < 2 {
		return nil, opt, fmt.Errorf("workloads: need at least 2 processes, got %d", np)
	}
	dry := opt
	dry.count = &opt.rounds
	g(np, dry)
	return g, opt, nil
}

// ProcCounts returns the process counts the paper evaluates for app:
// 8/16/32/64/128, except NAS BT which requires square counts (9/16/36/64/100).
func ProcCounts(app string) []int {
	if app == "nasbt" {
		return []int{9, 16, 36, 64, 100}
	}
	return []int{8, 16, 32, 64, 128}
}

// builder assembles SPMD traces with per-rank timing jitter. Structure
// decisions (communication variants) are shared by all ranks, as in an SPMD
// program; only computation durations jitter per rank.
type builder struct {
	tr    *trace.Trace
	np    int
	lo    int // first rank to emit (Options.only filter)
	hi    int // one past the last rank to emit
	weak  bool
	rng   *rand.Rand    // structure decisions, shared
	jit   []*rand.Rand  // per-rank compute jitter
	sigma float64       // relative jitter std deviation
	noise time.Duration // absolute per-burst noise floor (OS noise): does not shrink with problem size
	count *int          // rounds so far, one op per emitted rank each (Options.count in a dry run)
}

func newBuilder(app string, np int, opt Options, sigma float64, noise time.Duration) *builder {
	b := &builder{
		tr:    trace.New(app, np),
		np:    np,
		lo:    0,
		hi:    np,
		weak:  opt.Weak,
		rng:   rand.New(rand.NewSource(opt.seed())),
		jit:   make([]*rand.Rand, np),
		sigma: sigma,
		noise: noise,
	}
	if opt.only > 0 {
		b.lo, b.hi = opt.only-1, opt.only
	}
	if b.count = opt.count; b.count != nil {
		b.lo, b.hi = 0, 0
	} else {
		b.count = new(int)
	}
	for r := b.lo; r < b.hi; r++ {
		b.tr.Ranks[r] = make([]trace.Op, 0, opt.rounds)
		b.jit[r] = rand.New(rand.NewSource(opt.seed()*7919 + int64(r)*104729 + 13))
	}
	return b
}

// jitter perturbs d by a truncated normal relative factor plus a positive
// absolute noise term for rank r. The absolute term models OS/system noise,
// which does not shrink under strong scaling and is what makes
// synchronization losses dominate at large process counts.
func (b *builder) jitter(r int, d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	f := 1.0
	if b.sigma > 0 {
		f = 1 + b.sigma*clamp(b.jit[r].NormFloat64(), -3, 3)
		if f < 0.05 {
			f = 0.05
		}
	}
	out := time.Duration(float64(d) * f)
	// OS noise strikes long computation bursts (they expose more time to
	// preemption); sub-GT gram-internal gaps stay tight so that gram
	// formation is stable against the grouping threshold.
	if b.noise > 0 && d >= 64*time.Microsecond {
		n := time.Duration(math.Abs(b.jit[r].NormFloat64()) * float64(b.noise))
		out += n
	}
	return out
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// computeAll appends a jittered compute burst of mean d to every rank.
func (b *builder) computeAll(d time.Duration) {
	*b.count++
	for r := b.lo; r < b.hi; r++ {
		b.tr.Append(r, trace.Compute(b.jitter(r, d)))
	}
}

// ringExchange appends a ring sendrecv: every rank sends to (r+off) and
// receives from (r-off).
func (b *builder) ringExchange(off, bytes int) {
	*b.count++
	for r := b.lo; r < b.hi; r++ {
		to := (r + off) % b.np
		from := (r - off%b.np + b.np) % b.np
		b.tr.Append(r, trace.Sendrecv(to, from, bytes))
	}
}

// allreduce appends an allreduce on every rank.
func (b *builder) allreduce(bytes int) {
	*b.count++
	for r := b.lo; r < b.hi; r++ {
		b.tr.Append(r, trace.Allreduce(bytes))
	}
}

// barrier appends a barrier on every rank.
func (b *builder) barrier() {
	*b.count++
	for r := b.lo; r < b.hi; r++ {
		b.tr.Append(r, trace.Barrier())
	}
}

// bcast appends a broadcast from root.
func (b *builder) bcast(root, bytes int) {
	*b.count++
	for r := b.lo; r < b.hi; r++ {
		b.tr.Append(r, trace.Bcast(root, bytes))
	}
}

// haloBurst appends k ring sendrecvs separated by short gaps (all below any
// sensible GT), forming one gram.
func (b *builder) haloBurst(k, bytes int, gap time.Duration) {
	for i := 0; i < k; i++ {
		if i > 0 {
			b.computeAll(gap)
		}
		b.ringExchange(1+i%2, bytes)
	}
}

// amdahlScale returns per-rank computation under strong scaling with a
// serial fraction f: base · (f + (1-f)·refNP/np). Production traces never
// scale perfectly; the serial fraction keeps long idle intervals present at
// 128 processes, as the paper's Table I shows.
func amdahlScale(base time.Duration, refNP, np int, f float64) time.Duration {
	s := f + (1-f)*float64(refNP)/float64(np)
	return time.Duration(float64(base) * s)
}

// byteScale returns message bytes scaled as (refNP/np)^e. A 3-D domain
// decomposition gives e = 2/3 for halo surfaces; latency-bound or
// unstructured exchanges shrink much more slowly (small e), which is what
// makes communication dominate at scale in strong-scaling runs.
func byteScale(base, refNP, np int, e float64) int {
	s := math.Pow(float64(refNP)/float64(np), e)
	v := int(float64(base) * s)
	if v < 64 {
		v = 64
	}
	return v
}

// scaleTime applies the builder's scaling regime to a per-rank computation
// phase: Amdahl shrink under strong scaling, constant under weak scaling.
func (b *builder) scaleTime(base time.Duration, refNP int, f float64) time.Duration {
	if b.weak {
		return base
	}
	return amdahlScale(base, refNP, b.np, f)
}

// scaleBytes applies the scaling regime to a message size.
func (b *builder) scaleBytes(base, refNP int, e float64) int {
	if b.weak {
		return base
	}
	return byteScale(base, refNP, b.np, e)
}

// initPhase emits a common initialization phase: a broadcast of the input
// deck and a barrier, separated by setup computation. Its irregular timing
// exercises the "no prediction outside iterative phases" path.
func (b *builder) initPhase(setup time.Duration) {
	b.computeAll(setup)
	b.bcast(0, 1<<16)
	b.computeAll(setup / 2)
	b.barrier()
	b.computeAll(setup / 3)
}

// finalizePhase emits a reduction of results and a final barrier.
func (b *builder) finalizePhase(teardown time.Duration) {
	b.computeAll(teardown)
	*b.count++
	for r := b.lo; r < b.hi; r++ {
		b.tr.Append(r, trace.Reduce(0, 1<<13))
	}
	b.computeAll(teardown / 2)
	b.barrier()
}
