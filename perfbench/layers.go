package main

import (
	"fmt"
	"math/rand"
	"time"

	"ibpower/internal/multijob"
	"ibpower/internal/network"
	"ibpower/internal/predictor"
	"ibpower/internal/scenario"
	"ibpower/internal/topology"
	"ibpower/internal/trace"
)

// probePairs is how many terminal pairs each fabric probe routes.
const probePairs = 1 << 18

// layerMetrics turns the traced run's spans and counters into per-layer
// metrics, and adds probes timed after the run: cursor decode, one offline
// predictor pass per trace, and routing and transfers on the workload's
// fabric. A layer the workload never calls reports 0.
func layerMetrics(in *input, tr *tracer) (map[string]float64, error) {
	tot := tr.totals()
	get := func(name string) *layerTotals {
		if lt := tot[name]; lt != nil {
			return lt
		}
		return &layerTotals{}
	}
	sec := func(name string) float64 { return get(name).total }
	replayed := in.baseEvents + in.powerEvents
	m := map[string]float64{
		"workloads.generate_ns_per_op": nsPer(sec("workloads.generate"), in.genOps),
		"trace.pack_s":                 sec("trace.pack"),
		"harness.choose_gt_s":          sec("harness.choose_gt"),
		"replay.baseline_ns_per_event": nsPer(sec("replay.baseline"), in.baseEvents),
		"replay.power_ns_per_event":    nsPer(sec("replay.power"), in.powerEvents),
		"replay.allocs_per_event":      ratio(float64(get("replay.baseline").allocs+get("replay.power").allocs), replayed),
		"replay.transfers":             float64(in.transfers),
		"network.unroutable":           float64(in.unroutable),
		"topology.build_s":             sec("topology.build"),
		"multijob.churn_self_s":        get("scenario.run").self,
		"multijob.select_gt_s":         sec("multijob.select_gt"),
		"multijob.dedicated_s":         sec("multijob.dedicated"),
		"multijob.generate_s":          sec("multijob.generate"),
		"multijob.retry_pct":           in.retryPct,
		"scenario.expand_s":            sec("scenario.expand"),
	}

	calls, err := probeDecode(in.sources, m)
	if err != nil {
		return nil, err
	}
	if err := probeOffline(in.sources, in.gts, calls, m); err != nil {
		return nil, err
	}
	faults, pairs, err := fabricStream(in)
	if err != nil {
		return nil, err
	}
	if err := probeFabric(in, faults, pairs, m); err != nil {
		return nil, err
	}
	return m, nil
}

func ratio(x float64, n int64) float64 {
	if n == 0 {
		return 0
	}
	return x / float64(n)
}

func nsPer(seconds float64, n int64) float64 { return ratio(seconds*1e9, n) }

// probeDecode drains every rank of the sources the workflow read (in-memory
// traces, or packed-file cursors on churn-big) and returns each source's MPI
// call count.
func probeDecode(srcs []trace.Source, m map[string]float64) ([]int64, error) {
	calls := make([]int64, len(srcs))
	var ops int64
	start := time.Now()
	for i, src := range srcs {
		for r := 0; r < src.Meta().NP; r++ {
			c := src.Open(r)
			for op, ok := c.Next(); ok; op, ok = c.Next() {
				ops++
				if op.Kind == trace.OpCall {
					calls[i]++
				}
			}
			if err := c.Err(); err != nil {
				return nil, err
			}
		}
	}
	m["trace.decode_ns_per_op"] = nsPer(time.Since(start).Seconds(), ops)
	return calls, nil
}

// probeOffline times one offline predictor pass per source at the threshold
// the workflow chose for it: the unit harness.ChooseGT repeats per grid
// point.
func probeOffline(srcs []trace.Source, gts []time.Duration, calls []int64, m map[string]float64) error {
	var n int64
	start := time.Now()
	for i, src := range srcs {
		if _, err := predictor.RunOffline(src, predictor.Config{GT: gts[i], Displacement: displacement}); err != nil {
			return err
		}
		n += calls[i]
	}
	m["predictor.offline_ns_per_call"] = nsPer(time.Since(start).Seconds(), n)
	return nil
}

// pair is one message of a probe stream.
type pair struct{ src, dst, bytes int }

// fabricStream returns the fault set and terminal-pair stream the workload's
// fabric sees. Without an arrival stream (the grid workloads) each job runs
// alone from terminal 0 on a healthy fabric, so the stream is the
// point-to-point sends of the traces. churn-big places jobs at random on
// xgft3-big, so its stream is uniform random pairs, under the failures its
// fault stream injects before the first repair.
func fabricStream(in *input) (*topology.FaultSet, []pair, error) {
	fs := topology.NewFaultSet(in.fabric)
	if in.arrivals == nil {
		return fs, tracePairs(in.sources), nil
	}
	stream, err := scenario.NewFaultStream(in.spec.Faults, in.fabric, in.spec.Seed)
	if err != nil {
		return nil, nil, err
	}
	for ev, ok := stream.Peek(); ok && !ev.Repair; ev, ok = stream.Peek() {
		stream.Pop()
		switch ev.Kind {
		case multijob.FaultLink:
			fs.FailLink(topology.LinkID(ev.Index))
		case multijob.FaultSwitch:
			fs.FailNode(ev.Index)
		case multijob.FaultTerminal:
			fs.FailLink(in.fabric.HostLinkID(int(ev.Index)))
		}
	}
	rng := rand.New(rand.NewSource(in.seed))
	nt := in.fabric.NumTerminals()
	pairs := make([]pair, probePairs)
	for i := range pairs {
		s, d := rng.Intn(nt), rng.Intn(nt-1)
		if d >= s {
			d++
		}
		pairs[i] = pair{s, d, 16 << 10}
	}
	return fs, pairs, nil
}

// tracePairs collects the point-to-point sends of the sources, rank r on
// terminal r, thinned evenly to at most probePairs.
func tracePairs(srcs []trace.Source) []pair {
	var all []pair
	for _, src := range srcs {
		for r := 0; r < src.Meta().NP; r++ {
			c := src.Open(r)
			for op, ok := c.Next(); ok; op, ok = c.Next() {
				switch op.Call {
				case trace.CallSend, trace.CallIsend, trace.CallSendrecv:
					all = append(all, pair{r, op.Peer, op.Bytes})
				}
			}
		}
	}
	if len(all) <= probePairs {
		return all
	}
	out := make([]pair, probePairs)
	for i := range out {
		out[i] = all[i*len(all)/probePairs]
	}
	return out
}

// probeFabric times direct routing, the route cache, fault-aware routing
// and a network transfer over the pair stream.
func probeFabric(in *input, fs *topology.FaultSet, pairs []pair, m map[string]float64) error {
	f := in.fabric
	if len(pairs) == 0 {
		return fmt.Errorf("no terminal pairs to probe %s with", f.Name())
	}
	fr, ok := f.(topology.FaultRouter)
	if !ok {
		return fmt.Errorf("fabric %s has no fault-aware routing", f.Name())
	}
	newRNG := func() *rand.Rand { return rand.New(rand.NewSource(in.seed)) }

	var path []topology.LinkID
	rng := newRNG()
	m["topology.route_ns"] = timePer(pairs, func(p pair, _ int) {
		path = f.RouteIDsInto(path[:0], p.src, p.dst, rng)
	})

	cache := topology.NewRouteCache(f)
	rng = newRNG()
	m["topology.routecache_ns"] = timePer(pairs, func(p pair, _ int) {
		cache.Route(p.src, p.dst, rng)
	})
	hits, misses, _ := cache.Stats()
	m["topology.routecache_hit_pct"] = 100 * float64(hits) / float64(hits+misses)

	var draws []int
	rng = newRNG()
	m["topology.detour_ns"] = timePer(pairs, func(p pair, _ int) {
		draws = f.RouteDraws(draws[:0], p.src, p.dst, rng)
		path, _ = fr.RouteIDsAvoiding(path[:0], p.src, p.dst, draws, fs)
	})

	net, err := network.New(f, in.cfg.Net)
	if err != nil {
		return err
	}
	if err := net.SetFaults(fs); err != nil {
		return err
	}
	m["network.transfer_ns"] = timePer(pairs, func(p pair, i int) {
		net.Transfer(p.src, p.dst, p.bytes, time.Duration(i)*time.Microsecond)
	})
	return nil
}

// timePer returns the mean nanoseconds f takes per pair.
func timePer(pairs []pair, f func(p pair, i int)) float64 {
	start := time.Now()
	for i, p := range pairs {
		f(p, i)
	}
	return nsPer(time.Since(start).Seconds(), int64(len(pairs)))
}
