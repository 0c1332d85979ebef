package predictor

import (
	"context"
	"time"

	"ibpower/internal/power"
	"ibpower/internal/sweep"
	"ibpower/internal/trace"
)

// RunOffline drives one predictor per rank over the trace without any
// network simulation: call timestamps are reconstructed from the recorded
// computation durations plus the mechanism's own modelled overheads, which
// is exactly the information the grouping threshold and PPA consume. The
// overhead insertion matters: a PPA invocation stretches the gap that
// follows it, which can push a gram-internal gap across the grouping
// threshold, so GT selection must see the same timing as the full replay.
// It is the one-config case of RunOfflineGrid, which the GT sweeps of
// Table III and Figure 10 call with the whole grid.
func RunOffline(src trace.Source, cfg Config) (*OfflineResult, error) {
	return RunOfflineOverheads(src, cfg, DefaultOverheads())
}

// OfflineResult carries per-rank predictor statistics plus the realized link
// power accounting of the network-free mechanism simulation.
type OfflineResult struct {
	Stats []Stats
	Acct  []power.Accounting
	Delay time.Duration // total reactivation delay suffered
	Exec  time.Duration // max rank finish time
}

// AvgHitRatePct averages the per-rank MPI call hit rates.
func (o *OfflineResult) AvgHitRatePct() float64 { return AvgHitRatePct(o.Stats) }

// TotalLow returns the summed realized low-power time across ranks.
func (o *OfflineResult) TotalLow() time.Duration {
	var l time.Duration
	for _, a := range o.Acct {
		l += a.Low
	}
	return l
}

// RunOfflineOverheads is RunOffline with an explicit overhead model. Each
// rank's stream drives a predictor and a link power controller: shutdown
// actions program the wake timer and early calls pay the reactivation delay,
// exactly as in the full replay minus network effects.
func RunOfflineOverheads(src trace.Source, cfg Config, ov OverheadModel) (*OfflineResult, error) {
	return RunOfflineNamed(DefaultName, src, cfg, ov)
}

// RunOfflineNamed is RunOfflineOverheads for any registered predictor, each
// rank built by NewForRank and driven call by call through Step. Predictors
// that never set Action.PPAInvoked are charged only the interception
// overhead per call.
func RunOfflineNamed(name string, src trace.Source, cfg Config, ov OverheadModel) (*OfflineResult, error) {
	out, err := RunOfflineGrid(name, src, []Config{cfg}, ov, 1)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// RunOfflineGrid is RunOfflineNamed for every config of cfgs in one pass:
// each rank's cursor is opened once and each op decoded once, advancing one
// predictor and one link power controller per config. Ranks run on a pool
// of at most workers goroutines (0 selects GOMAXPROCS, 1 is serial) and
// fold in rank order, so out[i] equals RunOfflineNamed(name, src, cfgs[i],
// ov) at every pool size.
func RunOfflineGrid(name string, src trace.Source, cfgs []Config, ov OverheadModel, workers int) ([]*OfflineResult, error) {
	if len(cfgs) == 0 {
		return nil, nil
	}
	np := src.Meta().NP
	out := make([]*OfflineResult, len(cfgs))
	for i := range out {
		out[i] = &OfflineResult{Stats: make([]Stats, np), Acct: make([]power.Accounting, np)}
	}
	ranks, err := sweep.Map(context.Background(), workers, make([]struct{}, np),
		func(_ context.Context, r int, _ struct{}) ([]lane, error) {
			return runRank(name, src, r, cfgs, ov, out)
		})
	if err != nil {
		return nil, err
	}
	for _, lanes := range ranks {
		for i, l := range lanes {
			out[i].Delay += l.ctrl.TotalDelay
			out[i].Exec = max(out[i].Exec, l.t)
		}
	}
	return out, nil
}

// lane is one config's predictor, controller and clock on one rank.
type lane struct {
	p    Predictor
	ctrl *power.Controller
	t    time.Duration
}

// runRank drives rank r under every config in lockstep, stores each
// config's statistics and accounting at index r of out (ranks never share
// an index, so pool workers need no lock), and returns the finished lanes.
func runRank(name string, src trace.Source, r int, cfgs []Config, ov OverheadModel, out []*OfflineResult) ([]lane, error) {
	ps, ops, primed, err := newForRank(name, cfgs, src, r)
	if err != nil {
		return nil, err
	}
	lanes := make([]lane, len(cfgs))
	for i, p := range ps {
		lanes[i] = lane{p: p, ctrl: power.NewController(cfgs[i].Treact)}
	}
	// A primed rank is already in memory: stream it from there rather than
	// opening the source a second time.
	cur := trace.SliceCursor(ops)
	if !primed {
		cur = src.Open(r)
	}
	for {
		op, ok := cur.Next()
		if !ok {
			break
		}
		switch op.Kind {
		case trace.OpCompute:
			for i := range lanes {
				lanes[i].t += op.Duration
			}
		case trace.OpCall:
			for i := range lanes {
				l := &lanes[i]
				// The link is acquired at call entry: with no network, that
				// is the only point a demand wake can be paid.
				l.t = l.ctrl.Acquire(l.t + ov.Interception)
				l.t = Step(l.p, l.ctrl, ov, EventID(op.Call), l.t, l.t)
			}
		}
	}
	if err := cur.Err(); err != nil {
		return nil, err
	}
	for i, l := range lanes {
		l.p.Flush()
		l.ctrl.Finish(l.t)
		out[i].Stats[r] = l.p.Stats()
		out[i].Acct[r] = l.ctrl.Accounting()
	}
	return lanes, nil
}

// OverheadReport holds wall-clock measurements of the mechanism's software
// cost, mirroring the paper's Table IV (which used gettimeofday around the
// PMPI interposition).
type OverheadReport struct {
	Calls            int           // MPI calls observed
	PPAInvoked       int           // calls on which the full PPA ran
	PPAInvokedPct    float64       // percentage of calls invoking PPA
	PerInvokedCall   time.Duration // mean wall time of a PPA-invoked call
	PerCallAmortized time.Duration // total mechanism time / all calls
	Total            time.Duration
}

// MeasureOverheads runs the predictor over every rank of the trace and
// measures the real wall-clock cost of each OnCall invocation, attributing
// it to PPA-invoked calls versus plain interceptions.
func MeasureOverheads(src trace.Source, cfg Config) (OverheadReport, error) {
	return MeasureOverheadsNamed(DefaultName, src, cfg)
}

// MeasureOverheadsNamed is MeasureOverheads for any registered predictor.
// For predictors that never invoke the PPA the per-invoked-call column stays
// zero and only the amortized per-call cost is meaningful.
func MeasureOverheadsNamed(name string, src trace.Source, cfg Config) (OverheadReport, error) {
	var rep OverheadReport
	var invokedTime time.Duration
	m := src.Meta()
	for r := 0; r < m.NP; r++ {
		p, err := NewForRank(name, cfg, src, r)
		if err != nil {
			return rep, err
		}
		var t time.Duration
		cur := src.Open(r)
		for {
			op, ok := cur.Next()
			if !ok {
				break
			}
			switch op.Kind {
			case trace.OpCompute:
				t += op.Duration
			case trace.OpCall:
				start := time.Now()
				act := p.OnCall(EventID(op.Call), t, t)
				el := time.Since(start)
				rep.Calls++
				rep.Total += el
				if act.PPAInvoked {
					rep.PPAInvoked++
					invokedTime += el
				}
			}
		}
		if err := cur.Err(); err != nil {
			return rep, err
		}
	}
	if rep.Calls > 0 {
		rep.PPAInvokedPct = 100 * float64(rep.PPAInvoked) / float64(rep.Calls)
		rep.PerCallAmortized = rep.Total / time.Duration(rep.Calls)
	}
	if rep.PPAInvoked > 0 {
		rep.PerInvokedCall = invokedTime / time.Duration(rep.PPAInvoked)
	}
	return rep, nil
}

// AvgHitRatePct averages the per-rank MPI call hit rates.
func AvgHitRatePct(stats []Stats) float64 {
	if len(stats) == 0 {
		return 0
	}
	s := 0.0
	for _, st := range stats {
		s += st.HitRatePct()
	}
	return s / float64(len(stats))
}
