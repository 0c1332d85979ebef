package predictor

import (
	"time"

	"ibpower/internal/power"
	"ibpower/internal/trace"
)

// RunOffline drives one predictor per rank over the trace without any
// network simulation: call timestamps are reconstructed from the recorded
// computation durations plus the mechanism's own modelled overheads, which
// is exactly the information the grouping threshold and PPA consume. The
// overhead insertion matters: a PPA invocation stretches the gap that
// follows it, which can push a gram-internal gap across the grouping
// threshold, so GT selection must see the same timing as the full replay.
// This is the fast path used for the GT sweeps of Table III and Figure 10.
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
	m := src.Meta()
	out := &OfflineResult{
		Stats: make([]Stats, m.NP),
		Acct:  make([]power.Accounting, m.NP),
	}
	for r := 0; r < m.NP; r++ {
		p, err := NewForRank(name, cfg, src, r)
		if err != nil {
			return nil, err
		}
		ctrl := power.NewController(cfg.Treact)
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
				// The link is acquired at call entry: with no network, that
				// is the only point a demand wake can be paid.
				t = ctrl.Acquire(t + ov.Interception)
				t = Step(p, ctrl, ov, EventID(op.Call), t, t)
			}
		}
		if err := cur.Err(); err != nil {
			return nil, err
		}
		p.Flush()
		ctrl.Finish(t)
		out.Stats[r] = p.Stats()
		out.Acct[r] = ctrl.Accounting()
		out.Delay += ctrl.TotalDelay
		if t > out.Exec {
			out.Exec = t
		}
	}
	return out, nil
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
