package replay

import (
	"time"

	"ibpower/internal/power"
	"ibpower/internal/predictor"
	"ibpower/internal/stats"
	"ibpower/internal/trace"
)

// Result is the outcome of one replay run.
type Result struct {
	ExecTime   time.Duration   // application execution time (max over ranks)
	RankFinish []time.Duration // per-rank completion time

	// Power accounting per rank host link (only when the mechanism ran).
	Acct      []power.Accounting
	PredStats []predictor.Stats
	Timelines []*trace.Timeline

	// Aggregate mechanism counters.
	Shutdowns   int
	DemandWakes int
	TimerWakes  int
	TotalDelay  time.Duration

	Transfers  int
	BytesMoved int64

	// Series is the run's streaming telemetry recorder, non-nil only when
	// Config.Telemetry was enabled on a single-job run (the recorder is
	// fabric-wide; a Churn session exposes it through Churn.Telemetry
	// instead).
	Series *stats.TimeSeries
}

// AvgSavingPct returns the switch power saving averaged over all MPI
// processes, as the paper reports (Figures 7–9a). Zero when the mechanism
// was disabled.
func (r *Result) AvgSavingPct() float64 {
	if len(r.Acct) == 0 {
		return 0
	}
	s := 0.0
	for _, a := range r.Acct {
		s += a.SavingPct()
	}
	return s / float64(len(r.Acct))
}

// AvgLowFraction returns the mean fraction of time spent in low-power mode.
func (r *Result) AvgLowFraction() float64 {
	if len(r.Acct) == 0 {
		return 0
	}
	s := 0.0
	for _, a := range r.Acct {
		s += a.LowFraction()
	}
	return s / float64(len(r.Acct))
}

// AvgHitRatePct returns the MPI call hit rate averaged over processes
// (Table III).
func (r *Result) AvgHitRatePct() float64 {
	if len(r.PredStats) == 0 {
		return 0
	}
	s := 0.0
	for _, p := range r.PredStats {
		s += p.HitRatePct()
	}
	return s / float64(len(r.PredStats))
}

// TimeIncreasePct returns the execution time increase relative to base in
// percent (Figures 7–9b).
func (r *Result) TimeIncreasePct(base *Result) float64 {
	if base.ExecTime == 0 {
		return 0
	}
	return 100 * (float64(r.ExecTime) - float64(base.ExecTime)) / float64(base.ExecTime)
}

// collectJob builds one drained job's Result, indexed by job-local rank.
// start is the job's admission time: exec time and rank finishes are
// reported relative to it, while power accounting closes at the job's
// absolute completion, so a job's window spans exactly its own lifetime
// [start, finish], as a dedicated single-job run would report it.
func (e *engine) collectJob(js *jobState, start time.Duration) *Result {
	np := js.np
	res := &Result{RankFinish: make([]time.Duration, np)}
	finish := start
	for r := 0; r < np; r++ {
		rs := e.rk[js.base+r]
		res.RankFinish[r] = rs.clk - start
		if rs.clk > finish {
			finish = rs.clk
		}
	}
	res.ExecTime = finish - start
	if js.pw.Enabled {
		res.Acct = make([]power.Accounting, np)
		res.PredStats = make([]predictor.Stats, np)
		for r := 0; r < np; r++ {
			rs := e.rk[js.base+r]
			rs.ctrl.Finish(finish)
			res.Acct[r] = rs.ctrl.Accounting()
			res.PredStats[r] = rs.pred.Stats()
			res.Shutdowns += rs.ctrl.Shutdowns
			res.DemandWakes += rs.ctrl.DemandWakes
			res.TimerWakes += rs.ctrl.TimerWakes
			res.TotalDelay += rs.ctrl.TotalDelay
			if js.pw.RecordTimelines {
				if tl := rs.ctrl.Timeline(); tl != nil {
					res.Timelines = append(res.Timelines, tl)
				}
			}
		}
	}
	res.Transfers, res.BytesMoved = js.transfers, js.bytes
	return res
}
