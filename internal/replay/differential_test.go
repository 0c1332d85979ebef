package replay

import (
	"reflect"
	"testing"
	"time"

	"ibpower/internal/predictor"
	"ibpower/internal/trace"
)

// TestOfflineMatchesEngine is a differential test of the two simulation
// drivers of the mechanism. On one rank collectives expand to no transfers,
// so the engine's clock is the offline runner's clock: both drive the same
// predictor.Step per call and must agree exactly on predictor statistics,
// shutdowns and finish time. They differ only in where the link is
// acquired (call entry offline, transfers in the engine), so the trace is
// jitter-free, the predictors are the ones that predict it exactly (the
// n-gram mechanism and the oracle), and the test also requires the offline
// run to pay no wake delay; every demand wake costs a positive delay.
func TestOfflineMatchesEngine(t *testing.T) {
	tr := trace.New("collectives", 1)
	for i := 0; i < 60; i++ {
		tr.Append(0, trace.Allreduce(64))
		tr.Append(0, trace.Compute(5*time.Microsecond))
		tr.Append(0, trace.Allreduce(64))
		tr.Append(0, trace.Compute(400*time.Microsecond))
		tr.Append(0, trace.Barrier())
		tr.Append(0, trace.Compute(250*time.Microsecond))
	}
	for _, name := range []string{predictor.DefaultName, "oracle"} {
		cfg := DefaultConfig().WithPredictor(name).WithPower(50*time.Microsecond, 0.05)
		off, err := predictor.RunOfflineNamed(name, tr, cfg.Power.Predictor, cfg.Power.Overheads)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if name == predictor.DefaultName && off.Stats[0].PPAInvocations == 0 {
			t.Error("the PPA never ran, so no overhead charge was compared")
		}
		if off.Delay != 0 {
			t.Errorf("%s: offline run paid %v of wake delay", name, off.Delay)
		}
		if !reflect.DeepEqual(off.Stats, res.PredStats) {
			t.Errorf("%s: stats differ:\noffline %+v\nengine  %+v", name, off.Stats, res.PredStats)
		}
		if off.Stats[0].Shutdowns == 0 || off.Stats[0].Shutdowns != res.Shutdowns {
			t.Errorf("%s: shutdowns offline %d, engine %d (want equal and nonzero)", name, off.Stats[0].Shutdowns, res.Shutdowns)
		}
		if !reflect.DeepEqual(off.Acct, res.Acct) {
			t.Errorf("%s: accounting offline %+v, engine %+v", name, off.Acct, res.Acct)
		}
		if off.Exec != res.ExecTime {
			t.Errorf("%s: finish offline %v, engine %v", name, off.Exec, res.ExecTime)
		}
	}
}
