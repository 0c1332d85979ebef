package predictor

import (
	"time"

	"ibpower/internal/power"
)

// OverheadModel charges the software costs of the mechanism (the paper's
// Table IV): every intercepted MPI call pays the interception cost (~1 µs,
// the measured cost of interception plus reading the system clock); calls on
// which the full PPA runs additionally pay a cost that grows with the
// current pattern size. The hash-table lookup itself is O(1) — uthash in the
// paper, a Go map here — so the per-list-entry coefficient defaults to zero;
// it exists as an ablation knob for "slower hash tables" (the paper notes
// PPA overheads "can be further reduced by using faster hash tables").
type OverheadModel struct {
	Interception    time.Duration // per MPI call
	PPABase         time.Duration // per PPA-invoked call
	PPAPerGram      time.Duration // × current pattern size
	PPAPerListEntry time.Duration // × pattern list entries
}

// DefaultOverheads returns costs calibrated to the paper's Table IV
// (average 16.5 µs per invoked call, ~1 µs interception).
func DefaultOverheads() OverheadModel {
	return OverheadModel{
		Interception: time.Microsecond,
		PPABase:      7 * time.Microsecond,
		PPAPerGram:   2500 * time.Nanosecond,
	}
}

// PPACost returns the modelled cost of one PPA invocation given the current
// pattern size and pattern list size.
func (m OverheadModel) PPACost(patternSize, listSize int) time.Duration {
	return m.PPABase + time.Duration(patternSize)*m.PPAPerGram + time.Duration(listSize)*m.PPAPerListEntry
}

// Step is the mechanism's per-call loop, shared by every driver (the
// offline runner, the replay engine and the live PMPI layer): the predictor
// observes the call occupying [start, end]; when the full PPA ran, the call
// is stretched by its Table IV cost; a shutdown action then programs the
// link's wake timer at the charged end, which Step returns. Interception and
// link acquisition stay with the driver, which knows when the call entered
// and when it needed the link.
//
// The PPA cost is charged at max(MaxPatternFrozen, 2): detection only ever
// freezes patterns of two or more grams, so the max only lifts the
// never-detected size 0 to the smallest pattern.
func Step(p Predictor, ctrl *power.Controller, ov OverheadModel, id EventID, start, end time.Duration) time.Duration {
	act := p.OnCall(id, start, end)
	if act.PPAInvoked {
		st := p.Stats().Detector
		end += ov.PPACost(max(st.MaxPatternFrozen, 2), st.PatternListSize)
	}
	if act.Shutdown {
		ctrl.Shutdown(end, act.PredictedIdle)
	}
	return end
}
