package ngram

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"ibpower/internal/trace"
	"ibpower/internal/workloads"
)

// The mechanism's PPA charge (predictor.Step) relies on detection starting at
// period 2: the frozen pattern size is 0 (never detected) or at least 2,
// never 1. The frozen size only shrinks once set, so its end-of-stream value
// is the smallest ever frozen.

// TestMaxPatternFrozenNeverOneProperty drives random, mostly periodic streams
// (a random iteration of 1-6 events over a small alphabet, gaps straddling
// the grouping threshold, each event mutated with 10% probability) through
// detectors of every small maximum pattern size. An iteration that forms a
// single gram is exactly the stream a period-1 detection would freeze on.
func TestMaxPatternFrozenNeverOneProperty(t *testing.T) {
	detections := 0
	f := func(seed int64, maxRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		event := func() (EventID, time.Duration) { return EventID(rng.Intn(3) + 1), time.Duration(rng.Intn(40)) * us }
		n := rng.Intn(6) + 1
		ids, gaps := make([]EventID, 60*n), make([]time.Duration, 60*n)
		for k := range ids {
			if k < n || rng.Intn(10) == 0 {
				ids[k], gaps[k] = event()
			} else {
				ids[k], gaps[k] = ids[k-n], gaps[k-n]
			}
		}
		d := NewDetector(int(maxRaw % 6)) // 0 selects the default size
		feed(nil, NewBuilder(20*us), d, ids, gaps)
		detections += d.Stats().Detections
		return d.Stats().MaxPatternFrozen != 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	if detections == 0 {
		t.Error("no stream detected a pattern; the property proves nothing")
	}
}

// TestMaxPatternFrozenNeverOneWorkloads checks the same invariant on rank 0
// of every workload at its smallest process count, over a range of
// grouping thresholds.
func TestMaxPatternFrozenNeverOneWorkloads(t *testing.T) {
	for _, app := range workloads.Apps() {
		src, err := workloads.NewSource(app, workloads.ProcCounts(app)[0], workloads.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var ids []EventID
		var gaps []time.Duration
		var idle time.Duration
		cur := src.Open(0)
		for op, ok := cur.Next(); ok; op, ok = cur.Next() {
			if op.Kind == trace.OpCompute {
				idle += op.Duration
				continue
			}
			ids, gaps, idle = append(ids, EventID(op.Call)), append(gaps, idle), 0
		}
		detections := 0
		for _, gt := range []time.Duration{20 * us, 100 * us, time.Millisecond} {
			d := NewDetector(0)
			feed(t, NewBuilder(gt), d, ids, gaps)
			if d.Stats().MaxPatternFrozen == 1 {
				t.Errorf("%s GT %v: frozen pattern size 1", app, gt)
			}
			detections += d.Stats().Detections
		}
		if detections == 0 {
			t.Errorf("%s: no pattern detected at any GT, the stream proves nothing", app)
		}
	}
}
