package harness

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"ibpower/internal/power"
	"ibpower/internal/predictor"
	"ibpower/internal/trace"
	"ibpower/internal/workloads"
)

// referenceOffline is the offline mechanism written out independently of
// predictor.RunOfflineGrid: one config, ranks in order, each rank built by
// NewForRank and streamed through its own cursor.
func referenceOffline(name string, src trace.Source, cfg predictor.Config, ov predictor.OverheadModel) (*predictor.OfflineResult, error) {
	np := src.Meta().NP
	out := &predictor.OfflineResult{Stats: make([]predictor.Stats, np), Acct: make([]power.Accounting, np)}
	for r := 0; r < np; r++ {
		p, err := predictor.NewForRank(name, cfg, src, r)
		if err != nil {
			return nil, err
		}
		ctrl := power.NewController(cfg.Treact)
		var t time.Duration
		cur := src.Open(r)
		for op, ok := cur.Next(); ok; op, ok = cur.Next() {
			switch op.Kind {
			case trace.OpCompute:
				t += op.Duration
			case trace.OpCall:
				t = ctrl.Acquire(t + ov.Interception)
				t = predictor.Step(p, ctrl, ov, predictor.EventID(op.Call), t, t)
			}
		}
		if err := cur.Err(); err != nil {
			return nil, err
		}
		p.Flush()
		ctrl.Finish(t)
		out.Stats[r], out.Acct[r] = p.Stats(), ctrl.Accounting()
		out.Delay += ctrl.TotalDelay
		out.Exec = max(out.Exec, t)
	}
	return out, nil
}

// countingSource counts the cursors opened on each rank of a source.
type countingSource struct {
	trace.Source
	mu    sync.Mutex
	opens []int
}

func newCountingSource(src trace.Source) *countingSource {
	return &countingSource{Source: src, opens: make([]int, src.Meta().NP)}
}

func (s *countingSource) Open(r int) trace.Cursor {
	s.mu.Lock()
	s.opens[r]++
	s.mu.Unlock()
	return s.Source.Open(r)
}

// gridSources returns the same workload in memory and as a packed file.
func gridSources(t *testing.T) map[string]trace.Source {
	t.Helper()
	tr, err := workloads.Generate("alya", 8, fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	packed, err := packWorkloads(t, fastOpt, map[string][]int{"alya": {8}}).Source("alya", 8)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]trace.Source{"trace": tr, "packed": packed}
}

func gridConfigs() []predictor.Config {
	var cfgs []predictor.Config
	for _, gt := range DefaultGTGrid() {
		cfgs = append(cfgs, predictor.Config{GT: gt, Displacement: 0.01})
	}
	return cfgs
}

// TestOfflineGridMatchesOneConfigRuns is the grid runner's differential
// test: for every registered predictor, trace-aware ones included, on an
// in-memory and a packed source and at every pool size, each config's
// result of the one-pass grid equals an independent one-config run.
func TestOfflineGridMatchesOneConfigRuns(t *testing.T) {
	ov := predictor.DefaultOverheads()
	cfgs := gridConfigs()
	for srcName, src := range gridSources(t) {
		for _, name := range predictor.Names() {
			want := make([]*predictor.OfflineResult, len(cfgs))
			for i, cfg := range cfgs {
				var err error
				if want[i], err = referenceOffline(name, src, cfg, ov); err != nil {
					t.Fatal(err)
				}
				one, err := predictor.RunOfflineNamed(name, src, cfg, ov)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(one, want[i]) {
					t.Errorf("%s %s GT %v: RunOfflineNamed differs from the reference", srcName, name, cfg.GT)
				}
			}
			for _, workers := range []int{1, 4, 0} {
				got, err := predictor.RunOfflineGrid(name, src, cfgs, ov, workers)
				if err != nil {
					t.Fatal(err)
				}
				for i := range cfgs {
					if !reflect.DeepEqual(got[i], want[i]) {
						t.Errorf("%s %s workers=%d GT %v: grid result differs from the one-config run",
							srcName, name, workers, cfgs[i].GT)
					}
				}
			}
		}
	}
}

// TestOfflineGridOpensEachRankOnce asserts one grid evaluation opens each
// rank's cursor exactly once, whatever the predictor: trace-aware
// predictors are primed and driven from a single read of the rank.
func TestOfflineGridOpensEachRankOnce(t *testing.T) {
	cfgs := gridConfigs()
	for srcName, src := range gridSources(t) {
		for _, name := range predictor.Names() {
			for _, workers := range []int{1, 4} {
				cs := newCountingSource(src)
				if _, err := predictor.RunOfflineGrid(name, cs, cfgs, predictor.DefaultOverheads(), workers); err != nil {
					t.Fatal(err)
				}
				for r, n := range cs.opens {
					if n != 1 {
						t.Errorf("%s %s workers=%d: rank %d opened %d times, want 1", srcName, name, workers, r, n)
					}
				}
			}
		}
		cs := newCountingSource(src)
		if _, _, err := ChooseGT(cs, DefaultGTGrid(), 1.0); err != nil {
			t.Fatal(err)
		}
		for r, n := range cs.opens {
			if n != 1 {
				t.Errorf("%s ChooseGT: rank %d opened %d times, want 1", srcName, r, n)
			}
		}
	}
}
