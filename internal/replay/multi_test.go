package replay

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"ibpower/internal/trace"
	"ibpower/internal/workloads"
)

func genTrace(t *testing.T, app string, np int) *trace.Trace {
	t.Helper()
	tr, err := workloads.Generate(app, np, workloads.Options{IterScale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// linearJobs places the sources on consecutive terminal blocks from terminal
// 0, in order — the linear placement of a static job mix.
func linearJobs(srcs ...trace.Source) []Job {
	jobs := make([]Job, len(srcs))
	next := 0
	for j, src := range srcs {
		np := src.Meta().NP
		jobs[j] = Job{Source: src, Terminals: identTerms(next + np)[next:]}
		next += np
	}
	return jobs
}

// admitOnce opens a fresh session and admits every job in one batch at t=0:
// a static job mix sharing the fabric from the start.
func admitOnce(t *testing.T, cfg Config, jobs ...Job) (*Churn, []*Result) {
	t.Helper()
	c, err := NewChurn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.AdmitAt(0, jobs...)
	if err != nil {
		t.Fatal(err)
	}
	return c, res
}

// TestRunJobsDeterministic asserts a two-job shared-fabric admission is a
// pure function of its inputs: repeated sessions must agree bit for bit, per
// job and fabric-wide.
func TestRunJobsDeterministic(t *testing.T) {
	jobs := linearJobs(genTrace(t, "gromacs", 8), genTrace(t, "alya", 8))
	cfg := DefaultConfig().WithPower(20*time.Microsecond, 0.01)
	ca, a := admitOnce(t, cfg, jobs...)
	cb, b := admitOnce(t, cfg, jobs...)
	if !reflect.DeepEqual(a, b) {
		t.Error("two identical admissions disagreed")
	}
	if !reflect.DeepEqual(ca.LinkBusy(), cb.LinkBusy()) {
		t.Error("two identical admissions left different link occupancy")
	}
}

// TestRunJobsScopesJobs asserts collectives and point-to-point matching stay
// inside each job of one admission: two jobs full of barriers and allreduces
// must both drain (cross-job matching would deadlock or corrupt the
// schedule), and the session's fabric-wide counters must be the union of the
// per-job ones.
func TestRunJobsScopesJobs(t *testing.T) {
	jobs := linearJobs(genTrace(t, "nasbt", 9), genTrace(t, "nasmg", 8))
	c, res := admitOnce(t, DefaultConfig(), jobs...)
	if len(res) != 2 {
		t.Fatalf("got %d job results, want 2", len(res))
	}
	sumT, sumB := 0, int64(0)
	for j, r := range res {
		if r.ExecTime <= 0 {
			t.Errorf("job %d: non-positive exec time %v", j, r.ExecTime)
		}
		if len(r.RankFinish) != jobs[j].Source.Meta().NP {
			t.Errorf("job %d: %d rank finishes, want %d", j, len(r.RankFinish), jobs[j].Source.Meta().NP)
		}
		sumT += r.Transfers
		sumB += r.BytesMoved
	}
	transfers, bytes := c.Stats()
	if sumT != transfers || sumB != bytes {
		t.Errorf("per-job traffic (%d, %d) does not sum to fabric traffic (%d, %d)",
			sumT, sumB, transfers, bytes)
	}
	var busy time.Duration
	for _, d := range c.LinkBusy() {
		busy += d
	}
	if busy <= 0 {
		t.Error("no link busy time recorded for the union of two jobs")
	}
}

// TestRunJobsPerJobPower asserts each admitted job carries its own power
// configuration: a powered job reports accounting while its unpowered
// neighbor on the same fabric reports none.
func TestRunJobsPerJobPower(t *testing.T) {
	on := DefaultConfig().WithPower(20*time.Microsecond, 0.01).Power
	jobs := linearJobs(genTrace(t, "alya", 8), genTrace(t, "wrf", 8))
	jobs[0].Power = &on
	_, res := admitOnce(t, DefaultConfig(), jobs...)
	if len(res[0].Acct) != 8 {
		t.Errorf("powered job has %d accountings, want 8", len(res[0].Acct))
	}
	if len(res[1].Acct) != 0 {
		t.Errorf("unpowered job has %d accountings, want 0", len(res[1].Acct))
	}
}

// TestRunJobsValidation covers the admission and single-job capacity error
// paths.
func TestRunJobsValidation(t *testing.T) {
	tr := genTrace(t, "alya", 8)
	cfg := DefaultConfig()

	cases := []struct {
		name string
		jobs []Job
		want string
	}{
		{"no jobs", nil, "no jobs"},
		{"overlap", []Job{
			{Source: tr, Terminals: []int{0, 1, 2, 3, 4, 5, 6, 7}},
			{Source: tr, Terminals: []int{7, 8, 9, 10, 11, 12, 13, 14}},
		}, "both placed on terminal 7"},
		{"out of range", []Job{
			{Source: tr, Terminals: []int{0, 1, 2, 3, 4, 5, 6, 100000}},
		}, "out of range"},
		{"wrong length", []Job{
			{Source: tr, Terminals: []int{0, 1}},
		}, "2 terminals for 8 ranks"},
		{"unplaced", []Job{{Source: tr}}, "0 terminals for 8 ranks"},
		{"nil trace", []Job{{}}, "no trace"},
	}
	for _, c := range cases {
		s, err := NewChurn(cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, err = s.AdmitAt(0, c.jobs...)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want substring %q", c.name, err, c.want)
		}
	}

	// A single job with more ranks than the fabric has terminals.
	if _, err := RunSource(trace.New("alya", 400), cfg); err == nil ||
		!strings.Contains(err.Error(), "has 252 terminals, need 400") {
		t.Errorf("overcommitted fabric: error %v, want terminal-count complaint", err)
	}
	if _, err := RunSource(nil, cfg); err == nil || !strings.Contains(err.Error(), "no trace") {
		t.Errorf("nil source: error %v, want no trace", err)
	}
}
