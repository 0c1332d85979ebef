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

// TestRunJobsSingleJobMatchesRun proves the explicit-placement path is the
// same simulation Run performs: one job on the identity placement must give
// the exact Result, field for field.
func TestRunJobsSingleJobMatchesRun(t *testing.T) {
	tr := genTrace(t, "alya", 8)
	cfg := DefaultConfig().WithPower(20*time.Microsecond, 0.01)

	want, err := Run(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ident := make([]int, tr.NP)
	for i := range ident {
		ident[i] = i
	}
	got, err := RunJobs([]Job{{Source: tr, Terminals: ident}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Jobs[0], want) {
		t.Errorf("explicit identity placement diverged from Run:\n got %+v\nwant %+v",
			got.Jobs[0], want)
	}
	if got.MakeSpan != want.ExecTime {
		t.Errorf("MakeSpan = %v, want %v", got.MakeSpan, want.ExecTime)
	}
	if got.Transfers != want.Transfers || got.BytesMoved != want.BytesMoved {
		t.Errorf("fabric counters (%d, %d) != job counters (%d, %d)",
			got.Transfers, got.BytesMoved, want.Transfers, want.BytesMoved)
	}
}

// TestRunJobsDeterministic asserts a two-job shared-fabric replay is a pure
// function of its inputs: repeated runs must agree bit for bit.
func TestRunJobsDeterministic(t *testing.T) {
	jobs := []Job{
		{Source: genTrace(t, "gromacs", 8)},
		{Source: genTrace(t, "alya", 8)},
	}
	cfg := DefaultConfig().WithPower(20*time.Microsecond, 0.01)
	a, err := RunJobs(jobs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunJobs(jobs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("two identical RunJobs calls disagreed")
	}
}

// TestRunJobsScopesJobs asserts collectives and point-to-point matching stay
// inside each job: two jobs full of barriers and allreduces must both drain
// (cross-job matching would deadlock or corrupt the schedule), and the
// fabric-wide counters must be the union of the per-job ones.
func TestRunJobsScopesJobs(t *testing.T) {
	jobs := []Job{
		{Source: genTrace(t, "nasbt", 9)},
		{Source: genTrace(t, "nasmg", 8)},
	}
	m, err := RunJobs(jobs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Jobs) != 2 {
		t.Fatalf("got %d job results, want 2", len(m.Jobs))
	}
	sumT, sumB := 0, int64(0)
	for j, res := range m.Jobs {
		if res.ExecTime <= 0 {
			t.Errorf("job %d: non-positive exec time %v", j, res.ExecTime)
		}
		if len(res.RankFinish) != jobs[j].Source.Meta().NP {
			t.Errorf("job %d: %d rank finishes, want %d", j, len(res.RankFinish), jobs[j].Source.Meta().NP)
		}
		sumT += res.Transfers
		sumB += res.BytesMoved
	}
	if sumT != m.Transfers || sumB != m.BytesMoved {
		t.Errorf("per-job traffic (%d, %d) does not sum to fabric traffic (%d, %d)",
			sumT, sumB, m.Transfers, m.BytesMoved)
	}
	var busy time.Duration
	for _, d := range m.LinkBusy {
		busy += d
	}
	if busy <= 0 {
		t.Error("no link busy time recorded for the union of two jobs")
	}
}

// TestRunJobsPerJobPower asserts each job carries its own power
// configuration: a powered job reports accounting while its unpowered
// neighbor on the same fabric reports none.
func TestRunJobsPerJobPower(t *testing.T) {
	on := DefaultConfig().WithPower(20*time.Microsecond, 0.01).Power
	jobs := []Job{
		{Source: genTrace(t, "alya", 8), Power: &on},
		{Source: genTrace(t, "wrf", 8)},
	}
	m, err := RunJobs(jobs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Jobs[0].Acct) != 8 {
		t.Errorf("powered job has %d accountings, want 8", len(m.Jobs[0].Acct))
	}
	if len(m.Jobs[1].Acct) != 0 {
		t.Errorf("unpowered job has %d accountings, want 0", len(m.Jobs[1].Acct))
	}
}

// TestRunJobsAutoPlacementFillsGaps pins the nil-Terminals contract when
// mixed with explicit placements: automatic jobs take the lowest *free*
// terminals, so an explicit job parked at the top of the fabric cannot push
// an automatic one out of range while terminals remain (regression: the
// first implementation continued after the highest explicit terminal and
// spuriously overflowed the fabric).
func TestRunJobsAutoPlacementFillsGaps(t *testing.T) {
	tr := genTrace(t, "alya", 8)
	cfg := DefaultConfig()
	topo, err := cfg.Fabric()
	if err != nil {
		t.Fatal(err)
	}
	nt := topo.NumTerminals()
	top := make([]int, 8) // explicit block ending on the last terminal
	for i := range top {
		top[i] = nt - 8 + i
	}
	m, err := RunJobs([]Job{{Source: tr, Terminals: top}, {Source: tr}}, cfg)
	if err != nil {
		t.Fatalf("auto placement overflowed despite %d free terminals: %v", nt-8, err)
	}
	if len(m.Jobs) != 2 {
		t.Fatalf("got %d jobs", len(m.Jobs))
	}
}

// TestRunJobsValidation covers the placement error paths.
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
		{"nil trace", []Job{{}}, "no trace"},
	}
	for _, c := range cases {
		_, err := RunJobs(c.jobs, cfg)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want substring %q", c.name, err, c.want)
		}
	}

	// More ranks than terminals.
	big := make([]Job, 0, 40)
	for i := 0; i < 40; i++ {
		big = append(big, Job{Source: tr})
	}
	if _, err := RunJobs(big, cfg); err == nil || !strings.Contains(err.Error(), "terminals") {
		t.Errorf("overcommitted fabric: error %v, want terminal-count complaint", err)
	}
}
