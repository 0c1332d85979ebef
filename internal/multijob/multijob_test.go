package multijob

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"ibpower/internal/replay"
	"ibpower/internal/trace"
	"ibpower/internal/workloads"
)

func testConfig() Config {
	return Config{
		Jobs:      []JobSpec{{App: "gromacs", NP: 8}, {App: "alya", NP: 8}},
		Placement: "roundrobin",
		Opt:       workloads.Options{Seed: 42, IterScale: 0.05},
		Replay:    replay.DefaultConfig(),
	}
}

func TestParseJobs(t *testing.T) {
	jobs, err := ParseJobs("gromacs:64, alya:16")
	if err != nil {
		t.Fatal(err)
	}
	want := []JobSpec{{App: "gromacs", NP: 64}, {App: "alya", NP: 16}}
	if !reflect.DeepEqual(jobs, want) {
		t.Errorf("got %v, want %v", jobs, want)
	}
	if FormatJobs(jobs) != "gromacs:64,alya:16" {
		t.Errorf("FormatJobs = %q", FormatJobs(jobs))
	}
	for _, bad := range []string{"", "gromacs", "gromacs:x", "gromacs:1", ":8", "a:8,,b:8"} {
		if _, err := ParseJobs(bad); err == nil {
			t.Errorf("ParseJobs(%q) accepted", bad)
		}
	}
}

// TestRunEndToEnd runs a small two-job mix and sanity-checks every reported
// statistic.
func TestRunEndToEnd(t *testing.T) {
	res, err := Run(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 2 {
		t.Fatalf("got %d job rows, want 2", len(res.Jobs))
	}
	for _, j := range res.Jobs {
		if j.Exec <= 0 || j.Dedicated <= 0 {
			t.Errorf("%s: non-positive exec %v / dedicated %v", j.App, j.Exec, j.Dedicated)
		}
		if j.SavingPct < 0 || j.SavingPct > 57 {
			t.Errorf("%s: saving %.2f%% outside [0, 57]", j.App, j.SavingPct)
		}
		if j.EnergyLinkSeconds <= 0 {
			t.Errorf("%s: non-positive energy", j.App)
		}
		if j.Switches < 2 {
			t.Errorf("%s: round-robin placed 8 ranks on %d switch(es)", j.App, j.Switches)
		}
		if j.Transfers <= 0 {
			t.Errorf("%s: no transfers attributed", j.App)
		}
	}
	f := res.Fabric
	if f.MakeSpan < res.Jobs[0].Exec || f.MakeSpan < res.Jobs[1].Exec {
		t.Errorf("makespan %v below a job exec time", f.MakeSpan)
	}
	if f.LinksUsed <= 0 || f.MaxUtilPct <= 0 {
		t.Errorf("fabric link stats empty: %+v", f)
	}
	if f.Transfers != res.Jobs[0].Transfers+res.Jobs[1].Transfers {
		t.Errorf("fabric transfers %d != sum of job transfers", f.Transfers)
	}
	var buf bytes.Buffer
	if err := WriteResult(&buf, res); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"gromacs", "alya", "roundrobin", "makespan"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("rendered result missing %q:\n%s", want, buf.String())
		}
	}
}

// TestRunDeterministicAtAnyParallelism pins the determinism contract: the
// whole Result — placements, per-job stats, fabric stats — must be identical
// at Parallelism 1, 2, and GOMAXPROCS.
func TestRunDeterministicAtAnyParallelism(t *testing.T) {
	var base *Result
	for _, par := range []int{1, 2, 0} {
		cfg := testConfig()
		cfg.Replay.Parallelism = par
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = res
			continue
		}
		if !reflect.DeepEqual(res, base) {
			t.Errorf("result at Parallelism %d differs from the serial run", par)
		}
	}
}

// TestRunSharedVsDedicated asserts the shared run actually shares: the union
// traffic hits the same fabric, so per-job exec can differ from the
// dedicated baseline, and the overhead column reflects exactly that delta.
func TestRunSharedVsDedicated(t *testing.T) {
	res, err := Run(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range res.Jobs {
		want := 100 * (float64(j.Exec) - float64(j.Dedicated)) / float64(j.Dedicated)
		if got := j.SharingOverheadPct; got != want {
			t.Errorf("%s: overhead %.4f%%, want %.4f%%", j.App, got, want)
		}
	}
}

// TestRunErrors covers configuration error paths: unknown placement,
// predictor, fabric, and workload all fail fast with the registry named.
func TestRunErrors(t *testing.T) {
	for name, mutate := range map[string]struct {
		mut  func(*Config)
		want string
	}{
		"placement": {func(c *Config) { c.Placement = "nosuch" }, "unknown placement"},
		"predictor": {func(c *Config) { c.Replay.Power.PredictorName = "nosuch" }, "unknown predictor"},
		"fabric":    {func(c *Config) { c.Replay.FabricName = "nosuch" }, "unknown fabric"},
		"workload":  {func(c *Config) { c.Jobs[0].App = "nosuch" }, "unknown application"},
		"empty":     {func(c *Config) { c.Jobs = nil }, "no jobs"},
	} {
		cfg := testConfig()
		mutate.mut(&cfg)
		if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), mutate.want) {
			t.Errorf("%s: error %v, want substring %q", name, err, mutate.want)
		}
	}
}

// TestRunRejectsOversizeMixUpFront asserts a mix with more ranks than the
// fabric has terminals fails on the capacity check alone: no trace is
// generated, no grouping threshold chosen and no baseline replayed, so an
// impossible request costs nothing however large it is.
func TestRunRejectsOversizeMixUpFront(t *testing.T) {
	cfg := testConfig()
	cfg.Jobs = []JobSpec{{App: "alya", NP: 100000}}
	cfg.Generate = func(app string, np int) (trace.Source, error) {
		t.Errorf("Generate(%s, %d) called for an oversize mix", app, np)
		return nil, fmt.Errorf("unreachable")
	}
	cfg.SelectGT = func(trace.Source) (time.Duration, error) {
		t.Error("SelectGT called for an oversize mix")
		return 0, fmt.Errorf("unreachable")
	}
	cfg.Dedicated = func(trace.Source, time.Duration, float64) (*replay.Result, error) {
		t.Error("Dedicated called for an oversize mix")
		return nil, fmt.Errorf("unreachable")
	}
	_, err := Run(cfg)
	if err == nil || !strings.Contains(err.Error(), "100000 ranks exceed the 252 terminals") {
		t.Errorf("error %v, want the ranks-exceed-terminals complaint", err)
	}
}
