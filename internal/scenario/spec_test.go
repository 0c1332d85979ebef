package scenario

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"ibpower/internal/workloads"
)

// TestParseSpecRoundTrip pins the canonical-form contract: String() reparses
// to an identical spec for every distribution and arrival kind.
func TestParseSpecRoundTrip(t *testing.T) {
	for _, s := range []string{
		"",
		"jobs=200,size=zipf:16:256,arrival=poisson:30s,seed=7",
		"jobs=1,size=fixed:4,arrival=fixed:10s",
		"size=uniform:16:64,speed=2.5",
		"size=choices:16@3:64@1,apps=gromacs",
		"size=normal:32:8,arrival=poisson:1m,seed=-3",
		"size=zipf:2:128:2,speed=0.25",
	} {
		spec, err := ParseSpec(s)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", s, err)
		}
		again, err := ParseSpec(spec.String())
		if err != nil {
			t.Fatalf("ParseSpec(%q) of canonical form: %v", spec.String(), err)
		}
		if again.String() != spec.String() {
			t.Errorf("round trip changed the spec: %q -> %q", spec.String(), again.String())
		}
	}
}

// TestApplySpecLayering asserts overlaying touches only the keys mentioned,
// so -spec can refine -specfile.
func TestApplySpecLayering(t *testing.T) {
	base, err := ParseSpec("jobs=10,size=fixed:8,arrival=fixed:5s,seed=2")
	if err != nil {
		t.Fatal(err)
	}
	over, err := ApplySpec(base, "seed=9,speed=4")
	if err != nil {
		t.Fatal(err)
	}
	if over.Seed != 9 || over.Speed != 4 {
		t.Errorf("overlay keys not applied: %+v", over)
	}
	if over.Jobs != 10 || over.Size.String() != "8" || over.Arrival.String() != "fixed:5s" {
		t.Errorf("overlay disturbed unmentioned keys: %+v", over)
	}
	if same, err := ApplySpec(base, "  "); err != nil || same.String() != base.String() {
		t.Errorf("blank overlay must be a no-op (err=%v)", err)
	}
}

// TestParseSpecFile covers the file form: one key per line, comments and
// blanks ignored.
func TestParseSpecFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spec")
	content := "# churn scenario\njobs=30\n\nsize=uniform:4:16 # small jobs\narrival=fixed:2s\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	spec, err := ParseSpecFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Jobs != 30 || spec.Size.String() != "uniform:4:16" || spec.Arrival.String() != "fixed:2s" {
		t.Errorf("file parsed to %+v", spec)
	}
	if _, err := ParseSpecFile(filepath.Join(t.TempDir(), "nosuch")); err == nil {
		t.Error("missing file accepted")
	}
}

// TestSpecErrors covers every parse and validation failure with its message.
func TestSpecErrors(t *testing.T) {
	for in, want := range map[string]string{
		"jobs":                 "want key=value",
		"jobs=x":               "not an integer",
		"jobs=0":               "jobs must be in",
		"jobs=100001":          "jobs must be in",
		"apps=nosuch":          "unknown application",
		"apps=+":               "no applications",
		"size=":                "empty size distribution",
		"size=weird:1":         "unknown size distribution",
		"size=uniform:9":       "wants lo:hi",
		"size=uniform:9:4":     "inverted",
		"size=uniform:0:99999": "exceeds",
		"size=choices:4@-1":    "must be a positive number",
		"size=normal:a:b":      "must be numbers",
		"size=zipf:4:8:0.5":    "must be a number > 1",
		"size=0":               "size 0 below the minimum of 2",
		"size=-4":              "size -4 below the minimum of 2",
		"size=fixed:1":         "size 1 below the minimum of 2",
		"size=uniform:1:8":     "size 1 below the minimum of 2",
		"size=uniform:-5:-1":   "size -5 below the minimum of 2",
		"size=choices:9@3:1@1": "size 1 below the minimum of 2",
		"size=choices:8:0@2":   "size 0 below the minimum of 2",
		"size=zipf:1:64":       "size 1 below the minimum of 2",
		"size=zipf:0:8:2":      "size 0 below the minimum of 2",
		"arrival=poisson":      "wants kind:interval",
		"arrival=poisson:0s":   "must be positive",
		"arrival=later:1s":     "unknown arrival process",
		"arrival=fixed:bogus":  "arrival interval",
		"speed=fast":           "not a number",
		"speed=0":              "speed must be positive",
		"seed=1.5":             "not an integer",
		"color=red":            "unknown spec key",
	} {
		_, err := ParseSpec(in)
		if err == nil {
			t.Errorf("ParseSpec(%q) accepted", in)
			continue
		}
		if !strings.Contains(err.Error(), want) {
			t.Errorf("ParseSpec(%q) error %q, want substring %q", in, err, want)
		}
	}
}

// TestGenerateShape asserts the expanded stream honours the spec: job count,
// first arrival at zero, non-decreasing times, apps from the selection, and
// sizes clamped to valid process counts.
func TestGenerateShape(t *testing.T) {
	spec, err := ParseSpec("jobs=64,apps=gromacs,size=normal:3:2,arrival=poisson:10s,seed=5")
	if err != nil {
		t.Fatal(err)
	}
	arrivals, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(arrivals) != 64 {
		t.Fatalf("%d arrivals, want 64", len(arrivals))
	}
	if arrivals[0].At != 0 {
		t.Errorf("first arrival at %v, want 0", arrivals[0].At)
	}
	for i, a := range arrivals {
		if i > 0 && a.At < arrivals[i-1].At {
			t.Fatalf("arrival %d at %v before arrival %d at %v", i, a.At, i-1, arrivals[i-1].At)
		}
		if a.Job.App != "gromacs" {
			t.Errorf("arrival %d drew app %q outside the selection", i, a.Job.App)
		}
		// normal:3:2 draws below 2 routinely; Generate must clamp.
		if a.Job.NP < 2 {
			t.Errorf("arrival %d has %d ranks, want >= 2", i, a.Job.NP)
		}
	}
}

// TestEchoedSizesMatchJobs asserts the sizes the echoed spec states are
// the sizes the jobs run at: a fixed size is every job's size, and every
// bounded distribution's draws stay inside the bounds it echoes.
func TestEchoedSizesMatchJobs(t *testing.T) {
	for in, want := range map[string]struct {
		echo   string
		lo, hi int
	}{
		"jobs=8,size=fixed:2,seed=1":          {"size=2,", 2, 2},
		"jobs=8,size=7,seed=1":                {"size=7,", 7, 7},
		"jobs=32,size=uniform:2:5,seed=1":     {"size=uniform:2:5,", 2, 5},
		"jobs=32,size=choices:2@1:9@1,seed=1": {"size=choices:2@1:9@1,", 2, 9},
		"jobs=32,size=zipf:2:6,seed=1":        {"size=zipf:2:6,", 2, 6},
	} {
		spec, err := ParseSpec(in)
		if err != nil {
			t.Fatal(err)
		}
		if echo := spec.String(); !strings.Contains(echo, want.echo) {
			t.Errorf("%s: echoed %q, want it to state %q", in, echo, want.echo)
		}
		arrivals, err := spec.Generate()
		if err != nil {
			t.Fatal(err)
		}
		for i, a := range arrivals {
			if a.Job.NP < want.lo || a.Job.NP > want.hi {
				t.Errorf("%s: job %d ran at %d ranks, outside the echoed [%d, %d]", in, i, a.Job.NP, want.lo, want.hi)
			}
		}
	}
}

// TestGenerateSpeedCompressesGaps pins the speed multiplier: doubling speed
// exactly halves every inter-arrival gap of the same seed.
func TestGenerateSpeedCompressesGaps(t *testing.T) {
	slow, err := ParseSpec("jobs=20,arrival=poisson:10s,seed=11")
	if err != nil {
		t.Fatal(err)
	}
	fast := slow
	fast.Speed = 2
	as, err := slow.Generate()
	if err != nil {
		t.Fatal(err)
	}
	af, err := fast.Generate()
	if err != nil {
		t.Fatal(err)
	}
	for i := range as {
		if af[i].Job != as[i].Job {
			t.Fatalf("speed changed job %d: %v vs %v", i, af[i].Job, as[i].Job)
		}
		if i == 0 {
			continue
		}
		// Gaps truncate to the nanosecond independently per speed, so compare
		// gap by gap within 1ns rather than accumulated absolute times.
		got := af[i].At - af[i-1].At
		want := (as[i].At - as[i-1].At) / 2
		if got-want > time.Nanosecond || want-got > time.Nanosecond {
			t.Errorf("gap %d is %v under speed 2, want %v", i, got, want)
		}
	}
}

// TestDefaultSpecCoversAllApps asserts the default draws from the full
// workload registry and validates.
func TestDefaultSpecCoversAllApps(t *testing.T) {
	spec := DefaultSpec()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.Apps, workloads.Apps()) {
		t.Errorf("default apps %v, want every registered workload %v", spec.Apps, workloads.Apps())
	}
}
