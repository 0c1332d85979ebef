package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMatchesCLI checks, for the default seed, that each workload renders
// exactly the bytes of the matching ibpower invocation, that the traced
// rebuild renders the same bytes, and that expected.json records their
// digests. churn-big's packed trace file must also equal the one
// "ibpower trace pack" writes.
func TestMatchesCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload three times")
	}
	const seed = 42
	dir := t.TempDir()
	cli := filepath.Join(dir, "ibpower")
	if out, err := exec.Command("go", "build", "-o", cli, "ibpower/cmd/ibpower").CombinedOutput(); err != nil {
		t.Fatalf("building ibpower: %v\n%s", err, out)
	}
	raw, err := os.ReadFile("expected.json")
	if err != nil {
		t.Fatal(err)
	}
	var expected map[string]map[string]string
	if err := json.Unmarshal(raw, &expected); err != nil {
		t.Fatal(err)
	}

	var jobs []string
	for _, app := range churnApps {
		for _, np := range churnSizes {
			jobs = append(jobs, fmt.Sprintf("%s:%d", app, np))
		}
	}
	packed := filepath.Join(dir, "churn.ibt")
	series := filepath.Join(dir, "churn.json")
	common := []string{"-parallel", "1", "-seed", fmt.Sprint(seed)}
	cliRun(t, cli, "trace", "pack", "-o", packed, "-jobs", strings.Join(jobs, ","),
		"-seed", fmt.Sprint(seed), "-scale", fmt.Sprint(churnScale))
	packedWant, err := os.ReadFile(packed)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		workload string
		args     []string
	}{
		{"gt-table3", append([]string{"gt", "-scale", fmt.Sprint(gtScale)}, common...)},
		{"compare-paper", append([]string{"compare", "-scale", fmt.Sprint(compareScale),
			"-d", fmt.Sprint(displacement)}, common...)},
		{"churn-big", append([]string{"scenario", "-scale", fmt.Sprint(churnScale),
			"-d", fmt.Sprint(displacement), "-topo", churnFabric, "-sched", churnSched,
			"-placement", churnPlace, "-spec", churnSpec(),
			"-tracefile", packed, "-timeseries", series}, common...)},
	}
	for _, c := range cases {
		t.Run(c.workload, func(t *testing.T) {
			want := output{text: cliRun(t, cli, c.args...)}
			if c.workload == "churn-big" {
				var err error
				if want.series, err = os.ReadFile(series); err != nil {
					t.Fatal(err)
				}
			}
			w, err := lookup(c.workload)
			if err != nil {
				t.Fatal(err)
			}
			for _, traced := range []bool{false, true} {
				got := render(t, w, seed, dir, traced)
				if !bytes.Equal(got.text, want.text) {
					t.Errorf("traced=%v: output differs from ibpower %s:\n%s\nwant:\n%s",
						traced, strings.Join(c.args, " "), got.text, want.text)
				}
				if !bytes.Equal(got.series, want.series) {
					t.Errorf("traced=%v: time series differs from ibpower -timeseries", traced)
				}
				if got.packed != nil && !bytes.Equal(got.packed, packedWant) {
					t.Errorf("traced=%v: packed trace file differs from ibpower trace pack", traced)
				}
			}
			exp := expected[c.workload]
			if d := digest(want.text); exp["output_sha256"] != d {
				t.Errorf("expected.json output_sha256 = %s, ibpower prints %s", exp["output_sha256"], d)
			}
			if want.series != nil && exp["timeseries_sha256"] != digest(want.series) {
				t.Errorf("expected.json timeseries_sha256 = %s, ibpower writes %s",
					exp["timeseries_sha256"], digest(want.series))
			}
		})
	}
}

func cliRun(t *testing.T, cli string, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(cli, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("ibpower %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
	}
	return out
}

// rendered is a workload's output plus the packed trace file it read.
type rendered struct {
	output
	packed []byte
}

// render sets w up and makes its timed call, or its traced rebuild.
func render(t *testing.T, w workload, seed int64, dir string, traced bool) rendered {
	t.Helper()
	in, err := w.setup(seed, true, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer in.close()
	var r rendered
	if in.file != nil {
		if r.packed, err = os.ReadFile(in.path); err != nil {
			t.Fatal(err)
		}
	}
	if traced {
		r.output, err = w.traced(in, newTracer(w.name))
	} else {
		r.output, err = w.run(in)
	}
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestSelfTime checks that a span's self time excludes its children.
func TestSelfTime(t *testing.T) {
	tr := newTracer("test")
	tr.spans = []span{
		{Name: "root", Start: 0, End: 10, Parent: -1},
		{Name: "child", Start: 1, End: 4, Parent: 0},
		{Name: "child", Start: 5, End: 7, Parent: 0},
		{Name: "leaf", Start: 2, End: 3, Parent: 1},
	}
	tot := tr.totals()
	for name, want := range map[string][2]float64{
		"root":  {10, 5},
		"child": {5, 4},
		"leaf":  {1, 1},
	} {
		lt := tot[name]
		if lt.total != want[0] || lt.self != want[1] {
			t.Errorf("%s: total %v self %v, want %v %v", name, lt.total, lt.self, want[0], want[1])
		}
	}
}
