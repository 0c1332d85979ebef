package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"ibpower/internal/harness"
	"ibpower/internal/multijob"
	"ibpower/internal/predictor"
	"ibpower/internal/replay"
	"ibpower/internal/scenario"
	"ibpower/internal/topology"
	"ibpower/internal/trace"
	"ibpower/internal/workloads"
)

// workload is one benchmark input: how to set it up, how to make its timed
// call through the harness's public entry point, and how to rebuild the
// same workflow from per-layer calls under the tracer. run and traced must
// render identical bytes.
type workload struct {
	name   string
	setup  func(seed int64, telemetry bool, dir string, tr *tracer) (*input, error)
	run    func(in *input) (output, error)
	traced func(in *input, tr *tracer) (output, error)
}

var benchWorkloads = []workload{
	{name: "gt-table3", setup: setupGT, run: runGT, traced: tracedGT},
	{name: "compare-paper", setup: setupCompare, run: runCompare, traced: tracedCompare},
	{name: "churn-big", setup: setupChurn, run: runChurn, traced: tracedChurn},
}

func lookup(name string) (workload, error) {
	for _, w := range benchWorkloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, workloadNames())
}

func workloadNames() string {
	var names []string
	for _, w := range benchWorkloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// Workload parameters. Each matches an ibpower invocation (see
// perfbench/README.md), which the package test checks byte for byte.
const (
	gtScale      = 0.3  // ibpower gt -scale 0.3
	compareScale = 0.1  // ibpower compare -scale 0.1 -d 0.01
	churnScale   = 0.1  // ibpower scenario -scale 0.1 ...
	displacement = 0.01 // compare and scenario -d
	churnFabric  = "xgft3-big"
	churnSched   = "backfill"
	churnPlace   = "random"
)

var (
	churnApps  = []string{"alya", "gromacs", "nasbt"}
	churnSizes = []int{16, 32, 64}
)

// churnStreamSeed pins churn-big's arrival and fault streams. The workload
// seed still varies the traces (hence thresholds and timings) and the random
// placement (hence the route working set); letting it redraw the 100-job
// stream as well made wall time differ by 13-15% between seeds, which no
// bound the benchmark may set could hold (see perfbench/README.md).
const churnStreamSeed = 42

// churnSpec is the churn-big scenario spec.
func churnSpec() string {
	sizes := make([]string, len(churnSizes))
	for i, n := range churnSizes {
		sizes[i] = fmt.Sprint(n)
	}
	return fmt.Sprintf("jobs=100,apps=%s,size=choices:%s,arrival=poisson:30ms,"+
		"faults=link:poisson:100ms:mttr=100ms,switch:poisson:1s:mttr=300ms,seed=%d",
		strings.Join(churnApps, "+"), strings.Join(sizes, ":"), churnStreamSeed)
}

// input is a workload after set-up. The traced workflow also leaves in it
// the sources it read, the thresholds it chose and the work it replayed, for
// the probes and per-layer metrics that follow.
type input struct {
	seed   int64
	opt    workloads.Options
	cfg    replay.Config
	fabric topology.Fabric
	events int64 // MPI calls in the workload's input traces

	// churn-big only.
	spec       scenario.Spec
	arrivals   []multijob.Arrival
	shapeCalls map[trace.Meta]int64 // MPI calls per packed trace
	file       *trace.File
	path       string

	// Filled by the traced workflow.
	sources     []trace.Source
	gts         []time.Duration // chosen threshold per source
	genOps      int64           // ops produced by workloads.Generate
	baseEvents  int64           // MPI calls replayed without the mechanism
	powerEvents int64           // MPI calls replayed with it
	transfers   int64
	unroutable  int64
	retryPct    float64
}

func (in *input) close() {
	if in.file != nil {
		in.file.Close()
		os.Remove(in.path)
	}
}

// point is one (application, process count) cell of the paper's grid.
type point struct {
	app string
	np  int
}

// gridPoints enumerates the paper's 25 points in the harness's row order.
func gridPoints() []point {
	var pts []point
	for _, app := range workloads.Apps() {
		for _, np := range workloads.ProcCounts(app) {
			pts = append(pts, point{app, np})
		}
	}
	return pts
}

// setupGrid resolves the fabric a grid workload's runner is configured with.
func setupGrid(seed int64, scale float64, pred string, tr *tracer) (*input, error) {
	in := &input{
		seed: seed,
		opt:  workloads.Options{Seed: seed, IterScale: scale},
		cfg:  replay.DefaultConfig().WithPredictor(pred).WithFabric(topology.DefaultFabric),
	}
	in.cfg.Parallelism = 1
	err := tr.do("topology.build", -1, func() (err error) {
		in.fabric, err = in.cfg.Fabric()
		return err
	})
	return in, err
}

// gridEvents counts the MPI calls of the grid's traces by generating them
// again after the timed call: the harness runner keeps its traces private.
func gridEvents(opt workloads.Options) (int64, error) {
	var n int64
	for _, p := range gridPoints() {
		tr, err := workloads.Generate(p.app, p.np, opt)
		if err != nil {
			return 0, err
		}
		n += int64(tr.NumCalls())
	}
	return n, nil
}

// generate is workloads.Generate under a span, counting the ops produced.
func generate(in *input, tr *tracer, parent int, app string, np int) (*trace.Trace, error) {
	var t *trace.Trace
	err := tr.do("workloads.generate", parent, func() (err error) {
		t, err = workloads.Generate(app, np, in.opt)
		return err
	})
	if err != nil {
		return nil, err
	}
	in.genOps += int64(t.NumOps())
	return t, nil
}

// chooseGT is harness.ChooseGT over the default grid under a span.
func chooseGT(tr *tracer, parent int, src trace.Source) (gt time.Duration, hit float64, err error) {
	err = tr.do("harness.choose_gt", parent, func() (err error) {
		gt, hit, err = harness.ChooseGT(src, harness.DefaultGTGrid(), 1.0)
		return err
	})
	return gt, hit, err
}

// replaySource is replay.RunSource under a span named kind, counting the
// MPI calls replayed and the transfers timed.
func replaySource(in *input, tr *tracer, parent int, kind string, src trace.Source, cfg replay.Config, calls int64) (*replay.Result, error) {
	var res *replay.Result
	err := tr.do(kind, parent, func() (err error) {
		res, err = replay.RunSource(src, cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	if kind == "replay.baseline" {
		in.baseEvents += calls
	} else {
		in.powerEvents += calls
	}
	in.transfers += int64(res.Transfers)
	return res, nil
}

// gt-table3: Table III, GT selection over the paper's 25 points
// (ibpower gt -scale 0.3 -parallel 1).

func setupGT(seed int64, _ bool, _ string, tr *tracer) (*input, error) {
	return setupGrid(seed, gtScale, predictor.DefaultName, tr)
}

func runGT(in *input) (output, error) {
	rows, err := harness.NewRunner(in.opt, in.cfg).TableIII()
	if err != nil {
		return output{}, err
	}
	var buf bytes.Buffer
	err = harness.WriteTableIII(&buf, rows)
	return output{text: buf.Bytes()}, err
}

func tracedGT(in *input, tr *tracer) (output, error) {
	root := tr.begin("harness.table3", -1)
	var rows []harness.TableIIIRow
	for _, p := range gridPoints() {
		t, err := generate(in, tr, root, p.app, p.np)
		if err != nil {
			return output{}, err
		}
		gt, hit, err := chooseGT(tr, root, t)
		if err != nil {
			return output{}, err
		}
		in.sources = append(in.sources, t)
		in.gts = append(in.gts, gt)
		rows = append(rows, harness.TableIIIRow{App: p.app, NP: p.np, GT: gt, HitRatePct: hit})
	}
	tr.end(root)
	var buf bytes.Buffer
	err := harness.WriteTableIII(&buf, rows)
	return output{text: buf.Bytes()}, err
}

// compare-paper: every registered predictor over the 25 points on the
// paper's fabric (ibpower compare -scale 0.1 -parallel 1).

func setupCompare(seed int64, _ bool, _ string, tr *tracer) (*input, error) {
	return setupGrid(seed, compareScale, "", tr)
}

func runCompare(in *input) (output, error) {
	rows, err := harness.NewRunner(in.opt, in.cfg).Compare(displacement, nil)
	if err != nil {
		return output{}, err
	}
	var buf bytes.Buffer
	err = harness.WriteCompare(&buf, displacement, rows)
	return output{text: buf.Bytes()}, err
}

// tracedCompare rebuilds Runner.Compare: per point, generate, choose GT,
// replay the power-unaware baseline once, then each predictor at that GT.
func tracedCompare(in *input, tr *tracer) (output, error) {
	root := tr.begin("harness.compare", -1)
	base := in.cfg
	base.Power = replay.PowerConfig{}
	var rows []harness.CompareRow
	for _, p := range gridPoints() {
		t, err := generate(in, tr, root, p.app, p.np)
		if err != nil {
			return output{}, err
		}
		gt, _, err := chooseGT(tr, root, t)
		if err != nil {
			return output{}, err
		}
		calls := int64(t.NumCalls())
		in.sources = append(in.sources, t)
		in.gts = append(in.gts, gt)
		b, err := replaySource(in, tr, root, "replay.baseline", t, base, calls)
		if err != nil {
			return output{}, err
		}
		for _, name := range predictor.Names() {
			res, err := replaySource(in, tr, root, "replay.power", t,
				in.cfg.WithPredictor(name).WithPower(gt, displacement), calls)
			if err != nil {
				return output{}, err
			}
			rows = append(rows, compareRow(p, name, gt, res, b))
		}
	}
	tr.end(root)
	var buf bytes.Buffer
	err := harness.WriteCompare(&buf, displacement, rows)
	return output{text: buf.Bytes()}, err
}

// compareRow fills one comparison cell exactly as Runner.Compare does.
func compareRow(p point, name string, gt time.Duration, res, base *replay.Result) harness.CompareRow {
	row := harness.CompareRow{
		App:             p.app,
		Predictor:       name,
		NP:              p.np,
		GT:              gt,
		SavingPct:       res.AvgSavingPct(),
		TimeIncreasePct: res.TimeIncreasePct(base),
		HitRatePct:      res.AvgHitRatePct(),
		Shutdowns:       res.Shutdowns,
		DemandWakes:     res.DemandWakes,
	}
	if wakes := res.TimerWakes + res.DemandWakes; wakes > 0 {
		row.TimerWakePct = 100 * float64(res.TimerWakes) / float64(wakes)
	}
	return row
}

// churn-big: 100 jobs of three applications arriving on xgft3-big with
// link and switch faults, served from a packed trace file, telemetry on
// (ibpower scenario -scale 0.1 -topo xgft3-big -sched backfill -placement
// random -tracefile <packed> -timeseries <json> -parallel 1).

// setupChurn builds the fabric, expands the spec, and packs the nine
// (application, size) traces into a file the run reads through cursors
// (ibpower trace pack -scale 0.1).
func setupChurn(seed int64, telemetry bool, dir string, tr *tracer) (*input, error) {
	in := &input{
		seed: seed,
		opt:  workloads.Options{Seed: seed, IterScale: churnScale},
		cfg:  replay.DefaultConfig().WithPredictor(predictor.DefaultName).WithFabric(churnFabric),
		path: filepath.Join(dir, fmt.Sprintf("churn-big-%d-%d.ibt", seed, os.Getpid())),
	}
	in.cfg.Parallelism = 1
	in.cfg.Telemetry.Enabled = telemetry
	if err := tr.do("topology.build", -1, func() (err error) {
		in.fabric, err = in.cfg.Fabric()
		return err
	}); err != nil {
		return nil, err
	}
	if err := tr.do("scenario.expand", -1, func() (err error) {
		if in.spec, err = scenario.ParseSpec(churnSpec()); err != nil {
			return err
		}
		in.arrivals, err = in.spec.Generate()
		return err
	}); err != nil {
		return nil, err
	}

	in.shapeCalls = map[trace.Meta]int64{}
	var traces []trace.Source
	for _, app := range churnApps {
		for _, np := range churnSizes {
			t, err := generate(in, tr, -1, app, np)
			if err != nil {
				return nil, err
			}
			in.shapeCalls[t.Meta()] = int64(t.NumCalls())
			traces = append(traces, t)
		}
	}
	for _, a := range in.arrivals {
		n, ok := in.shapeCalls[trace.Meta{App: a.Job.App, NP: a.Job.NP}]
		if !ok {
			return nil, fmt.Errorf("arrival %s is not among the packed traces", a.Job)
		}
		in.events += n
	}
	if err := tr.do("trace.pack", -1, func() error { return pack(in.path, traces) }); err != nil {
		return nil, err
	}
	f, err := trace.OpenFile(in.path)
	if err != nil {
		os.Remove(in.path)
		return nil, err
	}
	in.file = f
	return in, nil
}

// pack writes srcs to a packed trace file at path, removing it on failure.
func pack(path string, srcs []trace.Source) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = trace.WriteBinarySources(f, srcs...)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
	}
	return err
}

func runChurn(in *input) (output, error) {
	r := harness.NewRunner(in.opt, in.cfg)
	r.File = in.file
	res, err := r.Scenario(in.spec, churnSched, churnPlace, displacement)
	if err != nil {
		return output{}, err
	}
	return renderChurn(in, res)
}

// renderChurn prints what ibpower scenario prints, plus its -timeseries
// JSON when telemetry is on.
func renderChurn(in *input, res *multijob.ChurnResult) (output, error) {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "scenario %s\n", in.spec)
	if err := multijob.WriteChurn(&buf, res); err != nil {
		return output{}, err
	}
	out := output{text: buf.Bytes()}
	if in.cfg.Telemetry.Enabled {
		var ts bytes.Buffer
		if err := res.Series.WriteJSON(&ts); err != nil {
			return output{}, err
		}
		out.series = ts.Bytes()
	}
	return out, nil
}

// tracedChurn rebuilds Runner.Scenario: scenario.Run with the runner's
// Generate, SelectGT and Dedicated hooks, each under its own span. The churn
// engine calls each hook once per distinct (application, size), so the
// runner's caches have nothing to add here.
func tracedChurn(in *input, tr *tracer) (output, error) {
	root := tr.begin("scenario.run", -1)
	srcs := map[trace.Meta]trace.Source{}
	gts := map[trace.Meta]time.Duration{}
	cfg := scenario.Config{
		Spec:         in.spec,
		Scheduler:    churnSched,
		Placement:    churnPlace,
		Opt:          in.opt,
		Displacement: displacement,
		Replay:       in.cfg,
		Generate: func(app string, np int) (src trace.Source, err error) {
			err = tr.do("multijob.generate", root, func() error {
				if in.file.Has(app, np) {
					src, err = in.file.Source(app, np)
				} else {
					src, err = generate(in, tr, root, app, np)
				}
				return err
			})
			srcs[trace.Meta{App: app, NP: np}] = src
			return src, err
		},
		SelectGT: func(src trace.Source) (time.Duration, error) {
			id := tr.begin("multijob.select_gt", root)
			gt, _, err := chooseGT(tr, id, src)
			tr.end(id)
			gts[src.Meta()] = gt
			return gt, err
		},
		Dedicated: func(src trace.Source, gt time.Duration, d float64) (*replay.Result, error) {
			id := tr.begin("multijob.dedicated", root)
			bcfg := in.cfg
			bcfg.Power = multijob.JobPower(in.cfg, gt, d)
			res, err := replaySource(in, tr, id, "replay.power", src, bcfg, in.shapeCalls[src.Meta()])
			tr.end(id)
			return res, err
		},
	}
	res, err := scenario.Run(cfg)
	tr.end(root)
	if err != nil {
		return output{}, err
	}

	metas := make([]trace.Meta, 0, len(srcs))
	for m := range srcs {
		metas = append(metas, m)
	}
	sort.Slice(metas, func(i, j int) bool {
		if metas[i].App != metas[j].App {
			return metas[i].App < metas[j].App
		}
		return metas[i].NP < metas[j].NP
	})
	for _, m := range metas {
		in.sources = append(in.sources, srcs[m])
		in.gts = append(in.gts, gts[m])
	}
	in.transfers += int64(res.Fabric.Transfers)
	in.unroutable = int64(res.Unroutable)
	in.retryPct = 100 * float64(res.Retried) / float64(len(res.Jobs))
	return renderChurn(in, res)
}
