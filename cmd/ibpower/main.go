// Command ibpower regenerates the paper's tables and figures.
//
// Subcommands:
//
//	tableI            idle-interval distributions (Table I)
//	gt                GT sweep for one workload (Figure 10) or all (Table III)
//	overheads         measured PPA overheads at 16 processes (Table IV)
//	figures           power savings and execution-time increase (Figures 7–9)
//	compare           every registered predictor over every workload (E14)
//	multijob          concurrent workloads sharing one fabric (E15)
//	scenario          job churn: arrivals, queueing, scheduling (E16); -faults/-faultsweep add hardware failures (E17)
//	timeline          per-rank link power timeline (Figure 6)
//	ppa               PPA walkthrough on the Figure 2/3 event stream
//	energy            Section VI extension: deep modes + fabric energy
//	dvs               related-work baseline: history-based link DVS vs WRPS
//	weak              claim check: weak vs strong scaling (Section III)
//	bench             headline benchmarks -> BENCH_<label>.json trajectory point
//	topos             registered fabrics with size and compact-table memory
//	trace             packed binary trace files: pack, cat, info
//
// Every subcommand accepts -predictor to select the idle predictor from the
// registry (ngram, oracle, offline, lastvalue, ewma, static-gt); compare
// runs them all side by side. Every subcommand also accepts -topo to select
// the simulated fabric from the topology registry (xgft — the paper's
// XGFT(2;18,14;1,18) and the default — xgft3, dragonfly, torus2d, torus3d,
// and the supercomputer-scale xgft3-big and dragonfly-big at ~8000
// terminals), so e.g. "ibpower compare -topo dragonfly" reruns the full
// predictor sweep on a dragonfly; "ibpower topos" lists every fabric with
// its size and compact-table memory. The multijob subcommand additionally takes -jobs (an
// app:np,... mix) and -placement (linear, random, roundrobin) from the
// placement registry. The scenario subcommand generates a whole arrival
// stream from -spec (e.g. "jobs=200,size=zipf:16:256,arrival=poisson:30s,
// seed=7") or -specfile, and schedules it with -sched (fcfs, backfill,
// power-aware) from the scheduler registry — the module's fourth named
// registry; -faults injects seeded link/switch/terminal failures
// ("link:poisson:10m:mttr=2m,switch:fixed:5m") with degraded routing and
// job retry, and -faultsweep grids ";"-separated fault specs against every
// scheduler (E17). Replay-driven subcommands accept -tracefile to serve
// workloads from a packed binary trace file (written by "ibpower trace
// pack") through a bounded streaming window instead of the generator.
// Run "ibpower <subcommand> -h" for flags.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"ibpower/internal/benchio"
	"ibpower/internal/dvs"
	"ibpower/internal/harness"
	"ibpower/internal/multijob"
	"ibpower/internal/ngram"
	"ibpower/internal/power"
	"ibpower/internal/predictor"
	"ibpower/internal/replay"
	"ibpower/internal/scenario"
	"ibpower/internal/stats"
	"ibpower/internal/sweep"
	"ibpower/internal/topology"
	"ibpower/internal/trace"
	"ibpower/internal/workloads"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "tableI":
		err = cmdTableI(os.Args[2:])
	case "gt":
		err = cmdGT(os.Args[2:])
	case "overheads":
		err = cmdOverheads(os.Args[2:])
	case "figures":
		err = cmdFigures(os.Args[2:])
	case "compare":
		err = cmdCompare(os.Args[2:])
	case "multijob":
		err = cmdMultijob(os.Args[2:])
	case "scenario":
		err = cmdScenario(os.Args[2:])
	case "timeline":
		err = cmdTimeline(os.Args[2:])
	case "ppa":
		err = cmdPPA(os.Args[2:])
	case "energy":
		err = cmdEnergy(os.Args[2:])
	case "dvs":
		err = cmdDVS(os.Args[2:])
	case "weak":
		err = cmdWeak(os.Args[2:])
	case "bench":
		err = cmdBench(os.Args[2:])
	case "topos":
		err = cmdTopos(os.Args[2:])
	case "trace":
		err = cmdTrace(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "ibpower: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ibpower:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: ibpower <tableI|gt|overheads|figures|compare|multijob|scenario|timeline|ppa|energy|dvs|weak|bench|topos|trace> [flags]`)
}

// cmdBench runs the headline benchmark suite (internal/benchio) and writes a
// BENCH_<label>.json trajectory point. With -baseline it additionally gates
// the run: any gated benchmark whose ns/op exceeds the baseline by more than
// -maxratio fails the command (the CI bench-smoke job).
func cmdBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	smoke := fs.Bool("smoke", false, "short measurement window; skips full-sweep benchmarks (CI gating mode)")
	label := fs.String("label", "pr", "trajectory label recorded in the report")
	out := fs.String("o", "", "output path (default BENCH_<label>.json)")
	baseline := fs.String("baseline", "", "baseline BENCH_*.json to gate against (empty: no gate)")
	maxRatio := fs.Float64("maxratio", 2.0, "fail when a gated benchmark's ns/op exceeds baseline by this factor")
	check := fs.String("check", "BenchmarkReplayAlya16,BenchmarkNetworkTransfer,BenchmarkDragonflyTransfer,BenchmarkBigFabricRoutes",
		"comma-separated benchmarks gated against the baseline")
	// The suite pins its own fabrics (paper XGFT and dragonfly entries); the
	// flag exists for interface uniformity and is validated only.
	topo := topoFlag(fs)
	fs.Parse(args)
	if err := checkTopo(*topo); err != nil {
		return err
	}

	rep, err := benchio.RunSuite(*label, *smoke)
	if err != nil {
		return err
	}
	t := stats.NewTable("benchmark", "iters", "ns/op", "allocs/op", "B/op")
	for _, r := range rep.Results {
		t.Row(r.Name, r.Iterations, r.NsPerOp, r.AllocsPerOp, r.BytesPerOp)
	}
	if err := t.Write(os.Stdout); err != nil {
		return err
	}
	path := *out
	if path == "" {
		path = "BENCH_" + *label + ".json"
	}
	if err := rep.WriteFile(path); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)

	if *baseline == "" {
		return nil
	}
	base, err := benchio.LoadFile(*baseline)
	if err != nil {
		return err
	}
	names := strings.Split(*check, ",")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
	}
	if regs := benchio.Compare(base, rep, names, *maxRatio); len(regs) > 0 {
		for _, g := range regs {
			fmt.Fprintln(os.Stderr, "REGRESSION:", g)
		}
		return fmt.Errorf("bench: %d benchmark(s) regressed more than %.1fx vs %s", len(regs), *maxRatio, *baseline)
	}
	fmt.Printf("no ns/op, allocs/op or bytes/op regression > %.1fx vs %s (%s)\n", *maxRatio, *baseline, strings.Join(names, ", "))
	return nil
}

// cmdTopos lists every registered fabric with its size and the resident
// memory of its compact tables (the flat link table plus the fabric's own
// routing arrays) — the quickest way to see what -topo accepts and what an
// instance costs to hold.
func cmdTopos(args []string) error {
	fs := flag.NewFlagSet("topos", flag.ExitOnError)
	topo := fs.String("topo", "", "list only this fabric (default: all registered)")
	fs.Parse(args)
	names := topology.Names()
	if *topo != "" {
		if err := checkTopo(*topo); err != nil {
			return err
		}
		names = []string{*topo}
	}
	t := stats.NewTable("fabric", "instance", "terminals", "switches", "cables", "links", "compact KiB")
	for _, name := range names {
		f, err := topology.Named(name)
		if err != nil {
			return err
		}
		t.Row(name, f.Name(), f.NumTerminals(), f.NumSwitches(), f.NumCables(), f.NumLinks(),
			fmt.Sprintf("%.1f", float64(topology.CompactBytes(f))/1024))
	}
	return t.Write(os.Stdout)
}

// cmdWeak tests the paper's Section III prediction that the mechanism is
// more effective under weak scaling.
func cmdWeak(args []string) error {
	fs := flag.NewFlagSet("weak", flag.ExitOnError)
	opt := optFlags(fs)
	par := parFlag(fs)
	pred := predFlag(fs, predictor.DefaultName)
	topo := topoFlag(fs)
	d := fs.Float64("d", 0.01, "displacement factor")
	tf := traceFileFlag(fs)
	fs.Parse(args)
	if err := checkFlags(opt, *pred, *topo); err != nil {
		return err
	}
	runner := harness.NewRunner(*opt, configWith(*par, *pred, *topo))
	closeTF, err := attachTraceFile(runner, *tf)
	if err != nil {
		return err
	}
	defer closeTF()
	rows, err := runner.WeakScaling(*d)
	if err != nil {
		return err
	}
	return harness.WriteWeakScaling(os.Stdout, rows)
}

// cmdDVS compares the WRPS on/off mechanism against the history-based link
// DVS baseline (related work, Section V) on host-link power.
func cmdDVS(args []string) error {
	fs := flag.NewFlagSet("dvs", flag.ExitOnError)
	opt := optFlags(fs)
	par := parFlag(fs)
	pred := predFlag(fs, predictor.DefaultName)
	topo := topoFlag(fs)
	np := fs.Int("np", 16, "process count")
	d := fs.Float64("d", 0.01, "WRPS displacement factor")
	fs.Parse(args)
	if err := checkFlags(opt, *pred, *topo); err != nil {
		return err
	}
	type row struct {
		wrps *replay.Result
		dv   *dvs.Result
	}
	apps := workloads.Apps()
	rows, err := sweep.Map(context.Background(), *par, apps,
		func(_ context.Context, _ int, app string) (row, error) {
			tr, err := workloads.Generate(app, *np, *opt)
			if err != nil {
				return row{}, err
			}
			gt, _, err := harness.ChooseGT(tr, harness.DefaultGTGrid(), 1.0)
			if err != nil {
				return row{}, err
			}
			wrps, err := replay.Run(tr, replay.DefaultConfig().WithPredictor(*pred).WithFabric(*topo).WithPower(gt, *d))
			if err != nil {
				return row{}, err
			}
			dv, err := dvs.Evaluate(tr, dvs.DefaultConfig())
			if err != nil {
				return row{}, err
			}
			return row{wrps: wrps, dv: dv}, nil
		})
	if err != nil {
		return err
	}
	t := stats.NewTable("app", "Nproc", "WRPS saving[%]", "DVS saving[%]", "DVS added serial/rank")
	for i, app := range apps {
		t.Row(app, *np, rows[i].wrps.AvgSavingPct(), rows[i].dv.AvgSavingPct(),
			rows[i].dv.AvgAddedSerial().Round(time.Microsecond))
	}
	return t.Write(os.Stdout)
}

// cmdEnergy runs the extension experiment: lanes-only vs deep-sleep savings
// under the whole-switch and decomposed fabric power models.
func cmdEnergy(args []string) error {
	fs := flag.NewFlagSet("energy", flag.ExitOnError)
	opt := optFlags(fs)
	par := parFlag(fs)
	pred := predFlag(fs, predictor.DefaultName)
	topo := topoFlag(fs)
	d := fs.Float64("d", 0.01, "displacement factor")
	apps := fs.String("apps", "", "comma-separated app filter (default all)")
	np := fs.Int("np", 16, "process count")
	deepUS := fs.Int("deepus", 1000, "deep-mode reactivation time [us]")
	fs.Parse(args)
	if err := checkFlags(opt, *pred, *topo); err != nil {
		return err
	}
	names := workloads.Apps()
	if *apps != "" {
		names = strings.Split(*apps, ",")
	}
	deep := power.DeepConfig{Treact: time.Duration(*deepUS) * time.Microsecond}
	fmt.Printf("deep mode: reactivation %v, entry threshold %v (energy breakeven)\n",
		deep.Treact, deep.BreakevenIdle(power.Treact).Round(time.Microsecond))
	cfg := replay.DefaultConfig().WithPredictor(*pred).WithFabric(*topo)
	rows, err := sweep.Map(context.Background(), *par, names,
		func(_ context.Context, _ int, app string) (*harness.EnergyRow, error) {
			return harness.Energy(strings.TrimSpace(app), *np, *d, *opt, deep, cfg)
		})
	if err != nil {
		return err
	}
	return harness.WriteEnergy(os.Stdout, rows)
}

func optFlags(fs *flag.FlagSet) *workloads.Options {
	opt := &workloads.Options{}
	fs.Int64Var(&opt.Seed, "seed", 42, "generation seed")
	fs.Float64Var(&opt.IterScale, "scale", 1.0, "iteration count multiplier")
	return opt
}

// parFlag registers the worker-pool size shared by every subcommand.
// Results are bit-identical at any setting; only wall-clock time changes.
func parFlag(fs *flag.FlagSet) *int {
	return fs.Int("parallel", 0, "max concurrent experiment points (0 = GOMAXPROCS, 1 = serial)")
}

// predFlag registers the predictor selection shared by every subcommand.
// def is the default name ("" on compare, which runs all of them).
func predFlag(fs *flag.FlagSet, def string) *string {
	return fs.String("predictor", def,
		"idle predictor (one of: "+strings.Join(predictor.Names(), ", ")+")")
}

// topoFlag registers the fabric selection shared by every subcommand.
func topoFlag(fs *flag.FlagSet) *string {
	return fs.String("topo", topology.DefaultFabric,
		"interconnect fabric (one of: "+strings.Join(topology.Names(), ", ")+")")
}

// checkPredictor validates a -predictor value before any simulation starts,
// so a typo fails fast on every subcommand. The empty value (compare's
// default) means "all registered".
func checkPredictor(name string) error {
	if name == "" {
		return nil
	}
	return predictor.CheckRegistered(name)
}

// checkTopo validates a -topo value before any simulation starts, mirroring
// checkPredictor: a typo fails fast listing the fabric registry.
func checkTopo(name string) error {
	return topology.CheckRegistered(name)
}

// checkScale rejects a -scale that is not a finite number > 0 (NaN fails
// the comparison), so the flag never silently means "full scale" the way
// the library's zero workloads.Options does.
func checkScale(scale float64) error {
	if !(scale > 0) || math.IsInf(scale, 1) {
		return fmt.Errorf("-scale %v: must be a finite number > 0", scale)
	}
	return nil
}

// checkFlags validates the shared flags together: -scale for subcommands
// that generate workloads (opt non-nil), then the -predictor and -topo
// selections.
func checkFlags(opt *workloads.Options, pred, topo string) error {
	if opt != nil {
		if err := checkScale(opt.IterScale); err != nil {
			return err
		}
	}
	if err := checkPredictor(pred); err != nil {
		return err
	}
	return checkTopo(topo)
}

// configWith returns the default replay config bounded to par workers with
// the named predictor and fabric selected.
func configWith(par int, pred, topo string) replay.Config {
	cfg := replay.DefaultConfig().WithPredictor(pred).WithFabric(topo)
	cfg.Parallelism = par
	return cfg
}

func cmdTableI(args []string) error {
	fs := flag.NewFlagSet("tableI", flag.ExitOnError)
	opt := optFlags(fs)
	par := parFlag(fs)
	pred := predFlag(fs, predictor.DefaultName)
	topo := topoFlag(fs)
	tf := traceFileFlag(fs)
	fs.Parse(args)
	if err := checkFlags(opt, *pred, *topo); err != nil {
		return err
	}
	runner := harness.NewRunner(*opt, configWith(*par, *pred, *topo))
	closeTF, err := attachTraceFile(runner, *tf)
	if err != nil {
		return err
	}
	defer closeTF()
	rows, err := runner.TableI()
	if err != nil {
		return err
	}
	return harness.WriteTableI(os.Stdout, rows)
}

func cmdGT(args []string) error {
	fs := flag.NewFlagSet("gt", flag.ExitOnError)
	opt := optFlags(fs)
	par := parFlag(fs)
	pred := predFlag(fs, predictor.DefaultName)
	topo := topoFlag(fs)
	app := fs.String("app", "", "application (empty: Table III over all apps)")
	np := fs.Int("np", 64, "process count for -app sweeps")
	tf := traceFileFlag(fs)
	fs.Parse(args)
	if err := checkFlags(opt, *pred, *topo); err != nil {
		return err
	}
	npSet := false
	fs.Visit(func(f *flag.Flag) { npSet = npSet || f.Name == "np" })
	if npSet && *app == "" {
		return fmt.Errorf("gt: -np needs -app (without -app, gt prints Table III for every app and process count)")
	}
	if *app == "" {
		// Table III: GT selection always scores the reference n-gram
		// predictor (see harness.ChooseGT); -predictor is validated only.
		runner := harness.NewRunner(*opt, configWith(*par, *pred, *topo))
		closeTF, err := attachTraceFile(runner, *tf)
		if err != nil {
			return err
		}
		defer closeTF()
		rows, err := runner.TableIII()
		if err != nil {
			return err
		}
		return harness.WriteTableIII(os.Stdout, rows)
	}
	var src trace.Source
	if *tf != "" {
		f, err := trace.OpenFile(*tf)
		if err != nil {
			return err
		}
		defer f.Close()
		if f.Has(*app, *np) {
			if src, err = f.Source(*app, *np); err != nil {
				return err
			}
		}
	}
	if src == nil {
		tr, err := workloads.Generate(*app, *np, *opt)
		if err != nil {
			return err
		}
		src = tr
	}
	// The GT sweep scores hit rate on the network-free offline runner
	// (predictor + controller only), so the fabric cannot affect it: -topo
	// is validated only, like on ppa and bench.
	pts, err := harness.GTSweepNamed(src, *pred, harness.DefaultGTGrid(), *par)
	if err != nil {
		return err
	}
	return harness.WriteGTSweep(os.Stdout, *app, *np, *pred, pts)
}

func cmdOverheads(args []string) error {
	fs := flag.NewFlagSet("overheads", flag.ExitOnError)
	opt := optFlags(fs)
	par := parFlag(fs)
	pred := predFlag(fs, predictor.DefaultName)
	topo := topoFlag(fs)
	tf := traceFileFlag(fs)
	fs.Parse(args)
	if err := checkFlags(opt, *pred, *topo); err != nil {
		return err
	}
	runner := harness.NewRunner(*opt, configWith(*par, *pred, *topo))
	closeTF, err := attachTraceFile(runner, *tf)
	if err != nil {
		return err
	}
	defer closeTF()
	rows, err := runner.TableIV()
	if err != nil {
		return err
	}
	return harness.WriteTableIV(os.Stdout, rows)
}

func cmdFigures(args []string) error {
	fs := flag.NewFlagSet("figures", flag.ExitOnError)
	opt := optFlags(fs)
	par := parFlag(fs)
	pred := predFlag(fs, predictor.DefaultName)
	topo := topoFlag(fs)
	d := fs.Float64("d", 0, "displacement factor (0: all of 0.10, 0.05, 0.01)")
	apps := fs.String("apps", "", "comma-separated app filter")
	tf := traceFileFlag(fs)
	fs.Parse(args)
	if err := checkFlags(opt, *pred, *topo); err != nil {
		return err
	}
	ds := harness.Displacements
	if *d > 0 {
		ds = []float64{*d}
	}
	// One Runner across displacement factors: traces and GT choices are
	// generated once and shared by all three figures.
	runner := harness.NewRunner(*opt, configWith(*par, *pred, *topo))
	closeTF, err := attachTraceFile(runner, *tf)
	if err != nil {
		return err
	}
	defer closeTF()
	for _, disp := range ds {
		rows, err := runner.Figure(disp)
		if err != nil {
			return err
		}
		if *apps != "" {
			rows = filterRows(rows, *apps)
		}
		if err := harness.WriteFigure(os.Stdout, disp, rows); err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}

// cmdCompare runs the predictor comparison sweep (experiment E14): every
// registered predictor — or just the one named with -predictor — over every
// (application, process count) point, all at the workload's Table III
// grouping threshold against one shared baseline replay.
func cmdCompare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	opt := optFlags(fs)
	par := parFlag(fs)
	pred := predFlag(fs, "")
	topo := topoFlag(fs)
	d := fs.Float64("d", 0.01, "displacement factor")
	apps := fs.String("apps", "", "comma-separated app filter")
	tf := traceFileFlag(fs)
	fs.Parse(args)
	if err := checkFlags(opt, *pred, *topo); err != nil {
		return err
	}
	var names []string
	if *pred != "" {
		names = []string{*pred}
	}
	// The app filter restricts the sweep itself: filtered-out workloads are
	// never generated or replayed.
	var only []string
	if *apps != "" {
		for _, a := range strings.Split(*apps, ",") {
			only = append(only, strings.TrimSpace(a))
		}
	}
	runner := harness.NewRunner(*opt, configWith(*par, "", *topo))
	closeTF, err := attachTraceFile(runner, *tf)
	if err != nil {
		return err
	}
	defer closeTF()
	rows, err := runner.Compare(*d, names, only...)
	if err != nil {
		return err
	}
	return harness.WriteCompare(os.Stdout, *d, rows)
}

// cmdMultijob simulates concurrent workloads sharing one fabric (experiment
// E15): each job of the -jobs mix gets its own trace, Table III grouping
// threshold, predictor and placement-assigned terminals, and the shared
// replay times the union of all jobs' traffic. With -sweep it runs every
// registered placement over the default job mixes instead of one scenario.
func cmdMultijob(args []string) error {
	fs := flag.NewFlagSet("multijob", flag.ExitOnError)
	opt := optFlags(fs)
	par := parFlag(fs)
	pred := predFlag(fs, predictor.DefaultName)
	topo := topoFlag(fs)
	jobsStr := fs.String("jobs", "gromacs:16,alya:16", "job mix as app:np,... (e.g. gromacs:64,alya:16)")
	placement := fs.String("placement", multijob.DefaultPlacement,
		"placement policy (one of: "+strings.Join(multijob.Names(), ", ")+")")
	d := fs.Float64("d", 0.01, "displacement factor")
	sweepAll := fs.Bool("sweep", false, "run every placement over the default job mixes (ignores -jobs/-placement)")
	tf := traceFileFlag(fs)
	tsPath := timeseriesFlag(fs)
	fs.Parse(args)
	if err := checkFlags(opt, *pred, *topo); err != nil {
		return err
	}
	if err := multijob.CheckRegistered(*placement); err != nil {
		return err
	}
	if *tsPath != "" && *sweepAll {
		return fmt.Errorf("ibpower: -timeseries records a single run; drop -sweep")
	}
	cfg := configWith(*par, *pred, *topo)
	if *tsPath != "" {
		cfg.Telemetry.Enabled = true
	}
	runner := harness.NewRunner(*opt, cfg)
	closeTF, err := attachTraceFile(runner, *tf)
	if err != nil {
		return err
	}
	defer closeTF()
	if *sweepAll {
		rows, err := runner.MultijobSweep(nil, nil, *d)
		if err != nil {
			return err
		}
		return harness.WriteMultijobSweep(os.Stdout, rows)
	}
	jobs, err := multijob.ParseJobs(*jobsStr)
	if err != nil {
		return err
	}
	res, err := runner.Multijob(jobs, *placement, *d)
	if err != nil {
		return err
	}
	if err := multijob.WriteResult(os.Stdout, res); err != nil {
		return err
	}
	if *tsPath != "" {
		return writeTimeSeries(*tsPath, res.Series)
	}
	return nil
}

// cmdScenario simulates job churn on one shared fabric (experiment E16):
// -spec/-specfile describe an arrival stream (job count, application mix,
// size distribution, arrival process, seed), jobs queue until the -sched
// policy admits them onto -placement-ordered terminals, and the incremental
// replay session times everything on one live timeline. Results are
// bit-identical at any -parallel setting and across repeats of the same
// spec. With -sweep it runs every scheduler x placement pairing over the
// same stream instead of one cell. -faults injects seeded hardware failures
// (kind:dist:mean[:mttr=d] clauses) on top of the spec; -faultsweep runs a
// resilience grid of ";"-separated fault specs x schedulers (experiment
// E17).
func cmdScenario(args []string) error {
	fs := flag.NewFlagSet("scenario", flag.ExitOnError)
	opt := optFlags(fs)
	par := parFlag(fs)
	pred := predFlag(fs, predictor.DefaultName)
	topo := topoFlag(fs)
	specStr := fs.String("spec", "",
		"scenario spec as key=value,... (keys: jobs, apps, size, arrival, speed, seed, faults; e.g. jobs=200,size=zipf:16:256,arrival=poisson:30s,seed=7)")
	specFile := fs.String("specfile", "", "file with one spec key=value per line (# comments); -spec overlays it")
	sched := fs.String("sched", scenario.DefaultScheduler,
		"scheduling policy (one of: "+strings.Join(scenario.Names(), ", ")+")")
	placement := fs.String("placement", multijob.DefaultPlacement,
		"placement policy ordering the terminal free-list (one of: "+strings.Join(multijob.Names(), ", ")+")")
	d := fs.Float64("d", 0.01, "displacement factor")
	sweepAll := fs.Bool("sweep", false, "run every scheduler x placement pairing over the spec (ignores -sched/-placement)")
	faults := fs.String("faults", "",
		"fault spec as kind:dist:mean[:mttr=d],... (kinds: link, switch, term; e.g. link:poisson:10m:mttr=2m,switch:fixed:5m); overrides the spec's faults key")
	faultSweep := fs.String("faultsweep", "",
		"resilience grid (E17): \";\"-separated fault specs (empty item = fault-free baseline) x every scheduler; ignores -sched/-faults")
	tf := traceFileFlag(fs)
	tsPath := timeseriesFlag(fs)
	fs.Parse(args)
	if err := checkFlags(opt, *pred, *topo); err != nil {
		return err
	}
	if err := scenario.CheckRegistered(*sched); err != nil {
		return err
	}
	if err := multijob.CheckRegistered(*placement); err != nil {
		return err
	}
	spec := scenario.DefaultSpec()
	if *specFile != "" {
		var err error
		spec, err = scenario.ParseSpecFile(*specFile)
		if err != nil {
			return err
		}
	}
	spec, err := scenario.ApplySpec(spec, *specStr)
	if err != nil {
		return err
	}
	if *faults != "" {
		spec.Faults, err = scenario.ParseFaults(*faults)
		if err != nil {
			return err
		}
	}
	if *tsPath != "" && (*sweepAll || *faultSweep != "") {
		return fmt.Errorf("ibpower: -timeseries records a single scenario cell; drop -sweep/-faultsweep")
	}
	cfg := configWith(*par, *pred, *topo)
	if *tsPath != "" {
		cfg.Telemetry.Enabled = true
	}
	runner := harness.NewRunner(*opt, cfg)
	closeTF, err := attachTraceFile(runner, *tf)
	if err != nil {
		return err
	}
	defer closeTF()
	if *faultSweep != "" {
		rows, err := runner.ScenarioFaultSweep(spec, strings.Split(*faultSweep, ";"), nil, *d)
		if err != nil {
			return err
		}
		return harness.WriteScenarioFaultSweep(os.Stdout, spec, rows)
	}
	if *sweepAll {
		rows, err := runner.ScenarioSweep(spec, nil, nil, *d)
		if err != nil {
			return err
		}
		return harness.WriteScenarioSweep(os.Stdout, spec, rows)
	}
	fmt.Printf("scenario %s\n", spec)
	res, err := runner.Scenario(spec, *sched, *placement, *d)
	if err != nil {
		return err
	}
	if err := multijob.WriteChurn(os.Stdout, res); err != nil {
		return err
	}
	if *tsPath != "" {
		return writeTimeSeries(*tsPath, res.Series)
	}
	return nil
}

func filterRows(rows []harness.FigureRow, apps string) []harness.FigureRow {
	keep := map[string]bool{}
	for _, a := range strings.Split(apps, ",") {
		keep[strings.TrimSpace(a)] = true
	}
	var out []harness.FigureRow
	for _, r := range rows {
		if keep[r.App] {
			out = append(out, r)
		}
	}
	return out
}

func cmdTimeline(args []string) error {
	fs := flag.NewFlagSet("timeline", flag.ExitOnError)
	opt := optFlags(fs)
	par := parFlag(fs)
	pred := predFlag(fs, predictor.DefaultName)
	topo := topoFlag(fs)
	app := fs.String("app", "gromacs", "application")
	np := fs.Int("np", 16, "process count")
	d := fs.Float64("d", 0.10, "displacement factor")
	width := fs.Int("width", 100, "rendering width")
	prv := fs.Bool("prv", false, "emit Paraver-like records instead of ASCII")
	tsPath := timeseriesFlag(fs)
	fs.Parse(args)
	if err := checkFlags(opt, *pred, *topo); err != nil {
		return err
	}
	tr, err := workloads.Generate(*app, *np, *opt)
	if err != nil {
		return err
	}
	// A single workload has no point sweep; parallelise the GT grid instead.
	gt, _, err := harness.ChooseGTParallel(tr, harness.DefaultGTGrid(), 1.0, *par)
	if err != nil {
		return err
	}
	cfg := replay.DefaultConfig().WithPredictor(*pred).WithFabric(*topo).WithPower(gt, *d)
	cfg.Power.RecordTimelines = true
	if *tsPath != "" {
		cfg.Telemetry.Enabled = true
	}
	res, err := replay.Run(tr, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("%s with %d MPI processes, GT=%v, displacement=%.0f%%, predictor %s (Figure 6)\n",
		*app, *np, gt, *d*100, *pred)
	if *prv {
		if err := trace.WriteParaver(os.Stdout, res.Timelines); err != nil {
			return err
		}
	} else if err := trace.Render(os.Stdout, res.Timelines, *width); err != nil {
		return err
	}
	if *tsPath != "" {
		return writeTimeSeries(*tsPath, res.Series)
	}
	return nil
}

// cmdPPA replays the paper's Figure 2/3 walkthrough: the Alya event stream
// "41-41-41 10 10" repeated, printing gram formation and the moment the
// pattern is declared predicted.
func cmdPPA(args []string) error {
	fs := flag.NewFlagSet("ppa", flag.ExitOnError)
	reps := fs.Int("reps", 4, "iterations of the 41-41-41,10,10 stream")
	// The walkthrough demonstrates the n-gram algorithms specifically on one
	// process, with no network: both flags exist for interface uniformity
	// and are validated only.
	pred := predFlag(fs, predictor.DefaultName)
	topo := topoFlag(fs)
	fs.Parse(args)
	if err := checkFlags(nil, *pred, *topo); err != nil {
		return err
	}

	gt := 20 * time.Microsecond
	b := ngram.NewBuilder(gt)
	det := ngram.NewDetector(0)
	emit := func(n int, id ngram.EventID, idle time.Duration, t time.Duration) time.Duration {
		if g := b.Add(id, idle, t, t); g != nil {
			act := "add gram to array"
			if det.AddGram(g) {
				act = "gram fed to PPA -> prediction ACTIVE"
			} else if det.Predicting() {
				act = "gram matches predicted pattern"
			}
			fmt.Printf("  gram %-12s gap=%-8v %s\n", g.Key, g.GapBefore, act)
		}
		fmt.Printf("#%-3d MPI id %-3d idle before=%v\n", n, id, idle)
		return t
	}
	var t time.Duration
	n := 0
	for it := 0; it < *reps; it++ {
		for i := 0; i < 3; i++ { // 41-41-41 with sub-GT gaps
			n++
			idle := 5 * time.Microsecond
			if i == 0 {
				idle = 300 * time.Microsecond
			}
			t += idle
			emit(n, 41, idle, t)
		}
		for i := 0; i < 2; i++ { // 10 ___ 10, gaps above GT
			n++
			idle := 200 * time.Microsecond
			t += idle
			emit(n, 10, idle, t)
		}
	}
	if g := b.Flush(); g != nil {
		det.AddGram(g)
	}
	st := det.Stats()
	fmt.Printf("\npatterns detected: %d, predicting: %v\n", st.Detections, det.Predicting())
	if p := det.Active(); p != nil {
		fmt.Printf("predicted pattern: %s (freq %d, %d MPI calls per appearance)\n",
			p.Key, p.Freq, p.NumCalls)
	}
	return nil
}
