package harness

import (
	"context"
	"fmt"
	"sync"
	"time"

	"ibpower/internal/multijob"
	"ibpower/internal/predictor"
	"ibpower/internal/replay"
	"ibpower/internal/sweep"
	"ibpower/internal/trace"
	"ibpower/internal/workloads"
)

// Runner evaluates harness experiments over one workload configuration. It
// adds two things over the package-level entry points it backs:
//
//   - a per-run cache so each (application, NP, Options) trace source is
//     resolved once and each Table III grouping threshold is chosen once, no
//     matter how many tables and figures a run regenerates;
//   - a bounded worker pool (Cfg.Parallelism, GOMAXPROCS-sized by default)
//     that sweeps independent experiment points concurrently.
//
// Each point is still simulated by the single-threaded replay and predictor
// engines, and rows keep their serial enumeration order, so output is
// bit-identical to a Parallelism: 1 run.
//
// The zero value is not usable; construct with NewRunner. A Runner is safe
// for concurrent use.
type Runner struct {
	Opt workloads.Options
	Cfg replay.Config

	// File optionally serves workloads from a packed binary trace file
	// instead of the generator: when an (app, NP) entry exists in the file
	// it is replayed through a bounded streaming window, and only workloads
	// missing from the file fall back to workloads.Generate. The cache then
	// holds the file handle's cursor factory, never the decoded ops. Entries
	// only stand in for the Runner's own Opt — experiments that vary the
	// generation options per point (WeakScaling) always regenerate, since a
	// packed file records one options setting. Set before the first
	// experiment; the caller keeps ownership and closes the file after use.
	File *trace.File

	mu     sync.Mutex
	traces map[traceKey]*traceEntry
	gts    map[gtKey]*gtEntry
	bases  map[traceKey]*baseEntry
	deds   map[dedKey]*baseEntry
}

// NewRunner returns a Runner over the given generation options and replay
// configuration (cfg.Parallelism bounds the sweep pool).
func NewRunner(opt workloads.Options, cfg replay.Config) *Runner {
	return &Runner{
		Opt:    opt,
		Cfg:    cfg,
		traces: make(map[traceKey]*traceEntry),
		gts:    make(map[gtKey]*gtEntry),
		bases:  make(map[traceKey]*baseEntry),
		deds:   make(map[dedKey]*baseEntry),
	}
}

// predictorName returns the registry name the Runner's experiments simulate
// with (Cfg.Power.PredictorName, defaulting to the n-gram PPA).
func (r *Runner) predictorName() string {
	if n := r.Cfg.Power.PredictorName; n != "" {
		return n
	}
	return predictor.DefaultName
}

type traceKey struct {
	app string
	np  int
	opt workloads.Options
}

type traceEntry struct {
	once sync.Once
	src  trace.Source
	err  error
}

type gtKey struct {
	traceKey
	tolPct float64
}

type gtEntry struct {
	once sync.Once
	gt   time.Duration
	hit  float64
	err  error
}

type baseEntry struct {
	once sync.Once
	res  *replay.Result
	err  error
}

// dedKey identifies a cached dedicated-fabric mechanism run: one workload
// alone on the Runner's fabric at a specific grouping threshold and
// displacement (the multijob sharing-overhead denominator).
type dedKey struct {
	traceKey
	gt time.Duration
	d  float64
}

// workers sizes the pool for n points.
func (r *Runner) workers(n int) int { return sweep.Workers(r.Cfg.Parallelism, n) }

// source returns the cached trace source for (app, np) under r.Opt. Its
// signature matches the multijob/scenario Generate hook.
func (r *Runner) source(app string, np int) (trace.Source, error) {
	return r.sourceOpt(app, np, r.Opt)
}

// sourceOpt returns the cached trace source for (app, np, opt), resolving it
// at most once per key even under concurrent callers: from the attached
// packed file when it has the entry (and opt is the Runner's own Opt — a
// file records one options setting), otherwise from workloads.Generate.
func (r *Runner) sourceOpt(app string, np int, opt workloads.Options) (trace.Source, error) {
	k := traceKey{app: app, np: np, opt: opt}
	r.mu.Lock()
	e, ok := r.traces[k]
	if !ok {
		e = &traceEntry{}
		r.traces[k] = e
	}
	r.mu.Unlock()
	e.once.Do(func() {
		if r.File != nil && opt == r.Opt && r.File.Has(app, np) {
			e.src, e.err = r.File.Source(app, np)
			return
		}
		e.src, e.err = workloads.Generate(app, np, opt)
	})
	return e.src, e.err
}

// chooseGT returns the cached Table III grouping threshold for
// (app, np, opt) over the default grid. All Runner experiments select GT on
// DefaultGTGrid, so the cache key does not include the grid.
func (r *Runner) chooseGT(app string, np int, opt workloads.Options, tolPct float64) (time.Duration, float64, error) {
	k := gtKey{traceKey: traceKey{app: app, np: np, opt: opt}, tolPct: tolPct}
	r.mu.Lock()
	e, ok := r.gts[k]
	if !ok {
		e = &gtEntry{}
		r.gts[k] = e
	}
	r.mu.Unlock()
	e.once.Do(func() {
		src, err := r.sourceOpt(app, np, opt)
		if err != nil {
			e.err = err
			return
		}
		// Serial over the ranks: the point sweep above already saturates
		// the pool, and nested parallelism would oversubscribe it.
		e.gt, e.hit, e.err = ChooseGT(src, DefaultGTGrid(), tolPct)
	})
	return e.gt, e.hit, e.err
}

// baseline returns the cached power-unaware replay for (app, np) under
// r.Opt: the denominator of every saving and slowdown figure. Sharing it
// across experiments matters most for Compare, which would otherwise replay
// the same baseline once per predictor.
func (r *Runner) baseline(app string, np int) (*replay.Result, error) {
	k := traceKey{app: app, np: np, opt: r.Opt}
	r.mu.Lock()
	e, ok := r.bases[k]
	if !ok {
		e = &baseEntry{}
		r.bases[k] = e
	}
	r.mu.Unlock()
	e.once.Do(func() {
		src, err := r.source(app, np)
		if err != nil {
			e.err = err
			return
		}
		bcfg := r.Cfg
		bcfg.Power = replay.PowerConfig{}
		e.res, e.err = replay.RunSource(src, bcfg)
	})
	return e.res, e.err
}

// dedicated returns the cached dedicated-fabric run for (app, np) at
// (gt, d) under r.Opt and r.Cfg: the same job alone with the mechanism on,
// the denominator of the multijob sharing overhead. The baseline is
// placement-independent, so one replay serves every placement cell of a
// MultijobSweep.
func (r *Runner) dedicated(app string, np int, gt time.Duration, d float64) (*replay.Result, error) {
	k := dedKey{traceKey: traceKey{app: app, np: np, opt: r.Opt}, gt: gt, d: d}
	r.mu.Lock()
	e, ok := r.deds[k]
	if !ok {
		e = &baseEntry{}
		r.deds[k] = e
	}
	r.mu.Unlock()
	e.once.Do(func() {
		src, err := r.sourceOpt(app, np, r.Opt)
		if err != nil {
			e.err = err
			return
		}
		// Build the power block exactly as the shared run does
		// (multijob.JobPower preserves deep sleep, overheads and predictor
		// tuning from r.Cfg), so the overhead compares like with like.
		bcfg := r.Cfg
		bcfg.Power = multijob.JobPower(r.Cfg, gt, d)
		e.res, e.err = replay.RunSource(src, bcfg)
	})
	return e.res, e.err
}

// point is one (application, process count) cell of a table or figure.
type point struct {
	app string
	np  int
}

// allPoints enumerates the paper's full evaluation set in row order.
func allPoints() []point {
	var pts []point
	for _, app := range workloads.Apps() {
		for _, np := range workloads.ProcCounts(app) {
			pts = append(pts, point{app: app, np: np})
		}
	}
	return pts
}

// TableI computes the idle-interval distribution rows (experiment E1) on
// the pool, streaming each rank once.
func (r *Runner) TableI() ([]TableIRow, error) {
	pts := allPoints()
	return sweep.Map(context.Background(), r.workers(len(pts)), pts,
		func(_ context.Context, _ int, p point) (TableIRow, error) {
			src, err := r.source(p.app, p.np)
			if err != nil {
				return TableIRow{}, err
			}
			dist, err := trace.SourceIdleDistribution(src)
			if err != nil {
				return TableIRow{}, err
			}
			return TableIRow{App: p.app, NP: p.np, Dist: dist}, nil
		})
}

// TableIII selects GT for every workload (experiment E7) on the pool.
func (r *Runner) TableIII() ([]TableIIIRow, error) {
	pts := allPoints()
	return sweep.Map(context.Background(), r.workers(len(pts)), pts,
		func(_ context.Context, _ int, p point) (TableIIIRow, error) {
			gt, hit, err := r.chooseGT(p.app, p.np, r.Opt, 1.0)
			if err != nil {
				return TableIIIRow{}, err
			}
			return TableIIIRow{App: p.app, NP: p.np, GT: gt, HitRatePct: hit}, nil
		})
}

// Figure runs the full co-simulation for one displacement factor
// (experiments E3–E5) on the pool.
func (r *Runner) Figure(displacement float64) ([]FigureRow, error) {
	pts := allPoints()
	return sweep.Map(context.Background(), r.workers(len(pts)), pts,
		func(_ context.Context, _ int, p point) (FigureRow, error) {
			src, err := r.source(p.app, p.np)
			if err != nil {
				return FigureRow{}, err
			}
			gt, _, err := r.chooseGT(p.app, p.np, r.Opt, 1.0)
			if err != nil {
				return FigureRow{}, err
			}
			row, err := FigurePoint(src, gt, displacement, r.Cfg)
			if err != nil {
				return FigureRow{}, fmt.Errorf("%s np=%d: %w", p.app, p.np, err)
			}
			return *row, nil
		})
}

// TableIV measures PPA overheads at 16 processes (experiment E8). Trace
// generation and GT selection run on the pool; the wall-clock overhead
// measurement itself stays serial, because concurrent measurement would
// contend for CPUs and inflate the reported timings.
func (r *Runner) TableIV() ([]TableIVRow, error) {
	type prep struct {
		src trace.Source
		gt  time.Duration
	}
	apps := workloads.Apps()
	preps, err := sweep.Map(context.Background(), r.workers(len(apps)), apps,
		func(_ context.Context, _ int, app string) (prep, error) {
			src, err := r.source(app, 16)
			if err != nil {
				return prep{}, err
			}
			gt, _, err := r.chooseGT(app, 16, r.Opt, 1.0)
			if err != nil {
				return prep{}, err
			}
			return prep{src: src, gt: gt}, nil
		})
	if err != nil {
		return nil, err
	}
	var rows []TableIVRow
	for i, app := range apps {
		rep, err := predictor.MeasureOverheadsNamed(r.predictorName(), preps[i].src,
			predictor.Config{GT: preps[i].gt, Displacement: 0.01})
		if err != nil {
			return nil, err
		}
		rows = append(rows, TableIVRow{App: app, Report: rep})
	}
	return rows, nil
}

// WeakScaling compares strong- and weak-scaling savings (experiment E13) on
// the pool; the strong/weak pair of one point stays together so both rows
// see the same scheduling.
func (r *Runner) WeakScaling(displacement float64) ([]WeakScalingRow, error) {
	var pts []point
	for _, app := range workloads.Apps() {
		counts := workloads.ProcCounts(app)
		for _, np := range []int{counts[0], counts[2], counts[4]} {
			pts = append(pts, point{app: app, np: np})
		}
	}
	return sweep.Map(context.Background(), r.workers(len(pts)), pts,
		func(_ context.Context, _ int, p point) (WeakScalingRow, error) {
			var pair [2]FigureRow
			for i, weak := range []bool{false, true} {
				o := r.Opt
				o.Weak = weak
				src, err := r.sourceOpt(p.app, p.np, o)
				if err != nil {
					return WeakScalingRow{}, err
				}
				gt, _, err := r.chooseGT(p.app, p.np, o, 1.0)
				if err != nil {
					return WeakScalingRow{}, err
				}
				row, err := FigurePoint(src, gt, displacement, r.Cfg)
				if err != nil {
					return WeakScalingRow{}, fmt.Errorf("%s np=%d weak=%v: %w", p.app, p.np, weak, err)
				}
				pair[i] = *row
			}
			return WeakScalingRow{App: p.app, NP: p.np, Strong: pair[0], Weak: pair[1]}, nil
		})
}
