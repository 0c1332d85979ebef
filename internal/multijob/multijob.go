// Package multijob simulates several independent MPI workloads sharing one
// interconnect fabric — the multi-tenant scenario the paper leaves open: it
// evaluates one application at a time on a dedicated XGFT, but on a real
// cluster a job's switch neighbors shrink, displace, or (when they idle)
// widen the link idle windows the prediction mechanism exploits.
//
// There is one driver, RunChurn: jobs arrive over time, a scheduler admits
// them onto a terminal free-list, and the incremental replay session
// (replay.Churn) runs each admission batch on one live timeline, so links
// observe the union of every job's traffic. A static job mix (Run) is the
// special case whose jobs all arrive at t=0 and are admitted in one batch.
// Each job gets its own trace, grouping threshold, predictor, and
// rank→terminal mapping. Where jobs land is a pluggable placement policy
// behind a named registry mirroring the predictor and fabric registries: a
// policy is a preference order over every terminal, and the free-list hands
// out the first free terminals of it — "linear" (contiguous terminal
// blocks, the default), "random" (seeded shuffle of the whole fabric), and
// "roundrobin" (jobs interleaved across first-hop switches). Results are
// reported per job — runtime, host-link energy, hit rate, and sharing
// overhead against a dedicated-fabric baseline of the same job — and
// fabric-wide (per-link utilization, decomposed switch power).
//
// Everything is deterministic for a given configuration: the ordering is a
// pure function of (fabric, seed), the event loop and the shared engine are
// single-threaded, and the Parallelism knob only distributes independent
// work (per-job trace generation, GT choice and baselines, harness sweep
// cells) over the worker pool in input order.
package multijob

import (
	"fmt"
	"time"

	"ibpower/internal/power"
	"ibpower/internal/predictor"
	"ibpower/internal/replay"
	"ibpower/internal/stats"
	"ibpower/internal/topology"
	"ibpower/internal/trace"
	"ibpower/internal/workloads"
)

// Config parameterises one shared-fabric simulation.
type Config struct {
	// Jobs is the mix to co-schedule, in placement order.
	Jobs []JobSpec
	// Placement selects the policy from the placement registry ("linear",
	// "random", "roundrobin", or anything registered by the embedding
	// program); empty selects DefaultPlacement.
	Placement string
	// Opt tunes trace generation; Opt.Seed also seeds the "random"
	// placement, so one seed pins the whole scenario.
	Opt workloads.Options
	// Displacement is the Algorithm 3 safety factor, applied to every job.
	// Zero is a valid (maximally aggressive) setting, as on every other
	// experiment; the CLI default is the paper's conservative 1 %.
	Displacement float64
	// Replay carries the network parameters, fabric and predictor selection,
	// and the Parallelism bound for the independent per-job preparation
	// (trace, grouping threshold, dedicated baseline).
	// Each job runs with Replay.Power re-armed at the job's own grouping
	// threshold and Displacement; any other mechanism settings in the block
	// (deep sleep, custom overheads, timeline recording, predictor tuning)
	// are preserved per job.
	Replay replay.Config
	// SelectGT chooses the grouping threshold for one job's trace; nil uses
	// the minimum admissible threshold 2·Treact. The harness and CLI install
	// the Table III selection here (harness.ChooseGT). The hook receives a
	// trace.Source — an in-memory *Trace, a generator, or a packed trace
	// file — so threshold selection works without materializing the trace.
	SelectGT func(src trace.Source) (time.Duration, error)
	// Generate overrides trace delivery, letting callers reuse cached
	// traces or serve streaming sources from a packed file (harness.Runner
	// does both); nil generates fresh in-memory traces with Opt.
	Generate func(app string, np int) (trace.Source, error)
	// Dedicated overrides the dedicated-fabric baseline replay of one job
	// (the denominator of the sharing overhead). The baseline is
	// placement-independent, so callers sweeping placements cache it per
	// (job, GT) — harness.Runner does; nil replays fresh.
	Dedicated func(src trace.Source, gt time.Duration, displacement float64) (*replay.Result, error)
}

// JobStats is the per-job slice of a shared-fabric run.
type JobStats struct {
	App       string
	NP        int
	Predictor string
	GT        time.Duration

	// Exec is the job's completion time on the shared fabric; Dedicated is
	// the same job replayed alone on the same fabric (linear placement from
	// terminal 0), and SharingOverheadPct the relative slowdown between the
	// two — the price of the neighbors.
	Exec               time.Duration
	Dedicated          time.Duration
	SharingOverheadPct float64

	// Per-job mechanism outcome on the shared fabric.
	SavingPct  float64 // switch power saving over the job's host links
	HitRatePct float64

	// Host-link energy over the job's execution, in link-seconds: joules at
	// a nominal link power of 1 W, so multiplying by the deployment's real
	// per-link wattage gives joules. SavedLinkSeconds is the reduction
	// against the same links never leaving full power.
	EnergyLinkSeconds float64
	SavedLinkSeconds  float64

	// Switches is the number of distinct first-hop switches the job spans
	// (1 for a fully packed small job, more as placement scatters it).
	Switches int

	Transfers  int
	BytesMoved int64
}

// FabricStats aggregates the shared fabric.
type FabricStats struct {
	Fabric     string
	MakeSpan   time.Duration // completion time of the slowest job
	Transfers  int
	BytesMoved int64

	// Link utilization over the makespan, across the directed links that
	// carried any traffic.
	LinksUsed   int
	MeanUtilPct float64
	MaxUtilPct  float64

	// SavingPct applies the decomposed switch power model (links 64 % of
	// switch draw, unmanaged uplinks always on) over the first-hop switches
	// occupied by any job — the fabric-wide energy the mechanism saved with
	// all tenants accounted together.
	SavingPct float64
}

// Result is the outcome of a multi-job run.
type Result struct {
	Placement string
	Jobs      []JobStats
	Fabric    FabricStats
	// Terminals records the placement that ran: Terminals[j][r] is the
	// fabric terminal of job j's rank r.
	Terminals [][]int
	// Series is the shared run's streaming telemetry recorder, non-nil only
	// when Replay.Telemetry was enabled (dedicated baselines never record):
	// the replay engine's series plus the queue.depth, fabric.occupied and
	// capacity.up series every churn scenario records.
	Series *stats.TimeSeries
}

// Run simulates the configured job mix on one shared fabric and returns
// per-job and fabric-wide statistics. A static mix is a churn scenario whose
// jobs all arrive at t=0: Run checks the mix up front — before any trace is
// generated — then hands RunChurn one arrival per job, in input order, and a
// scheduler that admits the whole queue, so every job lands in one
// admission batch. The result is deterministic for a given Config at any
// Replay.Parallelism setting.
func Run(cfg Config) (*Result, error) {
	if len(cfg.Jobs) == 0 {
		return nil, fmt.Errorf("multijob: no jobs configured")
	}
	if err := predictor.CheckRegistered(cfg.Replay.Power.PredictorName); err != nil {
		return nil, fmt.Errorf("multijob: %w", err)
	}
	fabric, err := cfg.Replay.Fabric()
	if err != nil {
		return nil, err
	}
	total := 0
	arrivals := make([]Arrival, len(cfg.Jobs))
	for j, js := range cfg.Jobs {
		total += js.NP
		arrivals[j] = Arrival{Job: js}
	}
	if total > fabric.NumTerminals() {
		return nil, fmt.Errorf("multijob: %d ranks exceed the %d terminals of fabric %s",
			total, fabric.NumTerminals(), fabric.Name())
	}
	cr, err := RunChurn(ChurnConfig{
		Arrivals: arrivals, Schedule: admitAll, Placement: cfg.Placement,
		Opt: cfg.Opt, Displacement: cfg.Displacement, Replay: cfg.Replay,
		SelectGT: cfg.SelectGT, Generate: cfg.Generate, Dedicated: cfg.Dedicated,
	})
	if err != nil {
		return nil, err
	}
	res := &Result{Placement: cr.Placement, Fabric: cr.Fabric, Series: cr.Series}
	for _, j := range cr.Jobs {
		res.Jobs = append(res.Jobs, j.JobStats)
		res.Terminals = append(res.Terminals, j.Terminals)
	}
	return res, nil
}

// admitAll is the static mix's scheduler: it admits the whole queue, in
// arrival order, at the first event.
func admitAll(ctx *SchedContext) []int {
	picks := make([]int, len(ctx.Queue))
	for i := range picks {
		picks[i] = i
	}
	return picks
}

// jobStats folds one job's shared-fabric replay result and its
// dedicated-fabric baseline into the job's statistics.
func jobStats(f topology.Fabric, app string, np int, predName string, gt time.Duration,
	res, ded *replay.Result, terms []int) JobStats {
	st := JobStats{
		App: app, NP: np, Predictor: predName, GT: gt,
		Exec:       res.ExecTime,
		Dedicated:  ded.ExecTime,
		SavingPct:  res.AvgSavingPct(),
		HitRatePct: res.AvgHitRatePct(),
		Switches:   countSwitches(f, terms),
		Transfers:  res.Transfers,
		BytesMoved: res.BytesMoved,
	}
	if ded.ExecTime > 0 {
		st.SharingOverheadPct = 100 * (float64(res.ExecTime) - float64(ded.ExecTime)) /
			float64(ded.ExecTime)
	}
	for _, a := range res.Acct {
		st.EnergyLinkSeconds += a.Energy(1.0)
		st.SavedLinkSeconds += a.Total().Seconds() - a.Energy(1.0)
	}
	return st
}

// generate resolves a job's trace source. The default path materializes with
// workloads.Generate rather than wrapping workloads.NewSource: a mix's ranks
// replay concurrently, so the engine would hold most of the trace in cursor
// form anyway, and the materialized build costs O(NP·iters) generator work
// versus O(NP²·iters) for rank-at-a-time generation of all NP ranks.
// Consumers that drain one rank at a time (trace packing, offline GT runs)
// use NewSource directly and stay O(one rank).
func (c Config) generate(js JobSpec) (trace.Source, error) {
	if c.Generate != nil {
		return c.Generate(js.App, js.NP)
	}
	tr, err := workloads.Generate(js.App, js.NP, c.Opt)
	if err != nil {
		return nil, err
	}
	return tr, nil
}

func (c Config) selectGT(src trace.Source) (time.Duration, error) {
	if c.SelectGT != nil {
		return c.SelectGT(src)
	}
	return 2 * power.Treact, nil
}

func (c Config) runDedicated(src trace.Source, gt time.Duration, d float64) (*replay.Result, error) {
	if c.Dedicated != nil {
		return c.Dedicated(src, gt, d)
	}
	bcfg := c.Replay
	bcfg.Power = JobPower(c.Replay, gt, d)
	return replay.RunSource(src, bcfg)
}

// JobPower builds one job's effective power block from a replay
// configuration: the caller's Power settings — deep sleep, overheads,
// timeline recording, predictor tuning — re-armed at the job's grouping
// threshold and the run's displacement. A configuration that never enabled
// the mechanism gets the standard block (Table IV overheads, paper Treact),
// exactly as replay's WithPower constructs it. Both the shared run and every
// dedicated baseline — including harness.Runner's cached ones — must build
// their blocks here, so the sharing overhead always compares runs of the
// same mechanism.
func JobPower(rc replay.Config, gt time.Duration, d float64) replay.PowerConfig {
	if !rc.Power.Enabled {
		return rc.WithPower(gt, d).Power
	}
	pw := rc.Power
	pw.Predictor.GT = gt
	pw.Predictor.Displacement = d
	if pw.Predictor.Treact == 0 {
		pw.Predictor.Treact = power.Treact
	}
	return pw
}

func placementName(name string) string {
	if name == "" {
		return DefaultPlacement
	}
	return name
}

func predictorName(name string) string {
	if name == "" {
		return predictor.DefaultName
	}
	return name
}

// countSwitches returns the number of distinct first-hop switches hosting
// the given terminals.
func countSwitches(f topology.Fabric, terms []int) int {
	seen := make(map[int32]bool)
	for _, t := range terms {
		seen[topology.HostSwitch(f, t)] = true
	}
	return len(seen)
}

// fabricStats summarises link utilization and fabric-wide power over a
// shared session: its fabric-wide counters and link occupancy, and every
// admitted job's result accts[i] on the terminals terms[i].
func fabricStats(f topology.Fabric, session *replay.Churn, makespan time.Duration,
	accts []*replay.Result, terms [][]int) FabricStats {
	fs := FabricStats{Fabric: f.Name(), MakeSpan: makespan}
	fs.Transfers, fs.BytesMoved = session.Stats()
	var mean, maxU float64
	for _, busy := range session.LinkBusy() {
		if busy <= 0 {
			continue
		}
		fs.LinksUsed++
		u := 100 * float64(busy) / float64(makespan)
		mean += u
		if u > maxU {
			maxU = u
		}
	}
	if fs.LinksUsed > 0 {
		fs.MeanUtilPct = mean / float64(fs.LinksUsed)
	}
	fs.MaxUtilPct = maxU

	// Decomposed switch power over every occupied first-hop switch, all
	// tenants' host links grouped together (the power.FabricPower model the
	// single-job energy experiment uses, extended to the union of jobs).
	var flatTerms []int
	var flatAccts []power.Accounting
	for j, ts := range terms {
		for r, t := range ts {
			if r >= len(accts[j].Acct) {
				continue // job ran without the mechanism
			}
			flatTerms = append(flatTerms, t)
			flatAccts = append(flatAccts, accts[j].Acct[r])
		}
	}
	fs.SavingPct = FabricSavingPct(f, flatTerms, flatAccts)
	return fs
}

// FabricSavingPct groups per-terminal host-link accountings by first-hop
// switch of the fabric and applies the decomposed switch power model
// (power.FabricPower): links take 64 % of switch draw, and each first-hop
// switch's unmanaged switch-to-switch out-links stay at full power. Only
// switches hosting an accounted terminal are counted, as the paper's savings
// are reported over the used part of the fabric. Both the single-job energy
// experiment (harness.Energy) and the multi-job fabric summary share this
// one implementation, so the model cannot silently diverge between them.
// terms[i] is the fabric terminal whose host link accts[i] accounts for.
func FabricSavingPct(f topology.Fabric, terms []int, accts []power.Accounting) float64 {
	if len(terms) == 0 {
		return 0
	}
	tab := f.Table()
	alwaysOn := map[int32]int{}
	for id := 0; id < tab.Len(); id++ {
		if tab.SwitchToSwitch(topology.LinkID(id)) {
			alwaysOn[tab.From[id]]++
		}
	}
	groups := map[int32][]power.Accounting{}
	var order []int32 // switch node IDs in first-use order, for deterministic output
	for i, t := range terms {
		sw := topology.HostSwitch(f, t)
		if _, ok := groups[sw]; !ok {
			order = append(order, sw)
		}
		groups[sw] = append(groups[sw], accts[i])
	}
	used := make([][]power.Accounting, 0, len(order))
	usedOn := make([]int, 0, len(order))
	for _, sw := range order {
		used = append(used, groups[sw])
		usedOn = append(usedOn, alwaysOn[sw])
	}
	return power.FabricPower(used, usedOn).SavingPct
}
