package replay

import (
	"fmt"
	"slices"
	"time"

	"ibpower/internal/network"
	"ibpower/internal/stats"
	"ibpower/internal/topology"
	"ibpower/internal/trace"
)

// Churn is an incremental shared-fabric replay session: jobs are admitted
// onto one live network timeline at non-decreasing simulated start times,
// run to completion, and leave their link occupancy behind for every job
// admitted after them. It is the substrate of the scenario engine
// (internal/multijob.RunChurn), where a scheduler decides when each queued
// job claims terminals.
//
// A rank admitted at time T starts its clock at T, so its whole replay —
// computation, messaging, power accounting — happens in the window
// [T, finish]. Because op peers are job-local, an admitted batch always
// drains to completion in one pass, which is what lets the caller learn
// exact finish times before making its next scheduling decision.
//
// Contention is admission-ordered: a job's transfers observe the link busy
// intervals accumulated by every earlier-admitted job (including ones whose
// lifetime overlaps its own), while earlier jobs are unaffected by later
// arrivals — the one-pass analogue of a batch system in which running jobs
// have priority over newcomers. Jobs admitted in the same batch interleave
// on the work list and contend bidirectionally; a static job mix
// (multijob.Run) is exactly one such batch at t=0.
//
// The session is single-threaded and deterministic: the result sequence is
// a pure function of the admission sequence and Config.
type Churn struct {
	cfg  Config
	topo topology.Fabric
	e    *engine
	now  time.Duration
	term []termUse
	jobN int // jobs admitted so far, for timeline labels
}

// termUse tracks a terminal's last occupancy so overlapping admissions are
// rejected instead of silently double-booking a host link.
type termUse struct {
	used   bool
	finish time.Duration // absolute completion of the last occupant
}

// NewChurn opens a churn session on the configured fabric. Network
// parameters and the fabric registry name fail fast, before any job is
// admitted.
func NewChurn(cfg Config) (*Churn, error) {
	if err := cfg.Net.Validate(); err != nil {
		return nil, err
	}
	if cfg.Topo == nil {
		if err := topology.CheckRegistered(cfg.FabricName); err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
	}
	topo, err := cfg.Fabric()
	if err != nil {
		return nil, err
	}
	net, err := network.New(topo, cfg.Net)
	if err != nil {
		return nil, err
	}
	e := &engine{net: net, pt: make(map[pairKey]*pairQueues)}
	if cfg.Telemetry.Enabled {
		e.tele = newTelemetry(cfg.Telemetry, topo)
		net.Observe(e.tele)
	}
	return &Churn{cfg: cfg, topo: topo, e: e, term: make([]termUse, topo.NumTerminals())}, nil
}

// Fabric returns the fabric the session simulates on.
func (c *Churn) Fabric() topology.Fabric { return c.topo }

// Now returns the latest admission time.
func (c *Churn) Now() time.Duration { return c.now }

// Stats returns fabric-wide transfer counters accumulated so far: the union
// of every admitted job's traffic.
func (c *Churn) Stats() (transfers int, bytes int64) { return c.e.net.Stats() }

// LinkBusy returns a snapshot of accumulated busy time per directed link,
// indexed by topology link ID.
func (c *Churn) LinkBusy() []time.Duration {
	busy := make([]time.Duration, c.e.net.NumLinks())
	for i := range busy {
		busy[i] = c.e.net.LinkBusy(topology.LinkID(i))
	}
	return busy
}

// Telemetry returns the session's streaming recorder, or nil when
// Config.Telemetry is off. The session records its engine-level series on
// it; callers (the churn scenario engine) may register and record
// additional series on the same recorder, sharing one bucket timeline.
func (c *Churn) Telemetry() *stats.TimeSeries {
	if c.e.tele == nil {
		return nil
	}
	return c.e.tele.ts
}

// SetFaults attaches a live fault set to the session's network: subsequent
// admissions route around blocked links (see network.SetFaults). The caller
// keeps ownership of the set and mutates it between admissions as fault
// events fire.
func (c *Churn) SetFaults(fs *topology.FaultSet) error { return c.e.net.SetFaults(fs) }

// Unroutable returns the number of transfers so far that had no healthy
// path and fell back to healthy-route timing.
func (c *Churn) Unroutable() int { return c.e.net.Unroutable() }

// ReleaseTerminals truncates the recorded occupancy of the given terminals
// to at, freeing them for re-admission from that instant. The churn engine
// calls this when a fault kills a running job: the job's remaining replay
// stays on the link timeline (its ranks were already drained in one pass —
// the residue models abort/drain traffic), but the terminals themselves may
// host a new job immediately.
func (c *Churn) ReleaseTerminals(at time.Duration, terms []int) {
	for _, t := range terms {
		if t >= 0 && t < len(c.term) && c.term[t].used && c.term[t].finish > at {
			c.term[t].finish = at
		}
	}
}

// AdmitAt starts the given jobs at simulated time start — which must not
// precede any earlier admission — and drains them to completion, returning
// one job-scoped Result per job in input order. Each Result's ExecTime and
// RankFinish are relative to start; the job's absolute finish is
// start + ExecTime.
//
// Every job must be placed explicitly (the caller's free-list owns terminal
// assignment); a terminal is reusable once its previous occupant's finish
// time is <= start, and admissions that would overlap a busy terminal are
// rejected. On error the session state is undefined and must be discarded.
func (c *Churn) AdmitAt(start time.Duration, jobs ...Job) ([]*Result, error) {
	return c.admit(start, jobs, func(id int, app string, r int) string {
		return fmt.Sprintf("job %d %s rank %d", id, app, r)
	})
}

// admit is the one path from a batch of placed jobs onto the fabric, shared
// by AdmitAt and RunSource: it validates every source, placement and power
// block, adds the jobs' ranks at start, drains them and collects one Result
// per job. label names rank r's recorded timeline, given the job's session
// index and application.
func (c *Churn) admit(start time.Duration, jobs []Job, label func(id int, app string, r int) string) ([]*Result, error) {
	if len(jobs) == 0 {
		return nil, fmt.Errorf("replay: no jobs to admit")
	}
	if start < c.now {
		return nil, fmt.Errorf("replay: admission time going backwards: %v < %v", start, c.now)
	}
	c.now = start
	claimed := make(map[int]int) // terminal -> batch job index
	pws := make([]PowerConfig, len(jobs))
	ranks := 0
	for j, job := range jobs {
		if job.Source == nil {
			return nil, fmt.Errorf("replay: job %d has no trace", j)
		}
		if err := trace.ValidateSource(job.Source); err != nil {
			return nil, err
		}
		m := job.Source.Meta()
		ranks += m.NP
		if len(job.Terminals) != m.NP {
			return nil, fmt.Errorf("replay: job %d (%s): %d terminals for %d ranks",
				j, m.App, len(job.Terminals), m.NP)
		}
		for r, t := range job.Terminals {
			if t < 0 || t >= len(c.term) {
				return nil, fmt.Errorf("replay: job %d (%s) rank %d: terminal %d out of range [0,%d)",
					j, m.App, r, t, len(c.term))
			}
			if prev, taken := claimed[t]; taken {
				if prev == j {
					return nil, fmt.Errorf("replay: job %d (%s) places two ranks on terminal %d", j, m.App, t)
				}
				return nil, fmt.Errorf("replay: jobs %d and %d both placed on terminal %d", prev, j, t)
			}
			if c.term[t].used && c.term[t].finish > start {
				return nil, fmt.Errorf("replay: job %d (%s) rank %d: terminal %d busy until %v at admission time %v",
					j, m.App, r, t, c.term[t].finish, start)
			}
			claimed[t] = j
		}
		pw, err := resolvePower(c.cfg, job)
		if err != nil {
			return nil, err
		}
		pws[j] = pw
	}

	from := len(c.e.rk)
	c.e.rk = slices.Grow(c.e.rk, ranks)
	added := make([]*jobState, len(jobs))
	for j, job := range jobs {
		id, app := c.jobN+j, job.Source.Meta().App
		// addJob opens fresh cursors, so re-admitting a job (a fault retry)
		// replays its source from the first op.
		js, err := c.e.addJob(job.Source, pws[j], job.Terminals, start, func(r int) string {
			return label(id, app, r)
		})
		if err != nil {
			return nil, err
		}
		added[j] = js
	}
	c.jobN += len(jobs)
	c.e.enqueue(from)
	if err := c.e.drain(); err != nil {
		return nil, err
	}

	results := make([]*Result, len(jobs))
	for j, js := range added {
		res := c.e.collectJob(js, start)
		results[j] = res
		finish := start + res.ExecTime
		for _, t := range jobs[j].Terminals {
			c.term[t] = termUse{used: true, finish: finish}
		}
	}
	return results, nil
}
