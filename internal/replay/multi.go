package replay

import (
	"fmt"
	"time"

	"ibpower/internal/predictor"
	"ibpower/internal/stats"
	"ibpower/internal/trace"
)

// Job is one placed workload of a multi-job replay: a trace plus the fabric
// terminals its ranks occupy. Rank r of the job runs on Terminals[r]; op
// peers stay job-local, so the same trace replays unchanged whether the job
// has the fabric to itself or shares it.
type Job struct {
	// Source streams the job's op streams through cursors — an in-memory
	// *trace.Trace, a packed trace file or an on-the-fly generator — so the
	// engine holds O(window) of a streamed trace per rank instead of all of
	// it.
	Source trace.Source
	// Terminals maps job-local rank -> fabric terminal. Terminals of jobs
	// running at the same time must be disjoint (one MPI process per
	// terminal). In RunJobs, nil places the job's ranks on the lowest
	// terminals no other job claims (the linear placement); for a single
	// job that is the identity mapping Run has always used.
	Terminals []int
	// Power overrides the run-level Config.Power for this job when non-nil,
	// so each job can carry its own grouping threshold and predictor (the
	// multi-tenant scenario: every tenant tunes its own mechanism).
	Power *PowerConfig
}

// MultiResult is the outcome of a shared-fabric multi-job replay.
type MultiResult struct {
	// Jobs holds one Result per job, in input order. Each Result is scoped
	// to its own job: exec time and RankFinish over the job's ranks, power
	// accounting for the job's host links, transfer counters for the job's
	// own traffic.
	Jobs []*Result

	// MakeSpan is the completion time of the slowest job.
	MakeSpan time.Duration

	// Fabric-wide counters: the union of all jobs' traffic.
	Transfers  int
	BytesMoved int64
	// LinkBusy is the accumulated busy time per directed link (indexed by
	// topology link ID), observing every job's messages — the signal that
	// distinguishes fabric sharing from dedicated runs.
	LinkBusy []time.Duration

	// Series is the streaming telemetry recorder, non-nil only when
	// Config.Telemetry was enabled. It is fabric-wide: all jobs' activity
	// lands on one timeline.
	Series *stats.TimeSeries
}

// RunJobs replays several independent jobs concurrently on one shared
// fabric. Every job advances through the same event timeline and every
// message is timed by one network instance, so links observe the union of
// all jobs' traffic: a switch neighbor's communication phase can shrink or
// displace the idle windows another job's predictor is trying to exploit.
//
// RunJobs is one Churn session with a single admission at t=0: it only adds
// the capacity check and the linear fill of nil-Terminals jobs, and the
// session's admission path validates every source and placement.
//
// The engine is single-threaded and processes ranks in deterministic order,
// so results are a pure function of (jobs, cfg) — bit-identical across
// repeated runs and unaffected by Config.Parallelism, which only harness
// sweeps consume.
func RunJobs(jobs []Job, cfg Config) (*MultiResult, error) {
	if len(jobs) == 0 {
		return nil, fmt.Errorf("replay: no jobs")
	}
	c, err := NewChurn(cfg)
	if err != nil {
		return nil, err
	}
	// Explicitly placed jobs claim their terminals first, then nil-Terminals
	// jobs fill the lowest unclaimed terminals in job order, so a mix of
	// explicit and automatic placement never collides and never runs out of
	// terminals while free ones remain. Jobs without a source are left to
	// admit to reject.
	nt := len(c.term)
	claimed := make([]bool, nt)
	need := 0
	for _, j := range jobs {
		if j.Source == nil {
			continue
		}
		need += j.Source.Meta().NP
		for _, t := range j.Terminals {
			if t >= 0 && t < nt {
				claimed[t] = true
			}
		}
	}
	if need > nt {
		return nil, fmt.Errorf("replay: fabric %s has %d terminals, need %d",
			c.topo.Name(), nt, need)
	}
	placed := append([]Job(nil), jobs...)
	next := 0
	for i, j := range placed {
		if j.Terminals != nil || j.Source == nil {
			continue
		}
		np := j.Source.Meta().NP
		terms := make([]int, 0, max(np, 0))
		for len(terms) < np && next < nt {
			if !claimed[next] {
				terms = append(terms, next)
			}
			next++
		}
		placed[i].Terminals = terms
	}

	res, err := c.admit(0, placed, func(id int, app string, r int) string {
		return timelineLabel(len(jobs), id, app, r)
	})
	if err != nil {
		return nil, err
	}
	m := &MultiResult{Jobs: res, LinkBusy: c.LinkBusy(), Series: c.Telemetry()}
	m.Transfers, m.BytesMoved = c.Stats()
	for _, r := range res {
		m.MakeSpan = max(m.MakeSpan, r.ExecTime)
	}
	return m, nil
}

// resolvePower returns the job's effective power block — its own override or
// the run-level default — after validating predictor config and registry
// name.
func resolvePower(cfg Config, job Job) (PowerConfig, error) {
	pw := cfg.Power
	if job.Power != nil {
		pw = *job.Power
	}
	if pw.Enabled {
		if err := pw.Predictor.Validate(); err != nil {
			return PowerConfig{}, err
		}
		if err := predictor.CheckRegistered(pw.PredictorName); err != nil {
			return PowerConfig{}, fmt.Errorf("replay: %w", err)
		}
	}
	return pw, nil
}

// timelineLabel names a recorded per-rank timeline; single-job runs keep the
// historical "rank N" labels so rendered output is unchanged, multi-job runs
// carry the job index so two tenants of the same application stay
// distinguishable.
func timelineLabel(njobs, j int, app string, r int) string {
	if njobs == 1 {
		return fmt.Sprintf("rank %d", r)
	}
	return fmt.Sprintf("job %d %s rank %d", j, app, r)
}
