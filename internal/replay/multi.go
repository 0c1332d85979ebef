package replay

import (
	"fmt"

	"ibpower/internal/predictor"
	"ibpower/internal/trace"
)

// Job is one placed workload of a Churn admission: a trace plus the fabric
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
	// terminal).
	Terminals []int
	// Power overrides the run-level Config.Power for this job when non-nil,
	// so each job can carry its own grouping threshold and predictor (the
	// multi-tenant scenario: every tenant tunes its own mechanism).
	Power *PowerConfig
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
