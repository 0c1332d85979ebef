package predictor

import (
	"fmt"
	"time"

	"ibpower/internal/registry"
	"ibpower/internal/trace"
)

// Predictor is the pluggable per-process idle predictor: it observes every
// intercepted MPI call and decides when to shut link lanes down and for how
// long. The paper's n-gram PPA (NGram) is one implementation; the registry
// below holds it next to the simpler baselines it is evaluated against, so
// the harness can answer "how much does pattern prediction actually buy over
// last-value or EWMA prediction?" at the same operating point.
//
// Implementations must tolerate calls fed in non-decreasing start order and
// must be cheap: OnCall sits on the replay hot path.
type Predictor interface {
	// OnCall observes one intercepted MPI call occupying [start, end] and
	// returns the action to take when the call returns.
	OnCall(id EventID, start, end time.Duration) Action
	// Flush finalizes any state pending at end of run so Stats counters
	// include the trailing activity. No action results.
	Flush()
	// Stats returns a snapshot of mechanism statistics.
	Stats() Stats
}

// TraceAware is implemented by predictors that need the rank's full op
// stream before the run begins — the clairvoyant oracle and the
// offline-profile predictor. NewForRank primes them with the rank's trace;
// the live PMPI layer has no trace, so there they never predict (a
// deliberate property: trace-trained predictors cannot be deployed online,
// which is the PPA's selling point).
type TraceAware interface {
	Predictor
	// Prime hands the predictor the rank's complete op stream. It is called
	// once, before the first OnCall. Implementations must not mutate ops.
	Prime(ops []trace.Op)
}

// DefaultName is the registry entry used when no predictor is named: the
// paper's n-gram PPA.
const DefaultName = "ngram"

// Factory constructs one per-rank predictor instance from a validated-or-not
// configuration; it must validate cfg itself.
type Factory func(cfg Config) (Predictor, error)

var predictors = registry.New[Factory]("predictor", "predictor", DefaultName)

// Register adds a predictor constructor under name. It panics on an empty
// name, a nil factory, or a duplicate registration.
func Register(name string, f Factory) { predictors.Register(name, f) }

// Names returns the registered predictor names, sorted.
func Names() []string { return predictors.Names() }

// CheckRegistered returns a descriptive error naming the whole registry
// when name does not resolve (the empty name resolves to DefaultName), so a
// typo'd -predictor flag tells the user what would have worked. It is the
// single validation every layer (replay config, pmpi layer, harness, CLI)
// shares.
func CheckRegistered(name string) error { return predictors.Check(name) }

// NewNamed builds a per-rank instance of the named predictor; the empty name
// selects DefaultName.
func NewNamed(name string, cfg Config) (Predictor, error) {
	f, err := predictors.Get(name)
	if err != nil {
		return nil, err
	}
	return f(cfg)
}

// MustNewNamed is NewNamed, panicking on errors (for factories whose inputs
// were validated up front).
func MustNewNamed(name string, cfg Config) Predictor {
	p, err := NewNamed(name, cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// NewForRank builds rank r's instance of the named predictor for a run over
// src. Trace-aware predictors are primed with the rank's op stream here,
// the only place a rank is materialized for lookahead; every other
// predictor streams at O(window).
func NewForRank(name string, cfg Config, src trace.Source, r int) (Predictor, error) {
	ps, _, _, err := newForRank(name, []Config{cfg}, src, r)
	if err != nil {
		return nil, err
	}
	return ps[0], nil
}

// newForRank is NewForRank for every config of cfgs. Trace-aware instances
// are all primed from one materialization of the rank, returned with
// primed set so the caller can stream the rank from it.
func newForRank(name string, cfgs []Config, src trace.Source, r int) (ps []Predictor, ops []trace.Op, primed bool, err error) {
	ps = make([]Predictor, len(cfgs))
	for i, cfg := range cfgs {
		if ps[i], err = NewNamed(name, cfg); err != nil {
			return nil, nil, false, err
		}
		ta, ok := ps[i].(TraceAware)
		if !ok {
			continue
		}
		if !primed {
			if ops, err = trace.RankOps(src, r); err != nil {
				return nil, nil, false, fmt.Errorf("%s rank %d: %w", src.Meta().App, r, err)
			}
			primed = true
		}
		ta.Prime(ops)
	}
	return ps, ops, primed, nil
}

func init() {
	Register(DefaultName, func(cfg Config) (Predictor, error) { return New(cfg) })
}
