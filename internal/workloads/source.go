package workloads

import "ibpower/internal/trace"

// genSource streams a generated workload without ever materializing the full
// trace: each Open re-runs the generator restricted to the requested rank.
// The restriction is exact (see Options.only), so the streamed ops are
// bit-identical to the corresponding rank of Generate's trace. Each Open
// costs one run of the generator's structure loop plus that rank's ops,
// allocated once at their exact length (NewSource counts the rounds once).
// That trade is right when ranks are consumed one at a time (packing a
// trace file); consumers that replay all ranks concurrently or read every
// rank more than once keep using Generate.
type genSource struct {
	app string
	np  int
	opt Options
	gen Generator
}

// NewSource returns a streaming trace.Source for a registered application:
// O(one rank) memory per open cursor instead of O(trace).
func NewSource(app string, np int, opt Options) (trace.Source, error) {
	g, opt, err := presized(app, np, opt)
	if err != nil {
		return nil, err
	}
	return &genSource{app: app, np: np, opt: opt, gen: g}, nil
}

func (s *genSource) Meta() trace.Meta { return trace.Meta{App: s.app, NP: s.np} }

func (s *genSource) Open(r int) trace.Cursor { return trace.SliceCursor(s.rank(r)) }

// rank generates rank r's stream alone.
func (s *genSource) rank(r int) []trace.Op {
	opt := s.opt
	opt.only = r + 1
	return s.gen(s.np, opt).Ranks[r]
}
