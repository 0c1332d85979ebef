package replay

import (
	"fmt"
	"time"

	"ibpower/internal/network"
	"ibpower/internal/power"
	"ibpower/internal/predictor"
	"ibpower/internal/trace"
)

// rankState is one MPI process during replay. Ranks are job-local (peers in
// the op stream address the job's communicator); the engine places the rank
// on a fabric terminal and gives it a dense global index so several jobs can
// share one timeline.
type rankState struct {
	r    int          // job-local rank (index into the job's trace)
	g    int          // global rank index across all jobs (index into engine.rk)
	base int          // global index of the job's rank 0
	np   int          // the job's communicator size
	term int          // fabric terminal hosting the rank
	cur  trace.Cursor // the rank's op stream; in-memory, generated, or on-disk
	nops int          // ops consumed so far (error reporting)
	clk  time.Duration
	done bool

	// Current MPI call.
	inCall    bool
	op        trace.Op // the call being executed (finishCall reports it)
	callStart time.Duration
	micro     []microOp
	mi        int
	issued    bool
	needSend  bool
	needRecv  bool
	sendDone  time.Duration
	recvDone  time.Duration
	haveSend  bool
	haveRecv  bool

	pred predictor.Predictor
	ctrl *power.Controller
	jb   *jobState

	// Telemetry baselines: the predictor stats snapshot after the previous
	// call, so finishCall can record per-call hit deltas without storage.
	lastPredictions int
	lastPredHits    int
	lastTotalCalls  int
	lastPredCalls   int
}

// pendingPt is one side of an unmatched point-to-point operation.
type pendingPt struct {
	rank  int
	ready time.Duration
	bytes int
}

// ptQueue is an index-based FIFO ring of pending point-to-point halves.
// Popped slots are cleared so the backing array never retains old entries
// (the q = q[1:] re-slicing it replaces kept every popped pendingPt alive
// for the rest of the run).
type ptQueue struct {
	buf  []pendingPt
	head int
	n    int
}

func (q *ptQueue) push(p pendingPt) {
	if q.n == len(q.buf) {
		grown := make([]pendingPt, max(4, 2*len(q.buf)))
		for i := 0; i < q.n; i++ {
			grown[i] = q.buf[(q.head+i)%len(q.buf)]
		}
		q.buf = grown
		q.head = 0
	}
	q.buf[(q.head+q.n)%len(q.buf)] = p
	q.n++
}

func (q *ptQueue) pop() pendingPt {
	p := q.buf[q.head]
	q.buf[q.head] = pendingPt{}
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return p
}

type pairKey struct{ src, dst int }

// pairQueues holds both directions of one (src, dst) channel, so each pair
// costs a single map entry and allocation per run.
type pairQueues struct {
	send ptQueue // posted sends waiting for a matching receive
	recv ptQueue // posted receives waiting for a matching send
}

// jobState is one placed workload during a (possibly multi-job) replay. It
// holds the job's source and identity, never the decoded ops — rank streams
// live only inside the per-rank cursors.
type jobState struct {
	src  trace.Source
	app  string
	np   int
	pw   PowerConfig // the job's effective power configuration
	base int         // global index of the job's rank 0

	// Per-job traffic attribution: every transfer is between ranks of one
	// job, counted at resolve time against the sender's job.
	transfers int
	bytes     int64
}

// engine holds global replay state. Run-level configuration is consumed up
// front (network construction, per-job effective power blocks); the engine
// itself only reads per-job state, so jobs with different power configs
// coexist on one timeline.
type engine struct {
	net *network.Network
	rk  []*rankState // all jobs' ranks, dense in global index order
	pt  map[pairKey]*pairQueues
	err error // first cursor decode failure; drain surfaces it

	// work is a fixed-capacity ring of runnable ranks (global indexes).
	// inWork dedupes, so at most len(rk) ranks are ever queued and the ring
	// never grows.
	work     []int
	workHead int
	workLen  int
	inWork   []bool

	// tele, when non-nil, streams per-interval series (power draw, link
	// utilization, predictor hit rate) off the hooks the engine already
	// drives; recording is passive and never changes simulated results.
	tele *telemetry
}

// pair returns the queue pair for (src, dst), creating it on first use.
func (e *engine) pair(k pairKey) *pairQueues {
	q, ok := e.pt[k]
	if !ok {
		q = &pairQueues{}
		e.pt[k] = q
	}
	return q
}

// Run replays the trace under cfg and returns the measured result. The
// single job occupies terminals 0..NP-1 of the fabric, exactly as before the
// engine learned to share its fabric between jobs; results are bit-identical
// to that dedicated-fabric engine.
func Run(tr *trace.Trace, cfg Config) (*Result, error) {
	return RunSource(tr, cfg)
}

// RunSource replays a streaming trace source under cfg: the single-job
// counterpart of Run for traces that are generated on the fly or read from a
// packed trace file through bounded windows. For an in-memory *Trace it is
// exactly Run. It is one Churn session with a single admission at t=0 on
// terminals 0..NP-1, so all validation (trace, network, registries,
// placement) happens on the session's admission path.
func RunSource(src trace.Source, cfg Config) (*Result, error) {
	c, err := NewChurn(cfg)
	if err != nil {
		return nil, err
	}
	job := Job{Source: src}
	if src != nil {
		np := src.Meta().NP
		if np > len(c.term) {
			return nil, fmt.Errorf("replay: fabric %s has %d terminals, need %d",
				c.topo.Name(), len(c.term), np)
		}
		job.Terminals = make([]int, max(np, 0))
		for r := range job.Terminals {
			job.Terminals[r] = r
		}
	}
	res, err := c.admit(0, []Job{job}, func(_ int, _ string, r int) string {
		return fmt.Sprintf("rank %d", r)
	})
	if err != nil {
		return nil, err
	}
	res[0].Series = c.Telemetry()
	return res[0], nil
}

// addJob appends one job's ranks to the engine, each starting its clock at
// the given admission time, and returns the job's state. label names a
// rank's recorded timeline. Ranks are not yet runnable; callers queue them
// via enqueue once the whole admission batch is in place.
//
// Each rank pulls ops through its own cursor, opened here — re-admitting the
// same source (a churn retry) replays from the first op again. Trace-aware
// predictors are the one consumer that still needs the whole rank stream up
// front (the oracle's lookahead); predictor.NewForRank materializes it.
func (e *engine) addJob(src trace.Source, pw PowerConfig, terms []int, start time.Duration, label func(r int) string) (*jobState, error) {
	m := src.Meta()
	js := &jobState{src: src, app: m.App, np: m.NP, pw: pw, base: len(e.rk)}
	for r := 0; r < m.NP; r++ {
		rs := &rankState{
			r: r, g: js.base + r, base: js.base, np: m.NP,
			term: terms[r], cur: src.Open(r), clk: start, jb: js,
		}
		if pw.Enabled {
			p, err := predictor.NewForRank(pw.PredictorName, pw.Predictor, src, r)
			if err != nil {
				return nil, fmt.Errorf("replay: %w", err)
			}
			rs.pred = p
			rs.ctrl = power.NewControllerAt(pw.Predictor.Treact, start)
			if pw.DeepSleep {
				rs.ctrl.EnableDeep(pw.Deep)
			}
			if e.tele != nil {
				df := 0.0
				if pw.DeepSleep {
					df = pw.Deep.PowerFraction
				}
				rs.ctrl.Observe(e.tele.observeMode(df))
			}
			if pw.RecordTimelines {
				rs.ctrl.RecordTimeline(label(r))
			}
		}
		e.rk = append(e.rk, rs)
	}
	return js, nil
}

// enqueue makes ranks [from, len(rk)) runnable. The work ring is regrown to
// the current rank count first; callers only invoke this between drains
// (workLen == 0), so no queued entries are ever dropped.
func (e *engine) enqueue(from int) {
	e.work = make([]int, len(e.rk))
	e.workHead = 0
	for len(e.inWork) < len(e.rk) {
		e.inWork = append(e.inWork, false)
	}
	for g := from; g < len(e.rk); g++ {
		e.push(g)
	}
}

// drain processes runnable ranks until the work queue empties, then verifies
// every rank has finished — a blocked rank means an unmatched point-to-point
// half, which the generator never produces.
func (e *engine) drain() error {
	for e.workLen > 0 {
		g := e.work[e.workHead]
		e.workHead = (e.workHead + 1) % len(e.work)
		e.workLen--
		e.inWork[g] = false
		e.advance(e.rk[g])
	}
	if e.err != nil {
		return e.err
	}
	for _, rs := range e.rk {
		if !rs.done {
			return fmt.Errorf("replay: deadlock: %s rank %d blocked at op %d (micro %d/%d)",
				rs.jb.app, rs.r, rs.nops, rs.mi, len(rs.micro))
		}
	}
	return nil
}

func (e *engine) push(g int) {
	if !e.inWork[g] {
		e.inWork[g] = true
		e.work[(e.workHead+e.workLen)%len(e.work)] = g
		e.workLen++
	}
}

// advance executes rank rs until it blocks or finishes.
func (e *engine) advance(rs *rankState) {
	for {
		if rs.done {
			return
		}
		if rs.inCall {
			if !e.stepMicro(rs) {
				return // blocked
			}
			continue
		}
		op, ok := rs.cur.Next()
		if !ok {
			if err := rs.cur.Err(); err != nil {
				if e.err == nil {
					e.err = fmt.Errorf("replay: %s: %w", rs.jb.app, err)
				}
			}
			rs.done = true
			if rs.pred != nil {
				rs.pred.Flush()
			}
			return
		}
		rs.nops++
		switch op.Kind {
		case trace.OpCompute:
			rs.clk += op.Duration
		case trace.OpCall:
			if rs.pred != nil {
				rs.clk += rs.jb.pw.Overheads.Interception
			}
			rs.op = op
			rs.callStart = rs.clk
			// Shared read-only decomposition: identical call shapes across
			// ranks, iterations and concurrent runs reuse one sequence.
			rs.micro = expandCached(op, rs.r, rs.np)
			rs.mi = 0
			rs.issued = false
			rs.inCall = true
			if len(rs.micro) == 0 {
				e.finishCall(rs)
			}
		}
	}
}

// stepMicro progresses the current micro op; it returns false when blocked.
func (e *engine) stepMicro(rs *rankState) bool {
	if rs.mi >= len(rs.micro) {
		e.finishCall(rs)
		return true
	}
	m := rs.micro[rs.mi]
	if !rs.issued {
		rs.issued = true
		rs.needSend = m.sendPeer >= 0
		rs.needRecv = m.recvPeer >= 0
		rs.haveSend = !rs.needSend
		rs.haveRecv = !rs.needRecv
		if rs.needSend {
			e.postSend(rs.g, rs.base+m.sendPeer, m.bytes, rs.clk)
		}
		if rs.needRecv {
			e.postRecv(rs.g, rs.base+m.recvPeer, rs.clk)
		}
	}
	if !rs.haveSend || !rs.haveRecv {
		return false
	}
	t := rs.sendDone
	if rs.recvDone > t {
		t = rs.recvDone
	}
	if t > rs.clk {
		rs.clk = t
	}
	rs.mi++
	rs.issued = false
	if rs.mi >= len(rs.micro) {
		e.finishCall(rs)
	}
	return true
}

// finishCall closes the current MPI call through the shared mechanism step
// (predictor.Step). The engine's link acquisition is the transfer itself
// (resolve), so a call with no transfers never wakes the link.
func (e *engine) finishCall(rs *rankState) {
	rs.inCall = false
	if rs.pred == nil {
		return
	}
	rs.clk = predictor.Step(rs.pred, rs.ctrl, rs.jb.pw.Overheads, predictor.EventID(rs.op.Call), rs.callStart, rs.clk)
	if e.tele != nil {
		st := rs.pred.Stats()
		// Baseline predictors report emitted predictions; the n-gram
		// mechanism reports detector-covered calls. Either way one sample
		// per opportunity, value = hit fraction, so the series mean is the
		// run's hit rate and bucket means give it per interval.
		if d := st.Predictions - rs.lastPredictions; d > 0 {
			e.tele.recordHit(rs.clk, float64(st.PredHits-rs.lastPredHits)/float64(d))
		} else if d := st.Detector.TotalCalls - rs.lastTotalCalls; d > 0 {
			e.tele.recordHit(rs.clk, float64(st.Detector.PredictedCalls-rs.lastPredCalls)/float64(d))
		}
		rs.lastPredictions, rs.lastPredHits = st.Predictions, st.PredHits
		rs.lastTotalCalls, rs.lastPredCalls = st.Detector.TotalCalls, st.Detector.PredictedCalls
	}
}

// postSend registers the send side of a point-to-point exchange and resolves
// it if the matching receive is already posted. src and dst are global rank
// indexes (both halves of an exchange always belong to one job, because op
// peers are job-local).
func (e *engine) postSend(src, dst, bytes int, ready time.Duration) {
	q := e.pair(pairKey{src, dst})
	if q.recv.n > 0 {
		rv := q.recv.pop()
		e.resolve(src, dst, bytes, ready, rv.ready)
		return
	}
	q.send.push(pendingPt{rank: src, ready: ready, bytes: bytes})
}

// postRecv registers the receive side.
func (e *engine) postRecv(dst, src int, ready time.Duration) {
	q := e.pair(pairKey{src, dst})
	if q.send.n > 0 {
		sd := q.send.pop()
		e.resolve(src, dst, sd.bytes, sd.ready, ready)
		return
	}
	q.recv.push(pendingPt{rank: dst, ready: ready})
}

// resolve times the matched transfer and unblocks both ranks. The message
// travels between the ranks' fabric terminals, so links observe the union of
// every job's traffic.
func (e *engine) resolve(src, dst, bytes int, sendReady, recvReady time.Duration) {
	s, d := e.rk[src], e.rk[dst]
	s0, r0 := sendReady, recvReady
	// Lanes of both host links must be active; waking them on demand incurs
	// up to Treact of delay each (the reactivation penalty).
	if s.ctrl != nil {
		s0 = s.ctrl.Acquire(s0)
	}
	if d.ctrl != nil {
		r0 = d.ctrl.Acquire(r0)
	}
	t0 := s0
	if r0 > t0 {
		t0 = r0
	}
	arrival := e.net.Transfer(s.term, d.term, bytes, t0)
	s.jb.transfers++
	s.jb.bytes += int64(bytes)
	sendDone := t0 + e.net.SerTime(bytes)
	s.sendDone, s.haveSend = sendDone, true
	d.recvDone, d.haveRecv = arrival, true
	if s.haveRecv || !s.needRecv {
		e.push(src)
	}
	if d.haveSend || !d.needSend {
		e.push(dst)
	}
}
