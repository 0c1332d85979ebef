// Package trace defines the MPI event-trace model consumed by the pattern
// prediction algorithm and the replay simulator.
//
// A trace holds, for every MPI rank, the sequence of operations the rank
// performed: computation bursts (with their recorded durations, as in a
// Dimemas trace) interleaved with MPI calls. Computation is never executed
// during replay; it is represented by its duration, exactly as in the paper's
// methodology (Section IV-A).
package trace

import (
	"fmt"
	"time"
)

// CallID identifies an MPI call type. The numeric values for MPI_Sendrecv
// (41) and MPI_Allreduce (10) follow the IDs used in the paper's Figure 2 so
// that walkthrough output is directly comparable.
type CallID uint8

// MPI call identifiers.
const (
	CallNone      CallID = 0
	CallAllreduce CallID = 10 // paper ID
	CallBarrier   CallID = 8
	CallBcast     CallID = 7
	CallReduce    CallID = 9
	CallAlltoall  CallID = 11
	CallSend      CallID = 33
	CallRecv      CallID = 34
	CallIsend     CallID = 31
	CallIrecv     CallID = 32
	CallWait      CallID = 5
	CallWaitall   CallID = 6
	CallSendrecv  CallID = 41 // paper ID
)

var callNames = map[CallID]string{
	CallNone:      "none",
	CallAllreduce: "MPI_Allreduce",
	CallBarrier:   "MPI_Barrier",
	CallBcast:     "MPI_Bcast",
	CallReduce:    "MPI_Reduce",
	CallAlltoall:  "MPI_Alltoall",
	CallSend:      "MPI_Send",
	CallRecv:      "MPI_Recv",
	CallIsend:     "MPI_Isend",
	CallIrecv:     "MPI_Irecv",
	CallWait:      "MPI_Wait",
	CallWaitall:   "MPI_Waitall",
	CallSendrecv:  "MPI_Sendrecv",
}

// String returns the MPI routine name for the identifier.
func (c CallID) String() string {
	if n, ok := callNames[c]; ok {
		return n
	}
	return fmt.Sprintf("MPI_Unknown(%d)", uint8(c))
}

// IsCollective reports whether the call involves every rank of the
// communicator.
func (c CallID) IsCollective() bool {
	switch c {
	case CallAllreduce, CallBarrier, CallBcast, CallReduce, CallAlltoall:
		return true
	}
	return false
}

// OpKind discriminates trace operations.
type OpKind uint8

// Operation kinds.
const (
	OpCompute OpKind = iota // a computation burst of recorded duration
	OpCall                  // an MPI call
)

// Op is a single operation in a rank's stream. The two one-byte fields sit
// together after the word-sized ones, so an Op packs into 48 bytes instead
// of the 56 that padding each of them out to a word would cost.
type Op struct {
	// Compute fields.
	Duration time.Duration // duration of the computation burst

	// Call fields.
	Peer     int // destination (send) / source (recv); -1 when not applicable
	RecvPeer int // source for Sendrecv; -1 otherwise
	Bytes    int // payload size for the sending direction
	Root     int // root rank for rooted collectives; -1 otherwise

	Kind OpKind
	Call CallID
}

// Compute returns a computation burst of duration d.
func Compute(d time.Duration) Op {
	return Op{Kind: OpCompute, Duration: d, Peer: -1, RecvPeer: -1, Root: -1}
}

// Send returns a blocking send of n bytes to rank peer.
func Send(peer, n int) Op {
	return Op{Kind: OpCall, Call: CallSend, Peer: peer, RecvPeer: -1, Bytes: n, Root: -1}
}

// Recv returns a blocking receive from rank peer.
func Recv(peer int) Op {
	return Op{Kind: OpCall, Call: CallRecv, Peer: peer, RecvPeer: -1, Root: -1}
}

// Sendrecv returns a combined send (n bytes to sendPeer) and receive (from
// recvPeer).
func Sendrecv(sendPeer, recvPeer, n int) Op {
	return Op{Kind: OpCall, Call: CallSendrecv, Peer: sendPeer, RecvPeer: recvPeer, Bytes: n, Root: -1}
}

// Allreduce returns an all-reduce of n bytes per rank.
func Allreduce(n int) Op {
	return Op{Kind: OpCall, Call: CallAllreduce, Peer: -1, RecvPeer: -1, Bytes: n, Root: -1}
}

// Barrier returns a barrier.
func Barrier() Op {
	return Op{Kind: OpCall, Call: CallBarrier, Peer: -1, RecvPeer: -1, Root: -1}
}

// Bcast returns a broadcast of n bytes from root.
func Bcast(root, n int) Op {
	return Op{Kind: OpCall, Call: CallBcast, Peer: -1, RecvPeer: -1, Bytes: n, Root: root}
}

// Reduce returns a reduction of n bytes to root.
func Reduce(root, n int) Op {
	return Op{Kind: OpCall, Call: CallReduce, Peer: -1, RecvPeer: -1, Bytes: n, Root: root}
}

// Alltoall returns an all-to-all of n bytes per pair.
func Alltoall(n int) Op {
	return Op{Kind: OpCall, Call: CallAlltoall, Peer: -1, RecvPeer: -1, Bytes: n, Root: -1}
}

// Trace is a complete multi-rank execution trace.
type Trace struct {
	App   string // application name, e.g. "gromacs"
	NP    int    // number of MPI processes
	Ranks [][]Op // Ranks[r] is rank r's operation stream
}

// New returns an empty trace for np ranks.
func New(app string, np int) *Trace {
	return &Trace{App: app, NP: np, Ranks: make([][]Op, np)}
}

// Append adds op to rank r's stream.
func (t *Trace) Append(r int, op Op) {
	t.Ranks[r] = append(t.Ranks[r], op)
}

// NumCalls returns the total number of MPI calls across all ranks.
func (t *Trace) NumCalls() int {
	n := 0
	for _, ops := range t.Ranks {
		for _, op := range ops {
			if op.Kind == OpCall {
				n++
			}
		}
	}
	return n
}

// NumOps returns the total number of operations across all ranks.
func (t *Trace) NumOps() int {
	n := 0
	for _, ops := range t.Ranks {
		n += len(ops)
	}
	return n
}

// ComputeTime returns the sum of recorded computation durations on rank r.
func (t *Trace) ComputeTime(r int) time.Duration {
	var d time.Duration
	for _, op := range t.Ranks[r] {
		if op.Kind == OpCompute {
			d += op.Duration
		}
	}
	return d
}

// Validate checks structural invariants: peer ranks in range (both sendrecv
// directions), non-negative sizes and durations. Collectives consistent
// across ranks is NOT required here (replay validates alignment when
// executing). Every failure names the offending rank and op index. The
// per-op rules live in CheckOp, shared with the streaming binary decoder.
func (t *Trace) Validate() error {
	if t.NP <= 0 {
		return fmt.Errorf("trace: NP must be positive, got %d", t.NP)
	}
	if len(t.Ranks) != t.NP {
		return fmt.Errorf("trace: have %d rank streams, want %d", len(t.Ranks), t.NP)
	}
	for r, ops := range t.Ranks {
		for i, op := range ops {
			if err := CheckOp(t.NP, r, i, op); err != nil {
				return err
			}
		}
	}
	return nil
}
