package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

const us = time.Microsecond

func TestCallIDString(t *testing.T) {
	if CallSendrecv.String() != "MPI_Sendrecv" {
		t.Errorf("Sendrecv = %q", CallSendrecv.String())
	}
	if CallAllreduce.String() != "MPI_Allreduce" {
		t.Errorf("Allreduce = %q", CallAllreduce.String())
	}
	if !strings.Contains(CallID(99).String(), "99") {
		t.Error("unknown ID must include its number")
	}
}

func TestPaperIDs(t *testing.T) {
	// Figure 2 of the paper identifies MPI_Sendrecv as 41 and
	// MPI_Allreduce as 10; the walkthroughs depend on these values.
	if CallSendrecv != 41 || CallAllreduce != 10 {
		t.Fatalf("paper IDs changed: sendrecv=%d allreduce=%d", CallSendrecv, CallAllreduce)
	}
}

func TestIsCollective(t *testing.T) {
	for _, c := range []CallID{CallAllreduce, CallBarrier, CallBcast, CallReduce, CallAlltoall} {
		if !c.IsCollective() {
			t.Errorf("%v not collective", c)
		}
	}
	for _, c := range []CallID{CallSend, CallRecv, CallSendrecv} {
		if c.IsCollective() {
			t.Errorf("%v wrongly collective", c)
		}
	}
}

func buildValid() *Trace {
	tr := New("test", 2)
	tr.Append(0, Compute(100*us))
	tr.Append(0, Send(1, 1024))
	tr.Append(0, Compute(50*us))
	tr.Append(0, Allreduce(8))
	tr.Append(1, Recv(0))
	tr.Append(1, Compute(30*us))
	tr.Append(1, Allreduce(8))
	return tr
}

func TestValidateOK(t *testing.T) {
	if err := buildValid().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Trace)
	}{
		{"peer out of range", func(tr *Trace) { tr.Append(0, Send(5, 1)) }},
		{"self message", func(tr *Trace) { tr.Append(0, Send(0, 1)) }},
		{"negative bytes", func(tr *Trace) { tr.Append(0, Op{Kind: OpCall, Call: CallSend, Peer: 1, Bytes: -1}) }},
		{"negative compute", func(tr *Trace) { tr.Append(0, Op{Kind: OpCompute, Duration: -time.Second}) }},
		{"bad root", func(tr *Trace) { tr.Append(0, Bcast(9, 1)) }},
		{"bad sendrecv peer", func(tr *Trace) { tr.Append(0, Sendrecv(1, 7, 1)) }},
	}
	for _, c := range cases {
		tr := buildValid()
		c.mut(tr)
		if err := tr.Validate(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if err := (&Trace{NP: 0}).Validate(); err == nil {
		t.Error("NP=0 accepted")
	}
}

func TestCounting(t *testing.T) {
	tr := buildValid()
	if got := tr.NumCalls(); got != 4 {
		t.Errorf("NumCalls = %d, want 4", got)
	}
	if got := tr.NumOps(); got != 7 {
		t.Errorf("NumOps = %d, want 7", got)
	}
	if got := tr.ComputeTime(0); got != 150*us {
		t.Errorf("ComputeTime(0) = %v, want 150µs", got)
	}
}

func TestIdleDistributionBuckets(t *testing.T) {
	var d IdleDist
	d.Add(19 * us)  // short
	d.Add(20 * us)  // medium (boundary is inclusive on the left)
	d.Add(200 * us) // medium
	d.Add(201 * us) // long
	if d.Count != [3]int{1, 2, 1} {
		t.Errorf("counts = %v", d.Count)
	}
	if d.TotalCount() != 4 {
		t.Errorf("total = %d", d.TotalCount())
	}
	if d.CountPct(1) != 50 {
		t.Errorf("medium pct = %v", d.CountPct(1))
	}
	if d.TotalTime() != 440*us {
		t.Errorf("total time = %v", d.TotalTime())
	}
}

func TestRankIdleIntervals(t *testing.T) {
	tr := New("x", 1)
	tr.Append(0, Compute(100*us)) // before first call: not an interval
	tr.Append(0, Barrier())
	tr.Append(0, Compute(30*us))
	tr.Append(0, Compute(20*us)) // merged: 50µs between calls
	tr.Append(0, Barrier())
	tr.Append(0, Compute(99*us)) // trailing: not an interval
	got := tr.RankIdleIntervals(0)
	if len(got) != 1 || got[0] != 50*us {
		t.Errorf("intervals = %v, want [50µs]", got)
	}
}

func TestIdleDistributionAggregates(t *testing.T) {
	tr := New("x", 2)
	for r := 0; r < 2; r++ {
		tr.Append(r, Barrier())
		tr.Append(r, Compute(300*us))
		tr.Append(r, Barrier())
		tr.Append(r, Compute(50*us))
		tr.Append(r, Barrier())
	}
	d := tr.IdleDistribution()
	if d.Count != [3]int{0, 2, 2} {
		t.Errorf("counts = %v", d.Count)
	}
}

func TestIOTripRound(t *testing.T) {
	tr := New("demo", 3)
	tr.Append(0, Compute(123*time.Nanosecond))
	tr.Append(0, Send(1, 77))
	tr.Append(1, Recv(0))
	tr.Append(1, Sendrecv(2, 0, 55))
	tr.Append(2, Sendrecv(0, 1, 55))
	tr.Append(0, Sendrecv(1, 2, 55))
	tr.Append(2, Allreduce(8))
	tr.Append(2, Barrier())
	tr.Append(2, Bcast(0, 16))
	tr.Append(2, Reduce(1, 32))
	tr.Append(2, Alltoall(64))
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.App != "demo" || got.NP != 3 {
		t.Fatalf("header = %q/%d", got.App, got.NP)
	}
	if !reflect.DeepEqual(got.Ranks, tr.Ranks) {
		t.Errorf("roundtrip mismatch:\n got %+v\nwant %+v", got.Ranks, tr.Ranks)
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"no header":      "0 c 100\n",
		"bad rank":       "#app x 2\n9 c 100\n",
		"unknown record": "#app x 2\n0 zz 1\n",
		"bad np":         "#app x zero\n",
		"missing field":  "#app x 2\n0 s 1\n",
		"empty":          "",
	}
	for name, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestReadSkipsComments(t *testing.T) {
	in := "#app x 2\n# a comment\n\n0 ba\n1 ba\n"
	tr, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumCalls() != 2 {
		t.Errorf("calls = %d, want 2", tr.NumCalls())
	}
}

// Property: any structurally valid random trace round-trips through the text
// format unchanged.
func TestIORoundTripProperty(t *testing.T) {
	f := func(seed int64, nOps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		np := rng.Intn(4) + 2
		tr := New("q", np)
		for i := 0; i < int(nOps%50)+1; i++ {
			r := rng.Intn(np)
			peer := (r + 1 + rng.Intn(np-1)) % np
			switch rng.Intn(6) {
			case 0:
				tr.Append(r, Compute(time.Duration(rng.Intn(10000))*time.Nanosecond))
			case 1:
				tr.Append(r, Send(peer, rng.Intn(1<<20)))
			case 2:
				tr.Append(r, Recv(peer))
			case 3:
				tr.Append(r, Sendrecv(peer, peer, rng.Intn(1<<20)))
			case 4:
				tr.Append(r, Allreduce(rng.Intn(4096)))
			case 5:
				tr.Append(r, Bcast(rng.Intn(np), rng.Intn(4096)))
			}
		}
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got.Ranks, tr.Ranks)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestTimelineAddMerges(t *testing.T) {
	var tl Timeline
	tl.Add(0, 10*us, StateFull)
	tl.Add(10*us, 20*us, StateFull) // contiguous same state: merged
	tl.Add(20*us, 30*us, StateLow)
	tl.Add(35*us, 30*us, StateLow) // empty: dropped
	if len(tl.Intervals) != 2 {
		t.Fatalf("intervals = %d, want 2", len(tl.Intervals))
	}
	if tl.TimeIn(StateFull) != 20*us || tl.TimeIn(StateLow) != 10*us {
		t.Errorf("TimeIn full=%v low=%v", tl.TimeIn(StateFull), tl.TimeIn(StateLow))
	}
	if tl.End() != 30*us {
		t.Errorf("End = %v", tl.End())
	}
}

func TestRenderTimeline(t *testing.T) {
	tl := &Timeline{Label: "rank 0"}
	tl.Add(0, 50*us, StateFull)
	tl.Add(50*us, 100*us, StateLow)
	var sb strings.Builder
	if err := Render(&sb, []*Timeline{tl}, 40); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "rank 0") || !strings.Contains(out, "#") || !strings.Contains(out, ".") {
		t.Errorf("render output:\n%s", out)
	}
	// Empty timeline.
	sb.Reset()
	if err := Render(&sb, nil, 40); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "empty") {
		t.Error("empty rendering missing placeholder")
	}
}

func TestWriteParaver(t *testing.T) {
	a := &Timeline{Label: "a"}
	a.Add(10*us, 20*us, StateLow)
	b := &Timeline{Label: "b"}
	b.Add(0, 5*us, StateFull)
	var sb strings.Builder
	if err := WriteParaver(&sb, []*Timeline{a, b}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("records = %d, want 2", len(lines))
	}
	// Sorted by start time: b's interval first.
	if !strings.HasPrefix(lines[0], "2:1:0:") {
		t.Errorf("first record %q", lines[0])
	}
}

func TestLinkStateString(t *testing.T) {
	if StateFull.String() != "FULL" || StateLow.String() != "LOW" || StateShift.String() != "SHIFT" {
		t.Error("state labels wrong")
	}
	if LinkState(9).String() != "?" {
		t.Error("unknown state label")
	}
}

// TestOpLayout pins the packed Op layout: the one-byte Kind and Call sit
// together after the word-sized fields, so an Op is 48 bytes, not the 56
// that padding each of them to a word would cost. Every trace in memory
// scales with this size.
func TestOpLayout(t *testing.T) {
	if got := unsafe.Sizeof(Op{}); got != 48 {
		t.Errorf("unsafe.Sizeof(Op{}) = %d, want 48", got)
	}
}
