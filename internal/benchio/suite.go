package benchio

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"ibpower/internal/harness"
	"ibpower/internal/multijob"
	"ibpower/internal/network"
	"ibpower/internal/ngram"
	"ibpower/internal/predictor"
	"ibpower/internal/replay"
	"ibpower/internal/scenario"
	"ibpower/internal/stats"
	"ibpower/internal/topology"
	"ibpower/internal/trace"
	"ibpower/internal/workloads"
)

// Bench is one suite entry. Fn follows the standard testing benchmark
// contract; names match the `go test -bench` counterparts in bench_test.go
// so trajectory points and test-runner numbers line up.
type Bench struct {
	Name  string
	Heavy bool // skipped in smoke mode (full-sweep benchmarks)
	Fn    func(b *testing.B)
}

// Suite returns the headline benchmarks of the performance trajectory. The
// per-op workload of every non-heavy entry is identical in smoke and full
// mode — smoke only shortens the measurement window — so ns/op stays
// comparable against a full-mode baseline (within the CI gate's 2x margin).
func Suite() []Bench {
	return []Bench{
		{Name: "BenchmarkReplayAlya16", Fn: BenchReplayAlya16},
		{Name: "BenchmarkStreamReplay", Fn: BenchStreamReplay},
		{Name: "BenchmarkMultijob", Fn: BenchMultijob},
		{Name: "BenchmarkScenarioChurn", Fn: BenchScenarioChurn},
		{Name: "BenchmarkChurnWithFaults", Fn: BenchChurnWithFaults},
		{Name: "BenchmarkNetworkTransfer", Fn: BenchNetworkTransfer},
		{Name: "BenchmarkDragonflyTransfer", Fn: BenchDragonflyTransfer},
		{Name: "BenchmarkRouteCrossLeaf", Fn: BenchRouteCrossLeaf},
		{Name: "BenchmarkBigFabricRoutes", Fn: BenchBigFabricRoutes},
		{Name: "BenchmarkBigFabricReplay", Fn: BenchBigFabricReplay},
		{Name: "BenchmarkPredictorOnCall", Fn: BenchPredictorOnCall},
		{Name: "BenchmarkDetectorAddGram", Fn: BenchDetectorAddGram},
		{Name: "BenchmarkTimeSeriesRecord", Fn: BenchTimeSeriesRecord},
		{Name: "BenchmarkFig7_Displacement10", Heavy: true, Fn: BenchFig7},
	}
}

// Names returns the suite's benchmark names in order.
func Names() []string {
	var out []string
	for _, b := range Suite() {
		out = append(out, b.Name)
	}
	return out
}

var testingInit sync.Once

// RunSuite measures the suite and returns the report. Smoke mode shortens
// the per-benchmark measurement window to ~100ms and skips the heavy
// full-sweep entries; it is meant for CI regression gating, not for
// trajectory points.
func RunSuite(label string, smoke bool) (*Report, error) {
	testingInit.Do(testing.Init)
	benchtime := "1s"
	if smoke {
		benchtime = "100ms"
	}
	if err := flag.Set("test.benchtime", benchtime); err != nil {
		return nil, fmt.Errorf("benchio: set benchtime: %w", err)
	}
	rep := NewReport(label, smoke)
	for _, bench := range Suite() {
		if smoke && bench.Heavy {
			continue
		}
		res := testing.Benchmark(bench.Fn)
		if res.N == 0 {
			return nil, fmt.Errorf("benchio: %s failed to run", bench.Name)
		}
		rep.Results = append(rep.Results, Result{
			Name:        bench.Name,
			Iterations:  res.N,
			NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
			Metrics:     res.Extra,
		})
	}
	rep.Sort()
	return rep, nil
}

// BenchReplayAlya16 mirrors bench_test.go's BenchmarkReplayAlya16: the full
// power-aware replay of alya at 16 processes.
func BenchReplayAlya16(b *testing.B) {
	tr, err := workloads.Generate("alya", 16, workloads.Options{IterScale: 0.1})
	if err != nil {
		b.Fatal(err)
	}
	cfg := replay.DefaultConfig().WithPower(20*time.Microsecond, 0.01)
	calls := float64(tr.NumCalls())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := replay.Run(tr, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(calls*float64(b.N)/b.Elapsed().Seconds(), "calls/s")
}

// BenchStreamReplay measures the file-backed streaming replay path: the same
// alya-16 workload as BenchmarkReplayAlya16, packed once into the binary
// on-disk format and replayed through bounded per-rank read windows.
// events/s counts trace ops pulled through cursors; the gated bytes/op is the
// heap cost of one full replay, which stays O(window) however long the trace
// is — regressions that decode a rank into a slice show up here immediately.
func BenchStreamReplay(b *testing.B) {
	src, err := workloads.NewSource("alya", 16, workloads.Options{IterScale: 0.1})
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "bench.ibt")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	if err := trace.WriteBinarySources(f, src); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	bf, err := trace.OpenFile(path)
	if err != nil {
		b.Fatal(err)
	}
	defer bf.Close()
	fsrc, err := bf.Source("alya", 16)
	if err != nil {
		b.Fatal(err)
	}
	cfg := replay.DefaultConfig().WithPower(20*time.Microsecond, 0.01)
	events := float64(bf.NumOps(0))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := replay.RunSource(fsrc, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(events*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchMultijob times the shared-fabric engine on a two-job mix: gromacs and
// alya interleaved across the paper XGFT's leaf switches by the roundrobin
// placement, both with the mechanism on. Each op opens a fresh churn session
// and admits the mix in one batch at t=0 — exactly what a static multijob
// run does — with placement and trace generation done once outside the
// loop, so the number gates the multi-job engine's merged-timeline hot path.
func BenchMultijob(b *testing.B) {
	mix := []multijob.JobSpec{{App: "gromacs", NP: 8}, {App: "alya", NP: 8}}
	opt := workloads.Options{IterScale: 0.1}
	var jobs []replay.Job
	var calls float64
	pw := replay.DefaultConfig().WithPower(20*time.Microsecond, 0.01).Power
	order, err := multijob.Ordering("roundrobin", topology.Paper(), 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, js := range mix {
		tr, err := workloads.Generate(js.App, js.NP, opt)
		if err != nil {
			b.Fatal(err)
		}
		calls += float64(tr.NumCalls())
		jobs = append(jobs, replay.Job{Source: tr, Terminals: order[:js.NP], Power: &pw})
		order = order[js.NP:]
	}
	cfg := replay.DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := replay.NewChurn(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.AdmitAt(0, jobs...); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(calls*float64(b.N)/b.Elapsed().Seconds(), "calls/s")
}

// BenchScenarioChurn measures the churn event loop's steady-state per-job
// cost: each op is one job cycling through a saturated fabric — the fcfs
// policy scans a queue whose head does not fit (the head-of-line state a
// loaded scenario lives in), then a finishing job's terminals release back
// to the pooled free-list and the next job claims them. Replay is excluded
// (BenchmarkMultijob gates that); this number gates the scheduling
// machinery itself, which must allocate nothing in steady state so
// million-job scenarios do not churn the GC.
func BenchScenarioChurn(b *testing.B) {
	fabric := topology.Paper()
	order, err := multijob.Ordering("roundrobin", fabric, 1)
	if err != nil {
		b.Fatal(err)
	}
	free, err := multijob.NewFreeList(fabric, order)
	if err != nil {
		b.Fatal(err)
	}
	fcfs, err := scenario.Named("fcfs")
	if err != nil {
		b.Fatal(err)
	}
	// Saturate: a resident job holds most of the fabric, the queue head
	// wants more than the remainder, and one 12-rank job cycles through the
	// free slots forever.
	resident := free.Alloc(free.NumTerminals() - 12)
	defer free.Release(resident)
	ctx := &multijob.SchedContext{
		Queue:  []multijob.QueuedJob{{ID: 0, Spec: multijob.JobSpec{App: "gromacs", NP: 96}}},
		Free:   free,
		Fabric: fabric,
	}
	// Warm the free-list's slice pool so the timed loop recycles.
	free.Release(free.Alloc(12))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if picks := fcfs(ctx); len(picks) != 0 {
			b.Fatal("blocked head admitted")
		}
		terms := free.Alloc(12)
		if terms == nil {
			b.Fatal("alloc failed on a free fabric slice")
		}
		free.Release(terms)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
}

// BenchChurnWithFaults measures the degraded-routing transfer hot path: the
// paper XGFT with one switch-to-switch cable down, so every transfer takes
// the fault-aware branch — a RouteDraws into scratch (identical RNG
// consumption to the healthy path) plus a RouteIDsAvoiding detour — instead
// of direct RouteIDsInto. Steady state must allocate nothing, so long faulty
// intervals cost only the detour arithmetic, not GC churn.
func BenchChurnWithFaults(b *testing.B) {
	fabric := topology.Paper()
	net, err := network.New(fabric, network.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	fs := topology.NewFaultSet(fabric)
	tab := fabric.Table()
	failed := false
	for id := 0; id < tab.Len(); id += 2 {
		if tab.SwitchToSwitch(topology.LinkID(id)) {
			fs.FailLink(topology.LinkID(id))
			failed = true
			break
		}
	}
	if !failed {
		b.Fatal("no switch-to-switch cable to fail")
	}
	if err := net.SetFaults(fs); err != nil {
		b.Fatal(err)
	}
	// Warm the detour scratch buffers so the timed loop recycles them.
	net.Transfer(0, 37, 8192, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Transfer(i%128, (i+37)%128, 8192, time.Duration(i)*time.Microsecond)
	}
	if net.Unroutable() != 0 {
		b.Fatalf("%d unroutable transfers on a single-cable fault", net.Unroutable())
	}
}

func BenchNetworkTransfer(b *testing.B) {
	net, err := network.New(topology.Paper(), network.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Transfer(i%128, (i+37)%128, 8192, time.Duration(i)*time.Microsecond)
	}
}

// BenchDragonflyTransfer times transfers over the dragonfly preset: the
// generic Fabric routing path (interface dispatch + direct RouteIDsInto into
// the network's scratch path) rather than the paper XGFT's. Inter-group
// endpoints keep the Valiant intermediate-group draw on every transfer.
func BenchDragonflyTransfer(b *testing.B) {
	fabric, err := topology.Named("dragonfly")
	if err != nil {
		b.Fatal(err)
	}
	net, err := network.New(fabric, network.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	n := fabric.NumTerminals()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Transfer(i%n, (i+n/2+3)%n, 8192, time.Duration(i)*time.Microsecond)
	}
}

func BenchRouteCrossLeaf(b *testing.B) {
	topo := topology.Paper()
	buf := make([]topology.LinkID, 0, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = topo.RouteIDsInto(buf[:0], i%18, 250-(i%18), nil)
	}
}

// BenchBigFabricRoutes measures supercomputer-scale routing throughput: random
// pairs over the 8000-terminal xgft3-big preset through direct RouteIDsInto
// into a reused scratch path — the routing every fault-free transfer takes —
// with live RNG draws (two per cross-tree route).
func BenchBigFabricRoutes(b *testing.B) {
	fabric, err := topology.Named("xgft3-big")
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	n := fabric.NumTerminals()
	path := make([]topology.LinkID, 0, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		path = fabric.RouteIDsInto(path[:0], i%n, (i*7919+13)%n, rng)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "routes/s")
}

// BenchBigFabricReplay replays alya at 16 processes spread over the
// 8000-terminal xgft3-big preset: the full engine (routing, timing, power
// mechanism) against per-LinkID state sized for 48000 directed links.
func BenchBigFabricReplay(b *testing.B) {
	tr, err := workloads.Generate("alya", 16, workloads.Options{IterScale: 0.1})
	if err != nil {
		b.Fatal(err)
	}
	cfg := replay.DefaultConfig().WithPower(20*time.Microsecond, 0.01).WithFabric("xgft3-big")
	calls := float64(tr.NumCalls())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := replay.Run(tr, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(calls*float64(b.N)/b.Elapsed().Seconds(), "calls/s")
}

func BenchPredictorOnCall(b *testing.B) {
	p := predictor.MustNew(predictor.Config{GT: 20 * time.Microsecond, Displacement: 0.01})
	var now time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := predictor.EventID(41)
		gap := 5 * time.Microsecond
		switch i % 5 {
		case 0:
			gap = 300 * time.Microsecond
		case 3, 4:
			id, gap = 10, 200*time.Microsecond
		}
		now += gap
		p.OnCall(id, now, now)
	}
}

// BenchTimeSeriesRecord measures the streaming telemetry record path with
// the replay engine's series registry shape: per op, one busy span on a
// util class series, one power-draw span, and one hit-rate sample — the
// work telemetry adds to every simulated transfer. Must stay 0 allocs/op.
func BenchTimeSeriesRecord(b *testing.B) {
	ts := stats.NewTimeSeries(time.Millisecond, replay.DefaultTelemetryBuckets)
	power := ts.AddSpanSeries("power.host", "link-seconds")
	hit := ts.AddSeries("pred.hit", "hit")
	util := [4]stats.SeriesID{
		ts.AddSpanSeries("util.hostup", "busy-seconds"),
		ts.AddSpanSeries("util.hostdn", "busy-seconds"),
		ts.AddSpanSeries("util.up", "busy-seconds"),
		ts.AddSpanSeries("util.down", "busy-seconds"),
	}
	var now time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dur := time.Duration(2+i%17) * time.Microsecond
		ts.RecordSpan(util[i%4], now, now+dur, dur.Seconds())
		ts.RecordSpan(power, now, now+50*time.Microsecond, 43e-6)
		ts.Record(hit, now, float64(i%2))
		now += 30 * time.Microsecond
	}
}

// BenchDetectorAddGram measures the steady-state PPA gram path: a detected
// pattern being predicted over already-interned grams (zero allocations).
func BenchDetectorAddGram(b *testing.B) {
	grams, det := SteadyStateDetector()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.AddGram(grams[i%len(grams)])
	}
}

func BenchFig7(b *testing.B) {
	opt := workloads.Options{IterScale: 0.15}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := harness.NewRunner(opt, replay.DefaultConfig()).Figure(0.10)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var save, inc float64
			for _, r := range rows {
				save += r.SavingPct
				inc += r.TimeIncreasePct
			}
			b.ReportMetric(save/float64(len(rows)), "avg_saving_%")
			b.ReportMetric(inc/float64(len(rows)), "avg_time_incr_%")
		}
	}
}

// SteadyStateDetector builds a detector predicting the paper's Figure 3
// pattern and returns one full pattern appearance of finalized grams to
// cycle through it. Feeding the grams in order keeps the detector in
// prediction mode forever; the steady-state AddGram path allocates nothing.
func SteadyStateDetector() ([]*ngram.Gram, *ngram.Detector) {
	const gt = 20 * time.Microsecond
	bl := ngram.NewBuilder(gt)
	det := ngram.NewDetector(0)
	stream := []struct {
		id  ngram.EventID
		gap time.Duration
	}{
		{41, 300 * time.Microsecond}, {41, 5 * time.Microsecond}, {41, 5 * time.Microsecond},
		{10, 200 * time.Microsecond}, {10, 200 * time.Microsecond},
	}
	var grams []*ngram.Gram
	var now time.Duration
	for it := 0; it < 8; it++ {
		for _, ev := range stream {
			now += ev.gap
			if g := bl.Add(ev.id, ev.gap, now, now); g != nil {
				det.AddGram(g)
				if it >= 4 {
					grams = append(grams, g)
				}
			}
		}
	}
	if !det.Predicting() {
		panic("benchio: walkthrough stream did not reach prediction mode")
	}
	// Keep one aligned pattern appearance: the detector's phase after the
	// warmup continues exactly into grams[0].
	size := det.Active().Size()
	grams = grams[len(grams)-size:]
	return grams, det
}
