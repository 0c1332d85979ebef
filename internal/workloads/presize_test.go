package workloads

import (
	"flag"
	"testing"
	"unsafe"

	"ibpower/internal/trace"
)

// TestPresizeExact asserts the dry run's round count is exact: every rank
// stream Generate builds, and every stream a NewSource cursor reads, is
// allocated once at its final length (len == cap), for every application,
// every paper process count, three iteration scales and both scaling
// regimes.
func TestPresizeExact(t *testing.T) {
	for _, app := range Apps() {
		for _, np := range ProcCounts(app) {
			for _, scale := range []float64{0.1, 0.3, 1} {
				for _, weak := range []bool{false, true} {
					opt := Options{Seed: 11, IterScale: scale, Weak: weak}
					tr, err := Generate(app, np, opt)
					if err != nil {
						t.Fatal(err)
					}
					src, err := NewSource(app, np, opt)
					if err != nil {
						t.Fatal(err)
					}
					for r, ops := range tr.Ranks {
						if len(ops) == 0 || len(ops) != cap(ops) {
							t.Fatalf("%s np=%d scale=%g weak=%v rank %d: Generate len %d cap %d",
								app, np, scale, weak, r, len(ops), cap(ops))
						}
						if got := src.(*genSource).rank(r); len(got) != len(ops) || len(got) != cap(got) {
							t.Fatalf("%s np=%d scale=%g weak=%v rank %d: source len %d cap %d, want %d",
								app, np, scale, weak, r, len(got), cap(got), len(ops))
						}
					}
				}
			}
		}
	}
}

// TestGenerateAllocBudget pins what presizing saves: at np=16, Generate
// allocates the trace's ops exactly once plus a fixed slack. The slack is
// 6 KiB for each of np+2 rand sources (a math/rand source is ~4.9 KiB: one
// per rank for jitter, the shared structure source, and the dry run's own
// structure source; the rank and jitter headers fit in the remainder), and
// 8 KiB per rank for the allocator rounding a stream up to its size class
// (whole 8 KiB pages above 32 KiB). Growing the streams by append instead
// would allocate at least twice the ops.
func TestGenerateAllocBudget(t *testing.T) {
	const np = 16
	// One Generate per measurement: the byte count is deterministic.
	bt := flag.Lookup("test.benchtime")
	old := bt.Value.String()
	if err := bt.Value.Set("1x"); err != nil {
		t.Fatal(err)
	}
	defer bt.Value.Set(old) // restores a value the flag already held
	opSize := int64(unsafe.Sizeof(trace.Op{}))
	for _, app := range Apps() {
		opt := Options{Seed: 5, IterScale: 0.3}
		tr, err := Generate(app, np, opt)
		if err != nil {
			t.Fatal(err)
		}
		budget := int64(tr.NumOps())*opSize + (np+2)*6<<10 + np*8<<10
		got := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Generate(app, np, opt)
			}
		}).AllocedBytesPerOp()
		if got > budget {
			t.Errorf("%s np=%d: Generate allocated %d bytes, budget %d (%d ops of %d bytes + slack)",
				app, np, got, budget, tr.NumOps(), opSize)
		}
	}
}
