// Command perfbench runs one ibpower workflow once and reports what it cost
// on the host: set-up time, wall time, heap bytes allocated, peak resident
// memory, and a digest of the rendered output. With -trace it rebuilds the
// workflow from the per-layer calls instead, records a span around each, and
// adds the per-layer metrics. perfbench/run.py builds this program, starts it
// once per sample, checks the digests and prints the benchmark's metrics;
// perfbench/README.md explains the workloads and what each metric predicts.
//
// Usage:
//
//	perfbench -workload gt-table3|compare-paper|churn-big [-seed 42] [-trace] [-telemetry=false] [-workdir dir]
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// report is the one JSON line a run prints.
type report struct {
	OutputSHA    string             `json:"output_sha256"`
	SeriesSHA    string             `json:"timeseries_sha256,omitempty"`
	SetupS       float64            `json:"setup_s"`
	WallS        float64            `json:"wall_s"`
	AllocBytes   uint64             `json:"alloc_bytes"`
	PeakRSSBytes int64              `json:"peak_rss_bytes"`
	Events       int64              `json:"events"`
	Layers       map[string]float64 `json:"layers,omitempty"`
}

func main() {
	name := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Int64("seed", 42, "workload seed: feeds the generator options and the random placement")
	traced := flag.Bool("trace", false, "rebuild the workflow from per-layer calls and report per-layer metrics")
	telemetry := flag.Bool("telemetry", true, "record streaming telemetry on workloads that use it (churn-big)")
	workdir := flag.String("workdir", ".", "directory for the packed trace file and the span dump")
	flag.Parse()

	rep, err := run(*name, *seed, *traced, *telemetry, *workdir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run sets the workload up, makes its timed call and, when traced, its
// probes. The simulation is serial (Parallelism 1); GOMAXPROCS is capped at
// 2 so the collector gets the same help on any host.
func run(name string, seed int64, traced, telemetry bool, workdir string) (*report, error) {
	w, err := lookup(name)
	if err != nil {
		return nil, err
	}
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	var tr *tracer
	if traced {
		tr = newTracer(fmt.Sprintf("%s/%d", name, seed))
	}

	t0 := time.Now()
	in, err := w.setup(seed, telemetry, workdir, tr)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", name, err)
	}
	defer in.close()
	setup := time.Since(t0)

	before := readRuntime()
	t1 := time.Now()
	var out output
	if traced {
		out, err = w.traced(in, tr)
	} else {
		out, err = w.run(in)
	}
	wall := time.Since(t1)
	after := readRuntime()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	rss, err := peakRSS()
	if err != nil {
		return nil, err
	}

	if in.events == 0 {
		if in.events, err = gridEvents(in.opt); err != nil {
			return nil, err
		}
	}
	rep := &report{
		OutputSHA:    digest(out.text),
		SetupS:       setup.Seconds(),
		WallS:        wall.Seconds(),
		AllocBytes:   after.allocBytes - before.allocBytes,
		PeakRSSBytes: rss,
		Events:       in.events,
	}
	if out.series != nil {
		rep.SeriesSHA = digest(out.series)
	}
	if traced {
		layers, err := layerMetrics(in, tr)
		if err != nil {
			return nil, fmt.Errorf("%s probes: %w", name, err)
		}
		layers["runtime.gc_cpu_s"] = after.gcCPU - before.gcCPU
		layers["runtime.gc_cycles"] = float64(after.gcCycles - before.gcCycles)
		rep.Layers = layers
		if err := tr.dump(workdir, name); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// output is what a workflow renders: the text the matching ibpower
// subcommand prints, and its -timeseries JSON where it records one.
type output struct {
	text   []byte
	series []byte
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// runtimeSample is a point-in-time read of the runtime's cumulative counters.
type runtimeSample struct {
	allocBytes, gcCycles uint64
	gcCPU                float64
}

var runtimeMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

// readRuntime samples the counters without stopping the world.
func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
	}
}

// peakRSS returns the process's peak resident set size in bytes.
func peakRSS() (int64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return ru.Maxrss * 1024, nil // Linux reports kilobytes
}
