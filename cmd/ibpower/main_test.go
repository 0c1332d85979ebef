package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestUnknownPredictorRejectedEverywhere asserts every subcommand validates
// -predictor up front: a typo must fail fast with the registry listed, not
// after minutes of sweeping — and not silently fall back to the default.
func TestUnknownPredictorRejectedEverywhere(t *testing.T) {
	cmds := map[string]func([]string) error{
		"tableI":    cmdTableI,
		"gt":        cmdGT,
		"overheads": cmdOverheads,
		"figures":   cmdFigures,
		"compare":   cmdCompare,
		"multijob":  cmdMultijob,
		"scenario":  cmdScenario,
		"timeline":  cmdTimeline,
		"ppa":       cmdPPA,
		"energy":    cmdEnergy,
		"dvs":       cmdDVS,
		"weak":      cmdWeak,
	}
	for name, fn := range cmds {
		err := fn([]string{"-predictor", "nosuch"})
		if err == nil {
			t.Errorf("%s accepted an unknown predictor", name)
			continue
		}
		if !strings.Contains(err.Error(), "unknown predictor") ||
			!strings.Contains(err.Error(), "ngram") {
			t.Errorf("%s: error %q must reject the name and list the registry", name, err)
		}
	}
}

// TestUnknownTopoRejectedEverywhere asserts every subcommand validates -topo
// up front, mirroring -predictor: a typo must fail fast with the fabric
// registry listed, not after minutes of sweeping — and not silently fall
// back to the paper's XGFT.
func TestUnknownTopoRejectedEverywhere(t *testing.T) {
	cmds := map[string]func([]string) error{
		"tableI":    cmdTableI,
		"gt":        cmdGT,
		"overheads": cmdOverheads,
		"figures":   cmdFigures,
		"compare":   cmdCompare,
		"multijob":  cmdMultijob,
		"scenario":  cmdScenario,
		"timeline":  cmdTimeline,
		"ppa":       cmdPPA,
		"energy":    cmdEnergy,
		"dvs":       cmdDVS,
		"weak":      cmdWeak,
		"bench":     cmdBench,
		"topos":     cmdTopos,
	}
	for name, fn := range cmds {
		err := fn([]string{"-topo", "nosuch"})
		if err == nil {
			t.Errorf("%s accepted an unknown fabric", name)
			continue
		}
		if !strings.Contains(err.Error(), "unknown fabric") ||
			!strings.Contains(err.Error(), "dragonfly") {
			t.Errorf("%s: error %q must reject the name and list the registry", name, err)
		}
	}
}

// TestToposListsEveryFabric asserts the listing covers the whole registry —
// including the supercomputer-scale presets — and that the single-fabric
// filter works (cmdTopos writes to stdout; here only success and the
// registry walk are checked, the table contents are pinned by the topology
// package's own structural tests).
func TestToposListsEveryFabric(t *testing.T) {
	if err := cmdTopos(nil); err != nil {
		t.Errorf("topos over the full registry failed: %v", err)
	}
	if err := cmdTopos([]string{"-topo", "xgft3-big"}); err != nil {
		t.Errorf("topos -topo xgft3-big failed: %v", err)
	}
}

// TestMultijobRejectsBadFlags asserts the multijob-specific flags are
// validated up front: a typo'd -placement fails fast with the placement
// registry listed, and a malformed -jobs mix fails before any simulation.
func TestMultijobRejectsBadFlags(t *testing.T) {
	err := cmdMultijob([]string{"-placement", "nosuch"})
	if err == nil || !strings.Contains(err.Error(), "unknown placement") ||
		!strings.Contains(err.Error(), "roundrobin") {
		t.Errorf("unknown placement: error %q must reject the name and list the registry", err)
	}
	for _, jobs := range []string{"", "gromacs", "gromacs:1", "gromacs:x"} {
		if err := cmdMultijob([]string{"-jobs", jobs}); err == nil {
			t.Errorf("malformed -jobs %q accepted", jobs)
		}
	}
}

// TestScenarioRejectsBadFlags asserts the scenario-specific flags fail fast
// before any simulation: a typo'd -sched lists the scheduler registry (the
// same contract -predictor, -topo and -placement honor), and a malformed
// -spec or missing -specfile surfaces its parse error immediately.
func TestScenarioRejectsBadFlags(t *testing.T) {
	err := cmdScenario([]string{"-sched", "nosuch"})
	if err == nil || !strings.Contains(err.Error(), "unknown scheduler") ||
		!strings.Contains(err.Error(), "power-aware") {
		t.Errorf("unknown scheduler: error %q must reject the name and list the registry", err)
	}
	err = cmdScenario([]string{"-placement", "nosuch"})
	if err == nil || !strings.Contains(err.Error(), "unknown placement") {
		t.Errorf("unknown placement: error %q must reject the name and list the registry", err)
	}
	for _, spec := range []string{"jobs", "jobs=0", "size=weird:1", "color=red"} {
		if err := cmdScenario([]string{"-spec", spec}); err == nil {
			t.Errorf("malformed -spec %q accepted", spec)
		}
	}
	if err := cmdScenario([]string{"-specfile", "testdata-nosuch-file"}); err == nil {
		t.Error("missing -specfile accepted")
	}
}

// TestGTRejectsBadFlags asserts gt refuses flag combinations it would
// otherwise silently ignore: -np only filters an -app sweep, so -np alone
// must fail naming both flags instead of printing every Table III row.
func TestGTRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{{"-np", "1"}, {"-np", "64"}, {"-np", "16", "-app", ""}} {
		err := cmdGT(args)
		if err == nil || !strings.Contains(err.Error(), "-np") || !strings.Contains(err.Error(), "-app") {
			t.Errorf("gt %v: error %v, want a complaint naming -np and -app", args, err)
		}
	}
}

// TestBadScaleRejectedEverywhere asserts every subcommand that registers
// -scale rejects a value that is not a finite number > 0 before any work,
// with an error naming the flag: -scale 0 must not silently mean full scale,
// and a negative, NaN or infinite multiplier must not reach the generator.
func TestBadScaleRejectedEverywhere(t *testing.T) {
	out := filepath.Join(t.TempDir(), "never.ibt")
	cmds := map[string]func([]string) error{
		"tableI":    cmdTableI,
		"gt":        cmdGT,
		"overheads": cmdOverheads,
		"figures":   cmdFigures,
		"compare":   cmdCompare,
		"multijob":  cmdMultijob,
		"scenario":  cmdScenario,
		"timeline":  cmdTimeline,
		"energy":    cmdEnergy,
		"dvs":       cmdDVS,
		"weak":      cmdWeak,
		"trace pack": func(args []string) error {
			return cmdTrace(append([]string{"pack", "-jobs", "alya:8", "-o", out}, args...))
		},
	}
	for name, fn := range cmds {
		for _, v := range []string{"0", "-1", "NaN", "Inf", "-Inf"} {
			err := fn([]string{"-scale", v})
			if err == nil || !strings.Contains(err.Error(), "-scale") {
				t.Errorf("%s -scale %s: error %v, want a complaint naming -scale", name, v, err)
			}
		}
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("trace pack wrote %s despite a bad -scale (stat: %v)", out, err)
	}
}
