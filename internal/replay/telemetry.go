package replay

import (
	"time"

	"ibpower/internal/power"
	"ibpower/internal/stats"
	"ibpower/internal/topology"
)

// Telemetry defaults.
const (
	// DefaultTelemetryTick is the initial bucket width of the telemetry
	// time series; long runs coarsen it by doubling (stats.TimeSeries).
	DefaultTelemetryTick = time.Millisecond
	// DefaultTelemetryBuckets bounds per-series bucket storage.
	DefaultTelemetryBuckets = 512
)

// TelemetryConfig opts a run into streaming time-series telemetry. It is
// purely observational: every hook records state the simulation already
// computes, so enabling it changes no simulated result and no rendered
// output — only Result.Series and Churn.Telemetry become non-nil.
type TelemetryConfig struct {
	Enabled bool
	// Tick is the initial bucket width; <= 0 selects DefaultTelemetryTick.
	Tick time.Duration
	// MaxBuckets bounds per-series bucket storage; when a run outgrows it
	// the tick doubles and buckets fold. <= 0 selects
	// DefaultTelemetryBuckets.
	MaxBuckets int
}

// WithTelemetry returns cfg with telemetry enabled at the given tick
// (<= 0 selects DefaultTelemetryTick).
func (c Config) WithTelemetry(tick time.Duration) Config {
	c.Telemetry = TelemetryConfig{Enabled: true, Tick: tick}
	return c
}

// Telemetry series emitted by the replay engine (see README "Telemetry
// series" for the full registry):
//
//	power.host   span    host-link power draw, link-seconds × power fraction
//	power.low    span    link-seconds spent in low or deep mode
//	pred.hit     sample  1/0 per prediction opportunity; mean = hit rate
//	util.hostup  span    busy seconds, terminal→switch links
//	util.hostdn  span    busy seconds, switch→terminal links
//	util.up      span    busy seconds, switch→switch up-links
//	util.down    span    busy seconds, other switch→switch links
//
// The churn engine (internal/multijob) adds queue.depth, fabric.occupied
// and capacity.up on the same recorder.
type telemetry struct {
	ts      *stats.TimeSeries
	power   stats.SeriesID
	low     stats.SeriesID
	hit     stats.SeriesID
	linkSid []stats.SeriesID // per directed LinkID: its util.* class series
}

// newTelemetry builds the recorder and registers the engine-level series.
// The per-LinkID class table makes ObserveBusy a flat array lookup.
func newTelemetry(tc TelemetryConfig, topo topology.Fabric) *telemetry {
	tick := tc.Tick
	if tick <= 0 {
		tick = DefaultTelemetryTick
	}
	mb := tc.MaxBuckets
	if mb <= 0 {
		mb = DefaultTelemetryBuckets
	}
	ts := stats.NewTimeSeries(tick, mb)
	t := &telemetry{
		ts:    ts,
		power: ts.AddSpanSeries("power.host", "link-seconds"),
		low:   ts.AddSpanSeries("power.low", "link-seconds"),
		hit:   ts.AddSeries("pred.hit", "hit"),
	}
	classes := [4]stats.SeriesID{
		ts.AddSpanSeries("util.hostup", "busy-seconds"),
		ts.AddSpanSeries("util.hostdn", "busy-seconds"),
		ts.AddSpanSeries("util.up", "busy-seconds"),
		ts.AddSpanSeries("util.down", "busy-seconds"),
	}
	tbl := topo.Table()
	t.linkSid = make([]stats.SeriesID, tbl.Len())
	for id := range t.linkSid {
		k := tbl.Kind[id]
		var c int
		switch {
		case k&topology.LinkFromSwitch == 0:
			c = 0 // terminal → switch
		case k&topology.LinkToSwitch == 0:
			c = 1 // switch → terminal
		case k&topology.LinkUp != 0:
			c = 2 // fabric up-link
		default:
			c = 3 // fabric down/lateral link
		}
		t.linkSid[id] = classes[c]
	}
	return t
}

// ObserveBusy implements network.BusyObserver: each reservation becomes a
// busy-seconds span on the link's class series. Allocation-free.
func (t *telemetry) ObserveBusy(link topology.LinkID, start, end time.Duration) {
	t.ts.RecordSpan(t.linkSid[link], start, end, (end - start).Seconds())
}

// observeMode is the power.Controller observer: every closed mode interval
// becomes a power-draw span (link-seconds weighted by the mode's draw
// fraction) and, for the saving modes, a low-time span. deepFraction is the
// controller's deep-mode draw (0 when deep mode is off).
func (t *telemetry) observeMode(deepFraction float64) func(m power.Mode, from, to time.Duration) {
	if deepFraction <= 0 {
		deepFraction = power.DeepPowerFraction
	}
	return func(m power.Mode, from, to time.Duration) {
		sec := (to - from).Seconds()
		frac := 1.0 // full power; shifts are charged at full draw too
		switch m {
		case power.ModeLow:
			frac = power.LowPowerFraction
			t.ts.RecordSpan(t.low, from, to, sec)
		case power.ModeDeep:
			frac = deepFraction
			t.ts.RecordSpan(t.low, from, to, sec)
		}
		t.ts.RecordSpan(t.power, from, to, sec*frac)
	}
}

// recordHit records one prediction opportunity for a rank: hit is 1 when
// the realized idle confirmed the prediction. The series mean is the hit
// rate; bucket means give it per interval.
func (t *telemetry) recordHit(at time.Duration, hit float64) {
	t.ts.Record(t.hit, at, hit)
}
