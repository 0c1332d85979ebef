package scenario

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"ibpower/internal/multijob"
	"ibpower/internal/workloads"
)

// MaxJobs bounds a scenario's job count; beyond it a spec is a typo, not an
// experiment.
const MaxJobs = 100000

// Spec describes a churn scenario compactly enough to live on a command
// line: how many jobs, which applications, how big, and how they arrive.
// Everything downstream of the seed is deterministic — the same spec always
// expands to the same arrival stream.
type Spec struct {
	Jobs    int           // number of jobs to generate
	Apps    []string      // applications drawn uniformly per job
	Size    Dist          // process-count distribution
	Arrival ArrivalProc   // inter-arrival gap process
	Speed   float64       // >1 compresses gaps (faster churn), <1 stretches them
	Seed    int64         // seeds sizes, apps, and gaps; also the placement seed
	Faults  []FaultClause // hardware failure processes; empty = fault-free
}

// DefaultSpec returns a moderate scenario on the paper's fabric: 50 jobs
// over every registered application, uniform sizes 4–32, Poisson arrivals
// every 20s of simulated time.
func DefaultSpec() Spec {
	return Spec{
		Jobs:    50,
		Apps:    workloads.Apps(),
		Size:    uniformDist{lo: 4, hi: 32},
		Arrival: poissonArrivals(20 * time.Second),
		Speed:   1,
		Seed:    1,
	}
}

// specKeys names every valid spec key; parse errors list it so a typo is
// self-correcting.
const specKeys = "jobs, apps, size, arrival, speed, seed, or faults"

// ParseSpec parses a comma-separated scenario spec such as
//
//	jobs=200,size=zipf:16:256,arrival=poisson:30s,seed=7
//
// on top of DefaultSpec: keys not mentioned keep their defaults. Valid keys
// are jobs, apps (names joined with "+"), size (ParseDist), arrival
// (ParseArrivalProc), speed, seed, and faults (ParseFaults). Each key may
// appear at most once.
func ParseSpec(s string) (Spec, error) {
	return ApplySpec(DefaultSpec(), s)
}

// specPairs splits a spec string into key=value pairs. The faults value
// itself contains commas ("faults=link:poisson:10m,switch:fixed:5m"), so a
// comma segment that does not start a new lowercase key continues the
// previous value.
func specPairs(s string) ([][2]string, error) {
	var pairs [][2]string
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if startsSpecKey(part) {
			key, val, _ := strings.Cut(part, "=")
			pairs = append(pairs, [2]string{strings.TrimSpace(key), strings.TrimSpace(val)})
			continue
		}
		if len(pairs) == 0 {
			return nil, fmt.Errorf("scenario: %q: want key=value (keys: %s)", part, specKeys)
		}
		pairs[len(pairs)-1][1] += "," + part
	}
	return pairs, nil
}

// startsSpecKey reports whether the segment begins a new key=value pair: a
// run of lowercase letters immediately followed by "=".
func startsSpecKey(part string) bool {
	i := 0
	for i < len(part) && part[i] >= 'a' && part[i] <= 'z' {
		i++
	}
	return i > 0 && i < len(part) && part[i] == '='
}

// ApplySpec overlays the spec string's keys onto base. An empty string is a
// valid no-op, so a CLI can layer -spec over -specfile. Duplicate keys are
// rejected rather than last-wins: a spec assembled from several sources that
// sets jobs twice is a mistake worth hearing about.
func ApplySpec(base Spec, s string) (Spec, error) {
	if strings.TrimSpace(s) == "" {
		return base, nil
	}
	pairs, err := specPairs(s)
	if err != nil {
		return Spec{}, err
	}
	seen := make(map[string]bool, len(pairs))
	for _, kv := range pairs {
		key, val := kv[0], kv[1]
		if seen[key] {
			return Spec{}, fmt.Errorf("scenario: duplicate spec key %q (each of %s may appear once)", key, specKeys)
		}
		seen[key] = true
		var err error
		switch key {
		case "jobs":
			base.Jobs, err = strconv.Atoi(val)
			if err != nil {
				return Spec{}, fmt.Errorf("scenario: jobs=%q is not an integer", val)
			}
			if base.Jobs < 1 || base.Jobs > MaxJobs {
				return Spec{}, fmt.Errorf("scenario: jobs must be in [1, %d], got %d", MaxJobs, base.Jobs)
			}
		case "apps":
			base.Apps = nil
			for _, a := range strings.Split(val, "+") {
				if a = strings.TrimSpace(a); a != "" {
					base.Apps = append(base.Apps, a)
				}
			}
		case "size":
			base.Size, err = ParseDist(val)
			if err != nil {
				return Spec{}, err
			}
		case "arrival":
			base.Arrival, err = ParseArrivalProc(val)
			if err != nil {
				return Spec{}, err
			}
		case "speed":
			base.Speed, err = strconv.ParseFloat(val, 64)
			if err != nil {
				return Spec{}, fmt.Errorf("scenario: speed=%q is not a number", val)
			}
			if !(base.Speed > 0) {
				return Spec{}, fmt.Errorf("scenario: speed must be positive, got %v", base.Speed)
			}
		case "seed":
			base.Seed, err = strconv.ParseInt(val, 10, 64)
			if err != nil {
				return Spec{}, fmt.Errorf("scenario: seed=%q is not an integer", val)
			}
		case "faults":
			base.Faults, err = ParseFaults(val)
			if err != nil {
				return Spec{}, err
			}
		default:
			return Spec{}, fmt.Errorf("scenario: unknown spec key %q (want %s)", key, specKeys)
		}
	}
	if err := base.Validate(); err != nil {
		return Spec{}, err
	}
	return base, nil
}

// ParseSpecFile reads a spec from a file: one key=value per line, blank
// lines and #-comments ignored — the same keys and defaults as ParseSpec.
func ParseSpecFile(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, fmt.Errorf("scenario: %v", err)
	}
	var parts []string
	for _, line := range strings.Split(string(data), "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		if line = strings.TrimSpace(line); line != "" {
			parts = append(parts, line)
		}
	}
	return ParseSpec(strings.Join(parts, ","))
}

// Validate checks the spec's invariants.
func (s Spec) Validate() error {
	if s.Jobs < 1 || s.Jobs > MaxJobs {
		return fmt.Errorf("scenario: jobs must be in [1, %d], got %d", MaxJobs, s.Jobs)
	}
	if len(s.Apps) == 0 {
		return fmt.Errorf("scenario: no applications selected")
	}
	known := make(map[string]bool)
	for _, a := range workloads.Apps() {
		known[a] = true
	}
	for _, a := range s.Apps {
		if !known[a] {
			return fmt.Errorf("scenario: unknown application %q (generatable: %s)",
				a, strings.Join(workloads.Apps(), ", "))
		}
	}
	if s.Size == nil {
		return fmt.Errorf("scenario: no size distribution")
	}
	if s.Arrival == nil {
		return fmt.Errorf("scenario: no arrival process")
	}
	if !(s.Speed > 0) {
		return fmt.Errorf("scenario: speed must be positive, got %v", s.Speed)
	}
	for _, c := range s.Faults {
		if c.Proc == nil {
			return fmt.Errorf("scenario: fault clause %s has no failure process", c.Kind)
		}
	}
	return nil
}

// String renders the spec in canonical ParseSpec form; parsing it back
// yields an identical spec. The faults key only appears when set, so
// fault-free specs render exactly as before the fault layer existed.
func (s Spec) String() string {
	out := fmt.Sprintf("jobs=%d,apps=%s,size=%s,arrival=%s,speed=%g,seed=%d",
		s.Jobs, strings.Join(s.Apps, "+"), s.Size, s.Arrival, s.Speed, s.Seed)
	if len(s.Faults) > 0 {
		out += ",faults=" + FormatFaults(s.Faults)
	}
	return out
}

// Generate expands the spec into its arrival stream: per job, an
// inter-arrival gap (the first job arrives at time 0), an application drawn
// uniformly, and a size drawn from the distribution (only a normal draw can
// fall below 2 ranks; it is clamped to 2). One seeded RNG drives all three in a fixed order, so the stream is
// a pure function of the spec.
func (s Spec) Generate() ([]multijob.Arrival, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(s.Seed))
	arrivals := make([]multijob.Arrival, s.Jobs)
	var t time.Duration
	for i := range arrivals {
		if i > 0 {
			t += time.Duration(float64(s.Arrival.Gap(r)) / s.Speed)
		}
		app := s.Apps[r.Intn(len(s.Apps))]
		np := s.Size.Draw(r)
		if np < 2 {
			np = 2
		}
		arrivals[i] = multijob.Arrival{Job: multijob.JobSpec{App: app, NP: np}, At: t}
	}
	return arrivals, nil
}
