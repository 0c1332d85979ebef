package scenario

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// maxDistRange bounds the value range a distribution may span; the Zipf
// sampler precomputes a cumulative weight table over it, and process counts
// beyond this are far past any registered fabric anyway.
const maxDistRange = 1 << 16

// Dist is a seeded integer distribution over job sizes. Draw must be a pure
// function of the RNG stream: two distributions parsed from the same string
// and driven by identically seeded RNGs produce identical draws.
type Dist interface {
	Draw(r *rand.Rand) int
	String() string
}

// ParseDist parses a size distribution:
//
//	"32" or "fixed:32"       every draw is 32
//	"uniform:16:64"          integers uniform on [16, 64]
//	"choices:16@3:64@1"      weighted choice (weight 1 when omitted)
//	"normal:32:8"            normal with mean 32 and stddev 8, rounded
//	"zipf:16:256" / ":1.5"   Zipf-ranked over [16, 256], exponent s > 1
//
// A distribution that could draw a size below 2, the smallest valid
// process count, is rejected rather than run at a size the echoed spec
// does not state. Only normal draws are unbounded; Spec.Generate clamps
// them to 2.
func ParseDist(s string) (Dist, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, fmt.Errorf("scenario: empty size distribution")
	}
	if _, err := strconv.Atoi(s); err == nil {
		s = "fixed:" + s
	}
	kind, rest, _ := strings.Cut(s, ":")
	parts := []string{}
	if rest != "" {
		parts = strings.Split(rest, ":")
	}
	var d Dist
	least := 2 // the smallest size d can draw
	switch kind {
	case "fixed":
		if len(parts) != 1 {
			return nil, fmt.Errorf("scenario: fixed distribution wants one value, got %q", s)
		}
		v, err := strconv.Atoi(parts[0])
		if err != nil {
			return nil, fmt.Errorf("scenario: fixed value %q is not an integer", parts[0])
		}
		d, least = fixedDist(v), v
	case "uniform":
		if len(parts) != 2 {
			return nil, fmt.Errorf("scenario: uniform distribution wants lo:hi, got %q", s)
		}
		lo, err1 := strconv.Atoi(parts[0])
		hi, err2 := strconv.Atoi(parts[1])
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("scenario: uniform bounds %q are not integers", rest)
		}
		if hi < lo {
			return nil, fmt.Errorf("scenario: uniform bounds inverted: %d > %d", lo, hi)
		}
		if hi-lo > maxDistRange {
			return nil, fmt.Errorf("scenario: uniform range %d exceeds %d", hi-lo, maxDistRange)
		}
		d, least = uniformDist{lo: lo, hi: hi}, lo
	case "choices":
		if len(parts) == 0 {
			return nil, fmt.Errorf("scenario: choices distribution wants v@w entries, got %q", s)
		}
		c := choicesDist{}
		for _, p := range parts {
			vs, ws, hasW := strings.Cut(p, "@")
			v, err := strconv.Atoi(vs)
			if err != nil {
				return nil, fmt.Errorf("scenario: choice value %q is not an integer", vs)
			}
			w := 1.0
			if hasW {
				w, err = strconv.ParseFloat(ws, 64)
				if err != nil || w <= 0 || math.IsInf(w, 0) || math.IsNaN(w) {
					return nil, fmt.Errorf("scenario: choice weight %q must be a positive number", ws)
				}
			}
			c.values = append(c.values, v)
			c.cum = append(c.cum, w)
			least = min(least, v)
		}
		for i := 1; i < len(c.cum); i++ {
			c.cum[i] += c.cum[i-1]
		}
		d = c
	case "normal":
		if len(parts) != 2 {
			return nil, fmt.Errorf("scenario: normal distribution wants mean:stddev, got %q", s)
		}
		mean, err1 := strconv.ParseFloat(parts[0], 64)
		sd, err2 := strconv.ParseFloat(parts[1], 64)
		if err1 != nil || err2 != nil || sd < 0 ||
			math.IsInf(mean, 0) || math.IsNaN(mean) || math.IsInf(sd, 0) || math.IsNaN(sd) {
			return nil, fmt.Errorf("scenario: normal parameters %q must be numbers with stddev >= 0", rest)
		}
		d = normalDist{mean: mean, sd: sd}
	case "zipf":
		if len(parts) != 2 && len(parts) != 3 {
			return nil, fmt.Errorf("scenario: zipf distribution wants min:max[:s], got %q", s)
		}
		lo, err1 := strconv.Atoi(parts[0])
		hi, err2 := strconv.Atoi(parts[1])
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("scenario: zipf bounds %q are not integers", rest)
		}
		if hi < lo {
			return nil, fmt.Errorf("scenario: zipf bounds inverted: %d > %d", lo, hi)
		}
		if hi-lo > maxDistRange {
			return nil, fmt.Errorf("scenario: zipf range %d exceeds %d", hi-lo, maxDistRange)
		}
		exp := 1.5
		if len(parts) == 3 {
			var err error
			exp, err = strconv.ParseFloat(parts[2], 64)
			if err != nil || exp <= 1 || math.IsInf(exp, 0) || math.IsNaN(exp) {
				return nil, fmt.Errorf("scenario: zipf exponent %q must be a number > 1", parts[2])
			}
		}
		d, least = newZipfDist(lo, hi, exp), lo
	default:
		return nil, fmt.Errorf("scenario: unknown size distribution %q (want fixed, uniform, choices, normal, or zipf)", kind)
	}
	if least < 2 {
		return nil, fmt.Errorf("scenario: job size %d below the minimum of 2 processes", least)
	}
	return d, nil
}

type fixedDist int

func (d fixedDist) Draw(*rand.Rand) int { return int(d) }
func (d fixedDist) String() string      { return strconv.Itoa(int(d)) }

type uniformDist struct{ lo, hi int }

func (d uniformDist) Draw(r *rand.Rand) int { return d.lo + r.Intn(d.hi-d.lo+1) }
func (d uniformDist) String() string        { return fmt.Sprintf("uniform:%d:%d", d.lo, d.hi) }

type choicesDist struct {
	values []int
	cum    []float64 // cumulative weights, parallel to values
}

func (d choicesDist) Draw(r *rand.Rand) int {
	x := r.Float64() * d.cum[len(d.cum)-1]
	i := sort.SearchFloat64s(d.cum, x)
	if i == len(d.values) {
		i--
	}
	return d.values[i]
}

func (d choicesDist) String() string {
	parts := make([]string, len(d.values))
	prev := 0.0
	for i, v := range d.values {
		parts[i] = fmt.Sprintf("%d@%g", v, d.cum[i]-prev)
		prev = d.cum[i]
	}
	return "choices:" + strings.Join(parts, ":")
}

type normalDist struct{ mean, sd float64 }

func (d normalDist) Draw(r *rand.Rand) int {
	return int(math.Round(r.NormFloat64()*d.sd + d.mean))
}
func (d normalDist) String() string { return fmt.Sprintf("normal:%g:%g", d.mean, d.sd) }

// zipfDist draws v in [lo, hi] with P(v) proportional to (v-lo+1)^-s: the
// smallest size is the most frequent, with a power-law tail of big jobs —
// the empirical shape of cluster job-size logs. Sampling is inverse-CDF over
// a cumulative weight table fixed at parse time, so draws cost one Float64
// and a binary search and are identical on every platform.
type zipfDist struct {
	lo, hi int
	exp    float64
	cum    []float64
}

func newZipfDist(lo, hi int, exp float64) zipfDist {
	cum := make([]float64, hi-lo+1)
	total := 0.0
	for i := range cum {
		total += math.Pow(float64(i+1), -exp)
		cum[i] = total
	}
	return zipfDist{lo: lo, hi: hi, exp: exp, cum: cum}
}

func (d zipfDist) Draw(r *rand.Rand) int {
	x := r.Float64() * d.cum[len(d.cum)-1]
	i := sort.SearchFloat64s(d.cum, x)
	if i == len(d.cum) {
		i--
	}
	return d.lo + i
}

func (d zipfDist) String() string {
	if d.exp == 1.5 {
		return fmt.Sprintf("zipf:%d:%d", d.lo, d.hi)
	}
	return fmt.Sprintf("zipf:%d:%d:%g", d.lo, d.hi, d.exp)
}
