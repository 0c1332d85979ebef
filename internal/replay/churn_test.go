package replay

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

func identTerms(np int) []int {
	terms := make([]int, np)
	for i := range terms {
		terms[i] = i
	}
	return terms
}

// TestChurnSingleAdmissionMatchesRun proves the incremental session is the
// same simulation Run performs: one job admitted at time 0 must produce the
// exact Result, field for field.
func TestChurnSingleAdmissionMatchesRun(t *testing.T) {
	tr := genTrace(t, "alya", 8)
	cfg := DefaultConfig().WithPower(20*time.Microsecond, 0.01)

	want, err := Run(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewChurn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.AdmitAt(0, Job{Source: tr, Terminals: identTerms(tr.NP)})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got[0], want) {
		t.Errorf("churn admission at 0 diverged from Run:\n got %+v\nwant %+v", got[0], want)
	}
}

// TestChurnOffsetAdmission asserts a job admitted mid-timeline reports
// job-relative times and a power accounting window spanning exactly its own
// lifetime — not the epoch before it arrived.
func TestChurnOffsetAdmission(t *testing.T) {
	tr := genTrace(t, "gromacs", 8)
	cfg := DefaultConfig().WithPower(20*time.Microsecond, 0.01)

	base, err := Run(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewChurn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const start = 3 * time.Second
	got, err := c.AdmitAt(start, Job{Source: tr, Terminals: identTerms(tr.NP)})
	if err != nil {
		t.Fatal(err)
	}
	// An empty fabric at time `start` is indistinguishable from an empty
	// fabric at time 0, so the job-relative result must match bit for bit.
	if !reflect.DeepEqual(got[0], base) {
		t.Errorf("offset admission on an idle fabric diverged from Run:\n got %+v\nwant %+v",
			got[0], base)
	}
	var acct time.Duration
	for _, a := range got[0].Acct {
		acct += a.Full + a.Low + a.Deep + a.Shift
	}
	wantAcct := time.Duration(len(got[0].Acct)) * got[0].ExecTime
	if acct > wantAcct {
		t.Errorf("accounting covers %v, more than %d ranks x %v lifetime — window leaked before the admission time",
			acct, len(got[0].Acct), got[0].ExecTime)
	}
}

// TestChurnTerminalReuse asserts terminals freed by a finished job are
// admissible again at a later time, while overlapping occupancy and
// backwards admission times are rejected.
func TestChurnTerminalReuse(t *testing.T) {
	tr := genTrace(t, "alya", 8)
	cfg := DefaultConfig()
	c, err := NewChurn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first, err := c.AdmitAt(0, Job{Source: tr, Terminals: identTerms(tr.NP)})
	if err != nil {
		t.Fatal(err)
	}
	finish := first[0].ExecTime

	// Overlap: same terminals strictly before the first job finishes.
	if _, err := c.AdmitAt(finish/2, Job{Source: tr, Terminals: identTerms(tr.NP)}); err == nil {
		t.Fatal("admission onto busy terminals accepted")
	} else if !strings.Contains(err.Error(), "busy until") {
		t.Errorf("overlap error %q should name the busy window", err)
	}

	// The session is poisoned after an error; reuse is asserted on a fresh one.
	c, err = NewChurn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AdmitAt(0, Job{Source: tr, Terminals: identTerms(tr.NP)}); err != nil {
		t.Fatal(err)
	}
	// Release boundary is inclusive: admission exactly at the finish time.
	if _, err := c.AdmitAt(finish, Job{Source: tr, Terminals: identTerms(tr.NP)}); err != nil {
		t.Errorf("reuse at the exact finish time rejected: %v", err)
	}
	if _, err := c.AdmitAt(finish/2, Job{Source: tr, Terminals: identTerms(tr.NP)}); err == nil {
		t.Error("admission time going backwards accepted")
	}
}

// TestChurnReleaseTerminals asserts the kill path: after an early release,
// the same terminals are admissible from the release instant even though the
// original occupant's replay ran past it.
func TestChurnReleaseTerminals(t *testing.T) {
	tr := genTrace(t, "alya", 8)
	c, err := NewChurn(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	first, err := c.AdmitAt(0, Job{Source: tr, Terminals: identTerms(tr.NP)})
	if err != nil {
		t.Fatal(err)
	}
	kill := first[0].ExecTime / 2
	c.ReleaseTerminals(kill, identTerms(tr.NP))
	if _, err := c.AdmitAt(kill, Job{Source: tr, Terminals: identTerms(tr.NP)}); err != nil {
		t.Fatalf("admission onto early-released terminals rejected: %v", err)
	}
}
