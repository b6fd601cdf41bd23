package main

import (
	"math/rand"
	"testing"
	"time"

	"github.com/privconsensus/privconsensus/internal/obs"
	"github.com/privconsensus/privconsensus/internal/protocol"
)

// TestParseSummaryReadsServerLog parses a summary line produced by the
// servers' own tracer, so a change to the log format fails here rather
// than silently emptying the step metrics.
func TestParseSummaryReadsServerLog(t *testing.T) {
	tr := obs.NewTracer("s1-q0")
	for _, step := range []string{protocol.StepBlindPerm1, protocol.StepCompare1, protocol.StepThreshold} {
		tr.StartPhase(step)
		time.Sleep(2 * time.Millisecond)
		tr.EndPhase(step, nil)
		tr.SetPhaseIO(step, 100, 200, 1, 1, 1)
	}
	tr.Finish("consensus label=3", nil)
	line := "2026/01/01 00:00:00.000000 [s1] " + tr.Trace().Summary()

	total, phases, err := parseSummary(line)
	if err != nil {
		t.Fatal(err)
	}
	if len(phases) != 3 {
		t.Fatalf("parsed phases %v from %q, want 3", phases, line)
	}
	var sum time.Duration
	for step, d := range phases {
		if d < 2*time.Millisecond {
			t.Errorf("phase %s parsed as %v, want at least 2ms", step, d)
		}
		sum += d
	}
	if total < sum {
		t.Errorf("total %v below the phases' sum %v", total, sum)
	}
	if got := summaryResult(line); got != "consensus label=3" {
		t.Errorf("result %q, want %q", got, "consensus label=3")
	}
}

func TestCoveredMergesOverlappingChildren(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	parent := span{Start: at(0), End: at(100)}
	kids := []span{
		{Start: at(10), End: at(30)},
		{Start: at(20), End: at(40)},  // overlaps the first
		{Start: at(90), End: at(120)}, // runs past the parent
		{Start: at(-5), End: at(5)},   // starts before the parent
		{Start: at(50), End: at(50)},  // empty
	}
	if got, want := covered(parent, kids), 45*time.Millisecond; got != want {
		t.Errorf("covered = %v, want %v", got, want)
	}
}

func TestBallotHasUniqueMaximum(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		b := newBallot(rng, 10, 10, agreement)
		for c, n := range b.counts {
			if c != b.top && n >= b.counts[b.top] {
				t.Fatalf("ballot %v: class %d ties or beats top class %d", b.counts, c, b.top)
			}
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i)
	}
	if got := percentile(xs, 95); got != 190 {
		t.Errorf("p95 of 1..200 = %v, want 190", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}
