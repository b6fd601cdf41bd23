package main

import (
	"fmt"
	"regexp"
	"strings"
	"time"

	"github.com/privconsensus/privconsensus/internal/obs"
	"github.com/privconsensus/privconsensus/internal/protocol"
)

// counterSet is a snapshot of the in-process operation counters the
// crypto layers keep on the obs default registry.
type counterSet struct {
	values map[string]int64
}

// counterNames are the counters the per-query counts come from; a series
// with labels is named name{key=value}.
var counterNames = []string{
	"paillier_encrypt_total", "paillier_add_total", "paillier_decrypt_total",
	"dgk_comparisons_total{party=a}", "dgk_zerotest_total",
	"dgk_material_hits_total", "dgk_material_misses_total",
	"privconsensus_fixedbase_hits_total", "privconsensus_fixedbase_fallbacks_total",
	"retries_total",
}

func snapshotCounters() counterSet {
	cs := counterSet{values: map[string]int64{}}
	for _, name := range counterNames {
		cs.values[name] = counterValue(name)
	}
	return cs
}

// counterValue reads one in-process counter; a name without labels sums
// every labelled series of it.
func counterValue(name string) int64 {
	if base, label, ok := cutLabel(name); ok {
		return obs.Default.CounterValue(base, obs.L(label[0], label[1]))
	}
	var total int64
	for _, p := range obs.Default.Snapshot() {
		if p.Name == name {
			total += int64(p.Value)
		}
	}
	return total
}

// since returns the counter increments from the snapshot to now.
func (cs counterSet) since() counterSet {
	out := counterSet{values: map[string]int64{}}
	for _, name := range counterNames {
		out.values[name] = counterValue(name) - cs.values[name]
	}
	return out
}

// promCounters converts a /metrics delta into the same counter names.
func promCounters(p promSample) counterSet {
	out := counterSet{values: map[string]int64{}}
	for _, name := range counterNames {
		if base, label, ok := cutLabel(name); ok {
			out.values[name] = int64(p.sum(base, label[0]+`="`+label[1]+`"`))
		} else {
			out.values[name] = int64(p.sum(name))
		}
	}
	return out
}

// plus adds two counter sets.
func (cs counterSet) plus(o counterSet) counterSet {
	out := counterSet{values: map[string]int64{}}
	for _, name := range counterNames {
		out.values[name] = cs.values[name] + o.values[name]
	}
	return out
}

// report turns counter increments into per-query counts and shares.
func (cs counterSet) report(rep *report, queries float64) {
	v := func(name string) float64 { return float64(cs.values[name]) }
	rep.set("paillier.enc_per_query", v("paillier_encrypt_total")/queries)
	rep.set("paillier.add_per_query", v("paillier_add_total")/queries)
	rep.set("paillier.dec_per_query", v("paillier_decrypt_total")/queries)
	rep.set("dgk.comparisons_per_query", v("dgk_comparisons_total{party=a}")/queries)
	rep.set("dgk.zerotests_per_query", v("dgk_zerotest_total")/queries)
	rep.set("dgk.material_miss_share", ratio(v("dgk_material_misses_total"),
		v("dgk_material_hits_total")+v("dgk_material_misses_total")))
	rep.set("mathutil.fixedbase_hit_share", ratio(v("privconsensus_fixedbase_hits_total"),
		v("privconsensus_fixedbase_hits_total")+v("privconsensus_fixedbase_fallbacks_total")))
	rep.set("deploy.retries", v("retries_total"))
}

// cutLabel splits "name{key=value}".
func cutLabel(name string) (string, [2]string, bool) {
	base, rest, ok := strings.Cut(name, "{")
	if !ok {
		return name, [2]string{}, false
	}
	k, val, _ := strings.Cut(rest[:len(rest)-1], "=")
	return base, [2]string{k, val}, true
}

// pairScrape is both servers' /metrics at one moment, with the crypto
// operation counters of the servers and the benchmark process combined.
type pairScrape struct {
	s1, s2   promSample
	counters counterSet
}

func scrapePair(s1, s2 *child) (pairScrape, error) {
	a, err := s1.scrape()
	if err != nil {
		return pairScrape{}, err
	}
	b, err := s2.scrape()
	if err != nil {
		return pairScrape{}, err
	}
	return pairScrape{s1: a, s2: b, counters: promCounters(a).plus(promCounters(b)).plus(snapshotCounters())}, nil
}

// delta returns the increments from before to p.
func (p pairScrape) delta(before pairScrape) pairScrape {
	out := pairScrape{s1: p.s1.delta(before.s1), s2: p.s2.delta(before.s2),
		counters: counterSet{values: map[string]int64{}}}
	for _, name := range counterNames {
		out.counters.values[name] = p.counters.values[name] - before.counters.values[name]
	}
	return out
}

// reportSteps turns S1's query summary lines into per-query protocol
// step times and the step residual: S1's query wall time minus the sum of
// its phase times.
func reportSteps(rep *report, summaries []string) error {
	if len(summaries) == 0 {
		return fmt.Errorf("S1 logged no query summaries")
	}
	stepSum := map[string]time.Duration{}
	stepN := map[string]int{}
	var residual []float64
	for _, line := range summaries {
		total, phases, err := parseSummary(line)
		if err != nil {
			return err
		}
		var steps time.Duration
		for step, dur := range phases {
			stepSum[step] += dur
			stepN[step]++
			steps += dur
		}
		residual = append(residual, durMs(total-steps))
	}
	n := float64(len(summaries))
	for _, s := range paperSteps {
		rep.setMs(s.metric, time.Duration(ratio(float64(stepSum[s.step]), float64(stepN[s.step]))))
	}
	var compare time.Duration
	for _, st := range comparisonSteps {
		compare += stepSum[st]
	}
	rep.setMs("protocol.compare_steps_ms", time.Duration(float64(compare)/n))
	rep.setMs("protocol.secure_sum_ms", time.Duration(float64(stepSum[protocol.StepSecureSum1]+stepSum[protocol.StepSecureSum2])/n))
	rep.set("protocol.step_residual_ms", mean(residual))
	return nil
}

// summaryPhase matches one "step=duration/bytesB" field of a query
// summary line.
var summaryPhase = regexp.MustCompile(`(\S+\(\d+\))=([0-9.]+[a-zµ]+)/\d+B`)

// parseSummary reads a server's per-query summary log line: its total
// wall time and each protocol phase's duration.
func parseSummary(line string) (time.Duration, map[string]time.Duration, error) {
	_, rest, ok := strings.Cut(line, " total=")
	if !ok {
		return 0, nil, fmt.Errorf("query summary without total: %q", line)
	}
	field, _, _ := strings.Cut(rest, " ")
	total, err := time.ParseDuration(field)
	if err != nil {
		return 0, nil, fmt.Errorf("query summary total: %w", err)
	}
	phases := map[string]time.Duration{}
	for _, m := range summaryPhase.FindAllStringSubmatch(rest, -1) {
		d, err := time.ParseDuration(m[2])
		if err != nil {
			return 0, nil, fmt.Errorf("query summary phase %s: %w", m[1], err)
		}
		phases[m[1]] += d
	}
	return total, phases, nil
}
