package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/privconsensus/privconsensus/internal/protocol"
)

// workload is one traffic mix the benchmark can run.
type workload struct {
	Name string
	Why  string
	// Unit names what attempted and failed count on this workload.
	Unit string
	run  func(e *env) (*report, error)
}

var workloads = []workload{
	{
		Name: "paper-batch",
		Why:  "Closed-loop Alg. 5 queries in one process over an in-memory pair: pure crypto, so comparison and kernel changes show and transport or deploy changes do not.",
		Unit: "queries",
		run:  runPaperBatch,
	},
	{
		Name: "serve-poisson",
		Why:  "Open-loop Poisson queries at 2/s, then a closed loop, against two cmd/server -serve processes over TCP: admission, ledger fsync, peer link and client encryption.",
		Unit: "queries",
		run:  runServePoisson,
	},
	{
		Name: "relay-fanin",
		Why:  "2,000 users per query upload through two leaf relays into two cmd/server processes: thousands of small frames, validation, relay pre-sums, acks and the collector.",
		Unit: "users",
		run:  runRelayFanin,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return strings.Join(names, ", ")
}

// setupRepeats is how many times a run sets its system up; setup_s is the
// median, and the last set-up serves the measured queries. Set-up takes
// milliseconds, so several repeats cost little and steady the median.
const setupRepeats = 11

// seedRNG returns a deterministic stream for one purpose of the run.
func (e *env) seedRNG(purpose int64) *rand.Rand {
	return rand.New(rand.NewSource(e.opts.seed*1_000_003 + purpose))
}

// keyRNG returns the key-generation stream of set-up round; the purposes
// from 100 up are kept for it.
func (e *env) keyRNG(round int) *rand.Rand { return e.seedRNG(int64(100 + round)) }

// timeSetups runs setup setupRepeats times and records setup_s and the
// per-phase medians it returns. Each set-up generates its keys from its own
// stream, keyRNG(round): the time to find primes depends on where the
// search starts, so one stream per run would make setup_s a draw of the
// seed rather than a median over key searches.
func timeSetups(rep *report, setup func(round int, last bool) (map[string]time.Duration, error)) error {
	totals := make([]float64, 0, setupRepeats)
	phases := map[string][]float64{}
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		parts, err := setup(i, i == setupRepeats-1)
		if err != nil {
			return fmt.Errorf("set-up %d: %w", i+1, err)
		}
		totals = append(totals, time.Since(t0).Seconds())
		for name, d := range parts {
			phases[name] = append(phases[name], d.Seconds())
		}
	}
	rep.set("setup_s", median(totals))
	for name, xs := range phases {
		rep.set(name, median(xs))
	}
	return nil
}

// latencyCheck records the latency sample count and how many samples lie
// beyond p95; a p95 needs at least ten beyond it to be meaningful.
func latencyCheck(rep *report, what string, samples []float64) {
	p95 := percentile(samples, 95)
	beyond := 0
	for _, x := range samples {
		if x > p95 {
			beyond++
		}
	}
	rep.check("%d %s latency samples, %d beyond p95", len(samples), what, beyond)
}

// splitTraced runs measure for the whole run when untraced. A traced run
// measures half the time untraced and half traced, reports the traced
// half, and records how much slower the traced half's median query was.
func splitTraced(e *env, measure func(d time.Duration, tr *tracer) (*report, error)) (*report, error) {
	total := time.Duration(e.opts.seconds) * time.Second
	if e.tracer == nil {
		return measure(total, nil)
	}
	plain, err := measure(total/2, nil)
	if err != nil {
		return nil, err
	}
	traced, err := measure(total/2, e.tracer)
	if err != nil {
		return nil, err
	}
	traced.set("bench.trace_overhead_pct", 100*(traced.values["query_ms_p50"]/plain.values["query_ms_p50"]-1))
	traced.attempted += plain.attempted
	traced.failed += plain.failed
	traced.wrong += plain.wrong
	traced.checks = append(plain.checks, traced.checks...)
	return traced, nil
}

// finishTrace runs the micro-calls, writes the Chrome trace and reports
// each layer's self time.
func finishTrace(e *env, rep *report, cfg protocol.Config, keys *protocol.Keys) error {
	if e.tracer == nil {
		return nil
	}
	if err := runMicro(e, rep, cfg, keys); err != nil {
		return fmt.Errorf("micro-calls: %w", err)
	}
	self := e.tracer.selfTimes()
	dir := filepath.Join(e.opts.root, ".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", e.opts.workload, e.opts.seed))
	n, err := e.tracer.writeChrome(path, self)
	if err != nil {
		return err
	}
	fmt.Printf("trace %s (%d spans)\n", path, n)
	for layer, d := range self {
		fmt.Printf("self-time %-10s %10.3f ms\n", layer, durMs(d))
	}
	return nil
}
