// Command perfbench is the repository benchmark. It drives one of three
// workloads through the layers' exported functions, checks every output,
// and prints every metric by name with its unit. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// An untraced run (-trace 0) reports the end-to-end metrics; a traced run
// (-trace 1) reports the per-layer metrics and writes a Chrome trace-event
// file under .bench_build. Run it from the root of a checkout:
//
//	bash perfbench/run.sh --workload paper-batch --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --spec    # rewrite BENCHMARK.json and perfbench/catalog.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// options are the parsed command-line flags.
type options struct {
	root     string
	workload string
	seed     int64
	seconds  int
	trace    bool
	spec     bool
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.root, "root", "..", "root of the checkout (holds go.mod and cmd/server)")
	fs.StringVar(&o.workload, "workload", "", "workload: "+workloadNames())
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.IntVar(&o.seconds, "seconds", 30, "measured seconds per run")
	fs.IntVar(&trace, "trace", 0, "1 records spans and reports per-layer metrics; 0 reports end-to-end metrics")
	fs.BoolVar(&o.spec, "spec", false, "write BENCHMARK.json and perfbench/catalog.json from the metric catalog and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	root, err := filepath.Abs(o.root)
	if err != nil {
		return err
	}
	o.root = root
	if o.spec {
		return writeSpec(o.root)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	o.trace = trace == 1
	w, ok := workloadByName(o.workload)
	if !ok {
		return fmt.Errorf("unknown -workload %q (want %s)", o.workload, workloadNames())
	}
	if o.seconds < 1 {
		return fmt.Errorf("-seconds must be positive, got %d", o.seconds)
	}
	if _, err := os.Stat(filepath.Join(o.root, "go.mod")); err != nil {
		return fmt.Errorf("checkout root %s: %w", o.root, err)
	}

	env, err := newEnv(o)
	if err != nil {
		return err
	}
	defer env.cleanup()

	stamp := newStamp(o)
	rep, err := w.run(env)
	if err != nil {
		return fmt.Errorf("%s: %w", w.Name, err)
	}
	stamp.finish(env, rep)
	return emit(o, w, stamp, rep)
}

// emit prints the run stamp, every measured metric in human-readable form,
// and the final result line restricted to the metric set the mode reports.
func emit(o options, w workload, stamp *runStamp, rep *report) error {
	stampJSON, err := json.Marshal(stamp)
	if err != nil {
		return err
	}
	fmt.Printf("stamp %s\n", stampJSON)
	for _, c := range rep.checks {
		fmt.Printf("check %s\n", c)
	}
	names := make([]string, 0, len(rep.values))
	for name := range rep.values {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		spec, ok := catalogByName[name]
		unit := "?"
		if ok {
			unit = spec.Unit
		}
		fmt.Printf("metric %-36s %14.6g %s\n", name, rep.values[name], unit)
	}
	attempted, failed := rep.attempted, rep.failed
	share := 0.0
	if attempted > 0 {
		share = float64(failed) / float64(attempted)
	}
	fmt.Printf("metric %-36s %14.6g ratio (%d of %d %s)\n", "failed_share", share, failed, attempted, w.Unit)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: rep.correct(), Attempted: attempted, Failed: failed, Metrics: map[string]value{}}
	var missing []string
	for _, spec := range reported(o.trace) {
		v, ok := rep.values[spec.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, spec.Name)
			continue
		}
		out.Metrics[spec.Name] = value{Value: v, Unit: spec.Unit}
	}
	if len(missing) > 0 {
		return fmt.Errorf("%s did not measure %v", w.Name, missing)
	}
	if attempted < 1 {
		return errors.New("no operation was attempted")
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// report is what one workload run measured.
type report struct {
	values    map[string]float64
	attempted int64
	failed    int64
	// wrong counts outputs that failed their check; they are also
	// counted in failed.
	wrong  int64
	checks []string
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.values[name] = v }

// setMs records a duration in milliseconds.
func (r *report) setMs(name string, d time.Duration) { r.values[name] = durMs(d) }

// check records the outcome of one output check in the printed log.
func (r *report) check(format string, args ...any) {
	r.checks = append(r.checks, fmt.Sprintf(format, args...))
}

// fail records an output that did not pass its check.
func (r *report) fail(format string, args ...any) {
	r.wrong++
	if r.wrong <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: wrong output: "+format+"\n", args...)
	}
}

// correct reports whether every output check passed.
func (r *report) correct() bool { return r.wrong == 0 }

func durMs(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
