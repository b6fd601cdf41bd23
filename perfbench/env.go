package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// env is one run's working state: its options, scratch directory and
// tracer, plus the processes it started.
type env struct {
	opts   options
	dir    string // per-run scratch directory under .bench_build
	tracer *tracer
	procs  []*child
}

func newEnv(o options) (*env, error) {
	base := filepath.Join(o.root, ".bench_build")
	dir, err := os.MkdirTemp(base, "run-")
	if err != nil {
		if err := os.MkdirAll(base, 0o755); err != nil {
			return nil, err
		}
		if dir, err = os.MkdirTemp(base, "run-"); err != nil {
			return nil, err
		}
	}
	return &env{opts: o, dir: dir, tracer: newTracer(o.trace)}, nil
}

// cleanup stops every child still running, waits for it, and removes the
// run's scratch directory.
func (e *env) cleanup() {
	for _, c := range e.procs {
		c.stop(5 * time.Second)
	}
	os.RemoveAll(e.dir)
}

// path returns a file name inside the run's scratch directory.
func (e *env) path(name string) string { return filepath.Join(e.dir, name) }

// serverBinary builds cmd/server from the checkout into .bench_build/bin
// and returns its path. The Go build cache makes repeat builds cheap.
func (e *env) serverBinary() (string, error) {
	bin := filepath.Join(e.opts.root, ".bench_build", "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return "", err
	}
	out := filepath.Join(bin, "server")
	tmp := fmt.Sprintf("%s.%d", out, os.Getpid())
	cmd := exec.Command("go", "build", "-o", tmp, "./cmd/server")
	cmd.Dir = e.opts.root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("build cmd/server: %w", err)
	}
	if err := os.Rename(tmp, out); err != nil {
		return "", err
	}
	return out, nil
}

// runStamp identifies the machine, toolchain and code a record came from.
type runStamp struct {
	Workload       string         `json:"workload"`
	Seed           int64          `json:"seed"`
	Seconds        int            `json:"seconds"`
	Traced         bool           `json:"traced"`
	NumCPU         int            `json:"num_cpu"`
	GOMAXPROCS     int            `json:"gomaxprocs"`
	ChildMaxProcs  map[string]int `json:"child_gomaxprocs"`
	GoVersion      string         `json:"go_version"`
	GitCommit      string         `json:"git_commit"`
	SourceSHA256   string         `json:"source_sha256"`
	GenLateMsP99   float64        `json:"gen_late_ms_p99"`
	Started        string         `json:"started"`
	ElapsedSeconds float64        `json:"elapsed_s"`
	start          time.Time
}

func newStamp(o options) *runStamp {
	return &runStamp{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Traced: o.trace,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GitCommit: gitCommit(o.root),
		SourceSHA256: sourceDigest(o.root),
		Started:      time.Now().UTC().Format(time.RFC3339), start: time.Now(),
	}
}

func (s *runStamp) finish(e *env, rep *report) {
	s.ElapsedSeconds = time.Since(s.start).Seconds()
	s.GenLateMsP99 = rep.values["bench.gen_late_ms_p99"]
	s.ChildMaxProcs = map[string]int{}
	for _, c := range e.procs {
		if c.maxProcs > 0 {
			s.ChildMaxProcs[c.role] = c.maxProcs
		}
	}
}

// gitCommit returns HEAD's commit when the checkout root is the top of a
// git work tree, and "none" otherwise (source_sha256 then identifies the
// code).
func gitCommit(root string) string {
	cmd := exec.Command("git", "rev-parse", "--show-toplevel", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "none"
	}
	lines := strings.Fields(string(out))
	if len(lines) != 2 || filepath.Clean(lines[0]) != root {
		return "none"
	}
	return lines[1]
}

// sourceDigest hashes every Go source and go.mod file of the checkout
// outside .bench_build, in path order, so two records of the same code
// carry the same digest even where no git metadata exists.
func sourceDigest(root string) string {
	var paths []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (d.Name() == ".bench_build" || d.Name() == ".git") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			paths = append(paths, path)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		io.WriteString(h, rel+"\x00")
		io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// selfCPU returns the benchmark process's user+system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// selfPeakRSSMB returns the benchmark process's peak resident set in MB.
func selfPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}
