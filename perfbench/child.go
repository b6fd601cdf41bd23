package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// child is one cmd/server process started by the benchmark. Its standard
// error is scanned for the bound addresses and for the per-query summary
// lines the server logs when a query completes.
type child struct {
	role     string
	cmd      *exec.Cmd
	listen   string
	admin    string
	maxProcs int

	mu       sync.Mutex
	summary  []string // "query=..." log lines, in arrival order
	tail     []string // last stderr lines, for error reports
	notify   chan struct{}
	done     chan struct{}
	waitErr  error
	readyCPU time.Duration // CPU time used by start-up
}

var childStartTimeout = 60 * time.Second

// startServer launches bin with args and waits until it listens, serves
// its admin endpoint and answers /healthz with 200.
func (e *env) startServer(bin, role string, args ...string) (*child, error) {
	c := &child{role: role, notify: make(chan struct{}, 1), done: make(chan struct{})}
	c.cmd = exec.Command(bin, args...)
	c.cmd.Dir = e.dir
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	c.cmd.Stdout = io.Discard
	stderr, err := c.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", role, err)
	}
	e.procs = append(e.procs, c)

	addrs := make(chan [2]string, 1)
	go func() {
		c.scanStderr(stderr, addrs)
		err := c.cmd.Wait()
		c.mu.Lock()
		c.waitErr = err
		c.mu.Unlock()
		close(c.done)
	}()

	deadline := time.After(childStartTimeout)
	select {
	case a := <-addrs:
		c.listen, c.admin = a[0], a[1]
	case <-c.done:
		return nil, fmt.Errorf("%s exited during start-up: %v: %s", role, c.err(), c.lastLines())
	case <-deadline:
		return nil, fmt.Errorf("%s did not report its addresses within %v: %s", role, childStartTimeout, c.lastLines())
	}
	for {
		if code, _, err := httpGet("http://" + c.admin + "/healthz"); err == nil && code == http.StatusOK {
			break
		}
		select {
		case <-c.done:
			return nil, fmt.Errorf("%s exited during start-up: %v: %s", role, c.err(), c.lastLines())
		case <-deadline:
			return nil, fmt.Errorf("%s not healthy within %v", role, childStartTimeout)
		case <-time.After(5 * time.Millisecond):
		}
	}
	c.maxProcs = childMaxProcs(c.cmd.Process.Pid)
	c.readyCPU = c.cpu()
	return c, nil
}

// scanStderr reads the child's log: it reports the listen and admin
// addresses once both are known, then collects query summary lines.
func (c *child) scanStderr(r io.Reader, addrs chan<- [2]string) {
	var listen, admin string
	announced := false
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, " listening on "); i >= 0 && listen == "" {
			listen = strings.TrimSpace(line[i+len(" listening on "):])
		}
		if i := strings.Index(line, "metrics endpoint on http://"); i >= 0 && admin == "" {
			admin = strings.TrimSuffix(strings.TrimSpace(line[i+len("metrics endpoint on http://"):]), "/metrics")
		}
		if !announced && listen != "" && admin != "" {
			addrs <- [2]string{listen, admin}
			announced = true
		}
		c.mu.Lock()
		if strings.Contains(line, "query=") {
			c.summary = append(c.summary, line)
			select {
			case c.notify <- struct{}{}:
			default:
			}
		}
		c.tail = append(c.tail, line)
		if len(c.tail) > 20 {
			c.tail = c.tail[len(c.tail)-20:]
		}
		c.mu.Unlock()
	}
}

func (c *child) err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.waitErr
}

func (c *child) lastLines() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return strings.Join(c.tail, "\n")
}

// summaries returns the query summary lines logged so far.
func (c *child) summaries() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.summary...)
}

// waitSummaries blocks until the child has logged n query summaries.
func (c *child) waitSummaries(ctx context.Context, n int) ([]string, error) {
	for {
		if s := c.summaries(); len(s) >= n {
			return s, nil
		}
		select {
		case <-c.notify:
		case <-c.done:
			if s := c.summaries(); len(s) >= n {
				return s, nil
			}
			return nil, fmt.Errorf("%s exited after %d of %d queries: %v: %s", c.role, len(c.summaries()), n, c.err(), c.lastLines())
		case <-ctx.Done():
			return nil, fmt.Errorf("%s: waiting for query %d: %w", c.role, n, ctx.Err())
		}
	}
}

// cpu returns the child's user+system CPU time: from /proc while it runs,
// from its resource usage once it has been waited for.
func (c *child) cpu() time.Duration {
	select {
	case <-c.done:
		if st := c.cmd.ProcessState; st != nil {
			return st.UserTime() + st.SystemTime()
		}
		return 0
	default:
	}
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks of 1/100 s.
	s := string(b)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0
	}
	ut, _ := strconv.ParseInt(fields[11], 10, 64)
	st, _ := strconv.ParseInt(fields[12], 10, 64)
	return time.Duration(ut+st) * 10 * time.Millisecond
}

// peakRSSMB returns the child's peak resident set in MB, from its resource
// usage once it has exited.
func (c *child) peakRSSMB() float64 {
	select {
	case <-c.done:
	default:
		return statusKB(c.cmd.Process.Pid, "VmHWM:") / 1024
	}
	if st := c.cmd.ProcessState; st != nil {
		if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
			return float64(ru.Maxrss) / 1024
		}
	}
	return 0
}

// stop asks the child to finish (SIGTERM: a serve-mode S1 drains, a batch
// server cancels) and waits for it, killing it after grace.
func (c *child) stop(grace time.Duration) error {
	select {
	case <-c.done:
		return c.err()
	default:
	}
	c.cmd.Process.Signal(syscall.SIGTERM)
	return c.wait(grace)
}

// wait waits up to grace for the child to exit on its own, then kills it.
func (c *child) wait(grace time.Duration) error {
	select {
	case <-c.done:
		return c.err()
	case <-time.After(grace):
		c.cmd.Process.Kill()
		<-c.done
		return fmt.Errorf("%s did not stop within %v", c.role, grace)
	}
}

// childMaxProcs is the GOMAXPROCS a Go child starts with: the GOMAXPROCS
// variable it inherits when set, otherwise the number of CPUs its affinity
// mask allows.
func childMaxProcs(pid int) int {
	if v, err := strconv.Atoi(os.Getenv("GOMAXPROCS")); err == nil && v > 0 {
		return v
	}
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if list, ok := strings.CutPrefix(line, "Cpus_allowed_list:"); ok {
			return countCPUList(strings.TrimSpace(list))
		}
	}
	return 0
}

// countCPUList counts the CPUs in a list such as "0-3,6".
func countCPUList(list string) int {
	n := 0
	for _, part := range strings.Split(list, ",") {
		lo, hi, isRange := strings.Cut(part, "-")
		a, err := strconv.Atoi(lo)
		if err != nil {
			continue
		}
		b := a
		if isRange {
			if b, err = strconv.Atoi(hi); err != nil {
				continue
			}
		}
		n += b - a + 1
	}
	return n
}

// statusKB reads one kB-valued field of /proc/<pid>/status.
func statusKB(pid int, field string) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				v, _ := strconv.ParseFloat(f[0], 64)
				return v
			}
		}
	}
	return 0
}

var httpClient = &http.Client{Timeout: 5 * time.Second}

func httpGet(url string) (int, string, error) {
	resp, err := httpClient.Get(url)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b), err
}

// promSample is one scrape of a child's /metrics: series name with labels
// mapped to value.
type promSample map[string]float64

// scrape reads the child's Prometheus endpoint.
func (c *child) scrape() (promSample, error) {
	code, body, err := httpGet("http://" + c.admin + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", c.role, err)
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: status %d", c.role, code)
	}
	out := promSample{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, nil
}

// sum adds every series of metric name whose labels contain all of the
// given label fragments (such as `dir="sent"`).
func (p promSample) sum(name string, fragments ...string) float64 {
	total := 0.0
	for series, v := range p {
		base, labels, _ := strings.Cut(series, "{")
		if base != name {
			continue
		}
		ok := true
		for _, f := range fragments {
			if !strings.Contains(labels, f) {
				ok = false
				break
			}
		}
		if ok {
			total += v
		}
	}
	return total
}

// delta returns after − before for every series in after.
func (p promSample) delta(before promSample) promSample {
	out := promSample{}
	for k, v := range p {
		out[k] = v - before[k]
	}
	return out
}
