package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"sync"
	"time"

	"github.com/privconsensus/privconsensus/internal/deploy"
	"github.com/privconsensus/privconsensus/internal/keystore"
	"github.com/privconsensus/privconsensus/internal/protocol"
)

const (
	// serveUsers is the user population of every serve-mode query.
	serveUsers = 10
	// serveRate is the open-loop arrival rate in queries per second. Two
	// workers complete about 12-13 queries/s back to back on a 2-CPU
	// machine, and one query alone takes about 85 ms. At 7/s concurrent
	// queries overlapped so often that a 15% swing in host CPU speed moved
	// the median latency by up to 28% between runs. At 4/s about a third of
	// the queries still overlapped another, and on a slower host that share
	// neared a half, where the median jumps between the lone and the
	// overlapped latency: its spread between runs reached 0.29. At 2/s most
	// queries run alone, so the median is a lone query's latency. The rate
	// is part of the workload and is never recalibrated per run.
	serveRate = 2.0
	// serveWarmup is how many queries each worker runs back to back before
	// a phase is timed, so dials and the servers' first queries stay out
	// of the sample. They are checked like every other query.
	serveWarmup = 2
	// serveWorkers is the number of ServeClient workers in both phases.
	serveWorkers = 2
	// serveOpenShare is the share of the run the open-loop phase is sized
	// for; the closed-loop phase takes the rest, about 12 s of a 40 s run,
	// so its throughput averages over short swings in host speed.
	serveOpenShare = 0.7
	// serveAgreement is the chance that a user votes for the query's
	// majority class. A lone consensus query takes about 20 ms longer than
	// a threshold-fail one. At the other workloads' 0.7 about half the
	// queries reach consensus, so the open-loop median fell in the gap
	// between the two latencies and jumped with each run's mix. At 0.9
	// about three in four do, and the median is a consensus query's.
	serveAgreement = 0.9
	// serveQuota is each tenant's finite ε quota, far above what a run
	// can spend.
	serveQuota = 1e6
)

// servePair is one running serve-mode deployment: two cmd/server -serve
// children and the public key file its clients use.
type servePair struct {
	s1, s2 *child
	pub    *keystore.PublicFile
}

func runServePoisson(e *env) (*report, error) {
	cfg := protocol.DefaultConfig(serveUsers)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	bin, err := e.serverBinary()
	if err != nil {
		return nil, err
	}
	rep := newReport()
	var pair *servePair
	var keys *protocol.Keys
	err = timeSetups(rep, func(round int, last bool) (map[string]time.Duration, error) {
		t0 := time.Now()
		k, pub, files, err := writeKeys(e, fmt.Sprintf("setup%d", round), cfg, e.keyRNG(round))
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		dir := e.path(fmt.Sprintf("setup%d", round))
		quota := fmt.Sprintf("1=%g,2=%g", serveQuota, serveQuota)
		s1, err := e.startServer(bin, "s1", "-role", "s1", "-serve", "-keys", files[0],
			"-listen", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0",
			"-ledger", dir+"/ledger.json", "-tenant-quota", quota, "-journal", dir+"/s1.journal")
		if err != nil {
			return nil, err
		}
		s2, err := e.startServer(bin, "s2", "-role", "s2", "-serve", "-keys", files[1],
			"-listen", "127.0.0.1:0", "-peer", s1.listen, "-metrics-addr", "127.0.0.1:0",
			"-journal", dir+"/s2.journal")
		if err != nil {
			return nil, err
		}
		ready := time.Since(t1)
		if !last {
			if err := stopPair(s1, s2); err != nil {
				return nil, err
			}
		} else {
			pair, keys = &servePair{s1: s1, s2: s2, pub: pub}, k
		}
		return map[string]time.Duration{"setup.keygen_s": t1.Sub(t0), "setup.servers_ready_s": ready}, nil
	})
	if err != nil {
		return nil, err
	}
	sp := &serveRun{e: e, cfg: cfg, pair: pair}
	out, err := splitTraced(e, sp.measure)
	if stopErr := stopPair(pair.s1, pair.s2); err == nil && stopErr != nil {
		err = fmt.Errorf("drain: %w", stopErr)
	}
	if err != nil {
		return nil, err
	}
	for k, v := range rep.values {
		out.set(k, v)
	}
	out.set("peak_rss_mb", math.Max(selfPeakRSSMB(), math.Max(pair.s1.peakRSSMB(), pair.s2.peakRSSMB())))
	return out, finishTrace(e, out, cfg, keys)
}

// writeKeys generates the deployment's keys from rng and writes the three
// key files cmd/keygen would write into a fresh directory.
func writeKeys(e *env, name string, cfg protocol.Config, rng *rand.Rand) (*protocol.Keys, *keystore.PublicFile, [2]string, error) {
	var files [2]string
	dir := e.path(name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, files, err
	}
	keys, err := protocol.GenerateKeys(rng, cfg)
	if err != nil {
		return nil, nil, files, err
	}
	s1, s2, pub, err := keystore.Split(cfg, keys)
	if err != nil {
		return nil, nil, files, err
	}
	files = [2]string{dir + "/s1.json", dir + "/s2.json"}
	for _, f := range []struct {
		path string
		v    any
	}{{files[0], s1}, {files[1], s2}, {dir + "/public.json", pub}} {
		if err := keystore.Save(f.path, f.v, 0o600); err != nil {
			return nil, nil, files, err
		}
	}
	return keys, pub, files, nil
}

// stopPair drains the pair the way an operator does: SIGTERM to S1, which
// stops admitting, finishes in-flight queries and tells S2, which then
// exits on its own. It waits for both.
func stopPair(s1, s2 *child) error {
	err1 := s1.stop(30 * time.Second)
	err2 := s2.wait(30 * time.Second)
	return errors.Join(err1, err2)
}

// serveRun is one serve-poisson run's state across its phases.
type serveRun struct {
	e     *env
	cfg   protocol.Config
	pair  *servePair
	nextQ int64
	round int
}

// serveJob is one query handed to a worker.
type serveJob struct {
	q      int64
	due    time.Time
	ballot ballot
}

// serveDone is what a worker observed for one query.
type serveDone struct {
	job          serveJob
	picked, done time.Time
	doTime       time.Duration
	res          *deploy.ServeResult
	err          error
}

// measure runs the open-loop phase then the closed-loop phase in d.
func (sr *serveRun) measure(d time.Duration, tr *tracer) (*report, error) {
	sr.round++
	rep := newReport()
	ballots := sr.e.seedRNG(int64(20 + sr.round))
	arrivals := sr.e.seedRNG(int64(40 + sr.round))

	clients := make([]*deploy.ServeClient, serveWorkers)
	for w := range clients {
		c, err := deploy.NewServeClient([]*keystore.PublicFile{sr.pair.pub}, deploy.ServeClientOptions{
			Tenant: int64(w + 1), S1Addr: sr.pair.s1.listen, S2Addr: sr.pair.s2.listen,
			Seed: sr.e.opts.seed*1000 + int64(sr.round*10+w+1), MaxRetries: 2,
		})
		if err != nil {
			return nil, err
		}
		clients[w] = c
	}
	warmLeft := serveWarmup * serveWorkers
	var warmMu sync.Mutex
	warm := sr.work(clients, nil, func(int) (serveJob, bool) {
		warmMu.Lock()
		defer warmMu.Unlock()
		if warmLeft == 0 {
			return serveJob{}, false
		}
		warmLeft--
		sr.nextQ++
		return serveJob{q: sr.nextQ, due: time.Now(), ballot: newBallot(ballots, serveUsers, sr.cfg.Classes, serveAgreement)}, true
	})

	before, err := scrapePair(sr.pair.s1, sr.pair.s2)
	if err != nil {
		return nil, err
	}
	cpu0 := [3]time.Duration{selfCPU(), sr.pair.s1.cpu(), sr.pair.s2.cpu()}
	summaries0 := len(sr.pair.s1.summaries())

	// Open loop: Poisson arrivals at serveRate, timed from their due time.
	// The schedule is fixed before the phase starts: a Poisson process
	// conditioned on its count, serveRate × the phase's length, so every run
	// has the same number of latency samples (56 in a 40 s run) and the
	// same time left for the closed loop. Given the count, Poisson arrival
	// times are independent and uniform over the phase.
	openFor := time.Duration(float64(d) * serveOpenShare)
	offsets := make([]float64, int(math.Round(serveRate*openFor.Seconds())))
	for i := range offsets {
		offsets[i] = arrivals.Float64() * float64(openFor)
	}
	sort.Float64s(offsets)
	sched := make([]serveJob, len(offsets))
	start := time.Now().Add(20 * time.Millisecond)
	for i, off := range offsets {
		sr.nextQ++
		sched[i] = serveJob{q: sr.nextQ, due: start.Add(time.Duration(off)),
			ballot: newBallot(ballots, serveUsers, sr.cfg.Classes, serveAgreement)}
	}
	// The queue holds every scheduled job, so the generator never blocks
	// on busy workers and its lateness measures only its own scheduling.
	queue := make(chan serveJob, len(sched))
	var late []float64
	go func() {
		for _, j := range sched {
			time.Sleep(time.Until(j.due))
			late = append(late, durMs(time.Since(j.due)))
			queue <- j
		}
		close(queue)
	}()
	open := sr.work(clients, tr, func(int) (serveJob, bool) {
		j, ok := <-queue
		return j, ok
	})
	openEnd := time.Now()

	// Closed loop: both workers back to back for the rest of the run.
	closedFor := d - openEnd.Sub(start)
	if closedFor < time.Second {
		closedFor = time.Second
	}
	var mu sync.Mutex
	closedStart := time.Now()
	closed := sr.work(clients, tr, func(int) (serveJob, bool) {
		mu.Lock()
		defer mu.Unlock()
		if time.Since(closedStart) >= closedFor {
			return serveJob{}, false
		}
		sr.nextQ++
		return serveJob{q: sr.nextQ, due: time.Now(), ballot: newBallot(ballots, serveUsers, sr.cfg.Classes, serveAgreement)}, true
	})
	closedElapsed := time.Since(closedStart)
	cpu1 := [3]time.Duration{selfCPU(), sr.pair.s1.cpu(), sr.pair.s2.cpu()}
	after, err := scrapePair(sr.pair.s1, sr.pair.s2)
	if err != nil {
		return nil, err
	}

	var lat, waits, admit, post, resid []float64
	var mismatches, ok, openConsensus int
	var expected, variance float64
	all := append(append([]serveDone(nil), open...), closed...)
	for i, r := range append(all, warm...) {
		rep.attempted++
		if r.err == nil && i < len(all) {
			ok++
		}
		if r.err != nil {
			rep.failed++
			if rep.failed <= 5 {
				fmt.Printf("query %d failed: %v\n", r.job.q, r.err)
			}
			continue
		}
		if r.res.Consensus {
			p := mismatchChance(r.job.ballot, sr.cfg.Sigma2)
			expected += p
			variance += p * (1 - p)
			if r.res.Label != r.job.ballot.top {
				mismatches++
			}
		}
		if i >= len(open) {
			continue // closed-loop or warm-up
		}
		if r.res.Consensus {
			openConsensus++
		}
		l := r.done.Sub(r.job.due)
		lat = append(lat, durMs(l))
		waits = append(waits, durMs(r.picked.Sub(r.job.due)))
		admit = append(admit, durMs(r.res.AdmitWait))
		post = append(post, durMs(r.doTime-r.res.AdmitWait))
		resid = append(resid, durMs(l-r.picked.Sub(r.job.due)-r.doTime))
	}
	// Released labels follow Report Noisy Max: a label may differ from the
	// plaintext argmax only with the chance mismatchChance gives. More
	// mismatches than that chance allows (mean + 4 sd + 2) fail the run.
	limit := expected + 4*math.Sqrt(variance) + 2
	if float64(mismatches) > limit {
		for i := 0; i < mismatches; i++ {
			rep.fail("released label differs from the plaintext argmax")
		}
		rep.failed += int64(mismatches)
	}
	rep.check("%d released labels differ from the plaintext argmax; %.1f expected from sigma2=%g, limit %.1f",
		mismatches, expected, sr.cfg.Sigma2, limit)
	if len(lat) == 0 || len(closed) == 0 {
		return nil, fmt.Errorf("no open-loop or closed-loop query completed")
	}
	closedOK := 0
	for _, r := range closed {
		if r.err == nil {
			closedOK++
		}
	}
	delta := after.delta(before)
	queries := float64(ok)
	latencyCheck(rep, "open-loop query", lat)
	rep.check("%d of %d timed open-loop queries reached consensus", openConsensus, len(lat))
	rep.set("query_ms_p50", median(lat))
	rep.set("query_ms_p95", percentile(lat, 95))
	rep.set("queries_per_s", float64(closedOK)/closedElapsed.Seconds())
	rep.set("users_per_s", float64(closedOK*serveUsers)/closedElapsed.Seconds())
	rep.set("peer_bytes_per_query", delta.s1.sum("transport_step_bytes_total")/queries)
	rep.check("%d warm-up, %d open-loop queries (%.1f/s offered), %d closed-loop queries; %d of %d timed queries succeeded",
		len(warm), len(open), serveRate, len(closed), ok, len(all))

	rep.set("bench.queue_ms_p50", median(waits))
	rep.set("bench.queue_ms_p95", percentile(waits, 95))
	rep.set("bench.latency_residual_ms", median(resid))
	rep.set("bench.gen_late_ms_p99", percentile(late, 99))
	rep.set("deploy.admit_ms_p50", median(admit))
	rep.set("deploy.admit_ms_p95", percentile(admit, 95))
	rep.set("deploy.post_admit_ms_p50", median(post))
	rep.setMs("bench.client_cpu_ms_per_query", time.Duration(float64(cpu1[0]-cpu0[0])/queries))
	rep.setMs("deploy.s1_cpu_ms_per_query", time.Duration(float64(cpu1[1]-cpu0[1])/queries))
	rep.setMs("deploy.s2_cpu_ms_per_query", time.Duration(float64(cpu1[2]-cpu0[2])/queries))
	rep.setMs("deploy.server_cpu_ms_per_query", time.Duration(float64(cpu1[1]-cpu0[1]+cpu1[2]-cpu0[2])/queries))
	rep.set("deploy.queries_failed", float64(rep.failed))
	rep.set("protocol.peer_msgs_per_query", delta.s1.sum("transport_step_msgs_total")/queries)
	rep.set("transport.wire_bytes_per_query", (delta.s1.sum("transport_wire_bytes_total", `dir="sent"`)+
		delta.s2.sum("transport_wire_bytes_total", `dir="sent"`))/queries)
	rep.set("transport.wire_msgs_per_query", (delta.s1.sum("transport_wire_msgs_total", `dir="sent"`)+
		delta.s2.sum("transport_wire_msgs_total", `dir="sent"`))/queries)
	if err := reportSteps(rep, sr.pair.s1.summaries()[summaries0:]); err != nil {
		return nil, err
	}
	delta.counters.report(rep, queries)
	return rep, nil
}

// work runs serveWorkers workers, each taking jobs from next until it
// reports none left, and returns every query's observation.
func (sr *serveRun) work(clients []*deploy.ServeClient, tr *tracer, next func(w int) (serveJob, bool)) []serveDone {
	var mu sync.Mutex
	var out []serveDone
	var wg sync.WaitGroup
	for w, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j, ok := next(w)
				if !ok {
					return
				}
				picked := time.Now()
				ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
				res, err := c.Do(ctx, j.ballot.fractions(sr.cfg.Classes))
				cancel()
				done := time.Now()
				r := serveDone{job: j, picked: picked, done: done, doTime: done.Sub(picked), res: res, err: err}
				if tr != nil {
					root := tr.id()
					lane := fmt.Sprintf("worker%d", w)
					tr.add(root, j.q, "bench", "queue", lane, j.due, picked)
					if err == nil {
						tr.add(root, j.q, "deploy", "admission", lane, picked, picked.Add(res.AdmitWait))
						tr.add(root, j.q, "deploy", "upload+protocol+result", lane, picked.Add(res.AdmitWait), done)
					} else {
						tr.add(root, j.q, "deploy", "Do (failed)", lane, picked, done)
					}
					tr.record(root, 0, j.q, "bench", "query", lane, j.due, done)
				}
				mu.Lock()
				out = append(out, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sort.Slice(out, func(i, j int) bool { return out[i].job.q < out[j].job.q })
	return out
}

// mismatchChance bounds the chance that Report Noisy Max releases another
// label than the plaintext argmax: per-class Gaussian noise of deviation
// sigma2 votes makes class j win over the top class with chance
// Φ(−margin_j / (sigma2·√2)); the union bound sums those.
func mismatchChance(b ballot, sigma2 float64) float64 {
	p := 0.0
	for c, n := range b.counts {
		if c == b.top {
			continue
		}
		margin := float64(b.counts[b.top] - n)
		p += 0.5 * math.Erfc(margin/(sigma2*math.Sqrt2)/math.Sqrt2)
	}
	return math.Min(p, 1)
}
