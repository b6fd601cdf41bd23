package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"github.com/privconsensus/privconsensus/internal/protocol"
	"github.com/privconsensus/privconsensus/internal/transport"
)

// paperUsers is the paper-batch population: 10 users per query.
const paperUsers = 10

// paperSteps are the Alg. 5 steps the S1 meter times, with the metric
// each reports under. Steps (6)-(9) run only on consensus queries and are
// averaged over those.
var paperSteps = []struct {
	step, metric  string
	consensusOnly bool
}{
	{protocol.StepBlindPerm1, "protocol.blind_permute_1_ms", false},
	{protocol.StepCompare1, "protocol.compare_1_ms", false},
	{protocol.StepThreshold, "protocol.threshold_ms", false},
	{protocol.StepBlindPerm2, "protocol.blind_permute_2_ms", true},
	{protocol.StepCompare2, "protocol.compare_2_ms", true},
	{protocol.StepRestoration, "protocol.restore_ms", true},
}

// comparisonSteps are the steps made of DGK comparisons.
var comparisonSteps = []string{protocol.StepCompare1, protocol.StepThreshold, protocol.StepCompare2}

// waitConn wraps one server's end of the peer link: it counts the frames
// and bytes the server sends and times how long the server is blocked in
// Recv, recording each blocking Recv as a span when traced.
type waitConn struct {
	inner  transport.Conn
	frames atomic.Int64
	bytes  atomic.Int64
	wait   atomic.Int64 // nanoseconds blocked in Recv
	tr     *tracer
	query  int64
	parent int64
	lane   string
}

func (c *waitConn) Send(ctx context.Context, msg *transport.Message) error {
	c.frames.Add(1)
	c.bytes.Add(int64(transport.EncodedSize(msg)))
	return c.inner.Send(ctx, msg)
}

func (c *waitConn) Recv(ctx context.Context) (*transport.Message, error) {
	t0 := time.Now()
	msg, err := c.inner.Recv(ctx)
	t1 := time.Now()
	c.wait.Add(int64(t1.Sub(t0)))
	c.tr.add(c.parent, c.query, "transport", "recv", c.lane, t0, t1)
	return msg, err
}

func (c *waitConn) Close() error { return c.inner.Close() }

func runPaperBatch(e *env) (*report, error) {
	// protocol.DefaultConfig is what cmd/keygen writes by default: C=10,
	// T=0.6, σ₁=4, σ₂=2, κ=40, 64-bit Paillier, 192-bit DGK with L=56.
	// Every workload sets only the user population.
	cfg := protocol.DefaultConfig(paperUsers)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rep := newReport()
	var keys *protocol.Keys
	err := timeSetups(rep, func(round int, _ bool) (map[string]time.Duration, error) {
		t0 := time.Now()
		k, err := protocol.GenerateKeys(e.keyRNG(round), cfg)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		k.ForS1().Precompute()
		k.ForS2().Precompute()
		keys = k
		return map[string]time.Duration{"setup.keygen_s": t1.Sub(t0), "setup.servers_ready_s": time.Since(t1)}, nil
	})
	if err != nil {
		return nil, err
	}

	pb := &paperBatch{e: e, cfg: cfg, keys: keys, ballots: e.seedRNG(2), crypto: e.seedRNG(3)}
	out, err := splitTraced(e, pb.measure)
	if err != nil {
		return nil, err
	}
	for k, v := range rep.values {
		out.set(k, v)
	}
	return out, finishTrace(e, out, cfg, keys)
}

// paperBatch holds the state one paper-batch run carries across queries.
type paperBatch struct {
	e       *env
	cfg     protocol.Config
	keys    *protocol.Keys
	ballots *rand.Rand
	crypto  *rand.Rand
	nextQ   int64
}

// measure runs queries back to back for d and reports what they cost.
func (pb *paperBatch) measure(d time.Duration, tr *tracer) (*report, error) {
	rep := newReport()
	var (
		lat, buildMs, s1Wait, s2Wait, residual []float64
		stepSum                                = map[string]time.Duration{}
		compareSum                             time.Duration
		consensus, frames, bytes               int64
		serverCPU, clientCPU                   time.Duration
	)
	counters := snapshotCounters()
	start := time.Now()
	for time.Since(start) < d {
		pb.nextQ++
		q := pb.nextQ
		root := tr.id()
		qStart := time.Now()
		cpu0 := selfCPU()

		b := newBallot(pb.ballots, paperUsers, pb.cfg.Classes, agreement)
		s1Subs := make([]protocol.SubmissionHalf, paperUsers)
		s2Subs := make([]protocol.SubmissionHalf, paperUsers)
		discl := make([]*protocol.Disclosure, paperUsers)
		for u := 0; u < paperUsers; u++ {
			t0 := time.Now()
			sub, dis, err := protocol.BuildSubmission(pb.crypto, rand.New(rand.NewSource(pb.crypto.Int63())),
				pb.cfg, u, b.units(u, pb.cfg.Classes), pb.keys.S1Paillier.Public(), pb.keys.S2Paillier.Public())
			t1 := time.Now()
			if err != nil {
				return nil, fmt.Errorf("query %d user %d: build: %w", q, u, err)
			}
			tr.add(root, q, "protocol", "build-submission", "users", t0, t1)
			buildMs = append(buildMs, durMs(t1.Sub(t0)))
			s1Subs[u], s2Subs[u], discl[u] = sub.ToS1, sub.ToS2, dis
		}
		cpu1 := selfCPU()

		// The query clock runs from submissions held to both labels.
		held := time.Now()
		meter := transport.NewMeter()
		a, bconn := transport.Pair()
		c1 := &waitConn{inner: a, tr: tr, query: q, lane: "s1", parent: tr.id()}
		c2 := &waitConn{inner: bconn, tr: tr, query: q, lane: "s2", parent: tr.id()}
		type result struct {
			out      *protocol.Outcome
			err      error
			from, to time.Time
		}
		ch := make(chan result, 1)
		seed1, seed2 := pb.crypto.Int63(), pb.crypto.Int63()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		go func() {
			t0 := time.Now()
			out, err := protocol.RunS1(ctx, rand.New(rand.NewSource(seed1)), pb.cfg, pb.keys.ForS1(), c1, s1Subs, meter)
			ch <- result{out, err, t0, time.Now()}
		}()
		t0 := time.Now()
		out2, err2 := protocol.RunS2(ctx, rand.New(rand.NewSource(seed2)), pb.cfg, pb.keys.ForS2(), c2, s2Subs, nil)
		t2 := time.Now()
		r1 := <-ch
		cancel()
		c1.Close()
		c2.Close()
		done := time.Now()
		serverCPU += selfCPU() - cpu1
		clientCPU += cpu1 - cpu0
		tr.record(c1.parent, root, q, "protocol", "RunS1", "s1", r1.from, r1.to)
		tr.record(c2.parent, root, q, "protocol", "RunS2", "s2", t0, t2)
		tr.record(root, 0, q, "bench", "query", "bench", qStart, done)

		rep.attempted++
		if r1.err != nil || err2 != nil {
			rep.failed++
			fmt.Printf("query %d failed: s1: %v; s2: %v\n", q, r1.err, err2)
			continue
		}
		if !pb.checkOutcome(rep, q, discl, r1.out, out2) {
			rep.failed++
			continue
		}
		wall := done.Sub(held)
		lat = append(lat, durMs(wall))
		s1Wait = append(s1Wait, durMs(time.Duration(c1.wait.Load())))
		s2Wait = append(s2Wait, durMs(time.Duration(c2.wait.Load())))
		frames += c1.frames.Load() + c2.frames.Load()
		bytes += c1.bytes.Load() + c2.bytes.Load()
		var steps time.Duration
		for _, st := range meter.Snapshot() {
			steps += st.Elapsed
			stepSum[st.Step] += st.Elapsed
		}
		for _, s := range comparisonSteps {
			if st, ok := meter.Step(s); ok {
				compareSum += st.Elapsed
			}
		}
		residual = append(residual, durMs(wall-steps))
		if r1.out.Consensus {
			consensus++
		}
	}
	elapsed := time.Since(start)
	ok := float64(len(lat))
	if ok == 0 {
		return nil, fmt.Errorf("no query completed in %v", d)
	}
	counters = counters.since()

	latencyCheck(rep, "query", lat)
	rep.set("query_ms_p50", median(lat))
	rep.set("query_ms_p95", percentile(lat, 95))
	rep.set("queries_per_s", ok/elapsed.Seconds())
	rep.set("users_per_s", ok*paperUsers/elapsed.Seconds())
	rep.set("peer_bytes_per_query", float64(bytes)/ok)
	rep.set("peak_rss_mb", selfPeakRSSMB())
	rep.check("%d of %d queries matched protocol.PlainOutcome at both servers (%d reached consensus)",
		len(lat), rep.attempted, consensus)

	rep.set("protocol.build_ms_per_user", median(buildMs))
	for _, s := range paperSteps {
		n := ok
		if s.consensusOnly {
			n = float64(consensus)
		}
		rep.setMs(s.metric, time.Duration(ratio(float64(stepSum[s.step]), n)))
	}
	rep.setMs("protocol.secure_sum_ms", time.Duration(float64(stepSum[protocol.StepSecureSum1]+stepSum[protocol.StepSecureSum2])/ok))
	rep.set("protocol.step_residual_ms", mean(residual))
	rep.set("protocol.s1_wait_ms", mean(s1Wait))
	rep.set("protocol.s2_wait_ms", mean(s2Wait))
	rep.set("protocol.peer_msgs_per_query", float64(frames)/ok)
	rep.set("transport.wire_msgs_per_query", float64(frames)/ok)
	rep.set("transport.wire_bytes_per_query", float64(bytes+4*frames)/ok)
	rep.setMs("protocol.compare_steps_ms", time.Duration(float64(compareSum)/ok))
	rep.setMs("deploy.server_cpu_ms_per_query", time.Duration(float64(serverCPU)/ok))
	rep.setMs("bench.client_cpu_ms_per_query", time.Duration(float64(clientCPU)/ok))
	rep.set("deploy.queries_failed", float64(rep.failed))
	counters.report(rep, ok)
	return rep, nil
}

// checkOutcome compares both servers' outcomes with the plaintext
// reference over the same submissions.
func (pb *paperBatch) checkOutcome(rep *report, q int64, discl []*protocol.Disclosure, o1, o2 *protocol.Outcome) bool {
	votes, z1, z2, err := protocol.AggregateDisclosures(discl)
	if err != nil {
		rep.fail("query %d: aggregate disclosures: %v", q, err)
		return false
	}
	wantC, wantL, err := protocol.PlainOutcome(votes, z1, z2, pb.cfg.ThresholdUnits())
	if err != nil {
		rep.fail("query %d: plain outcome: %v", q, err)
		return false
	}
	if *o1 != *o2 {
		rep.fail("query %d: S1 %+v and S2 %+v disagree", q, *o1, *o2)
		return false
	}
	if o1.Consensus != wantC || (wantC && o1.Label != wantL) {
		rep.fail("query %d: got consensus=%v label=%d, plaintext reference consensus=%v label=%d",
			q, o1.Consensus, o1.Label, wantC, wantL)
		return false
	}
	return true
}
