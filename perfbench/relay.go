package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/privconsensus/privconsensus/internal/ingest"
	"github.com/privconsensus/privconsensus/internal/keystore"
	"github.com/privconsensus/privconsensus/internal/obs"
	"github.com/privconsensus/privconsensus/internal/protocol"
	"github.com/privconsensus/privconsensus/internal/transport"
)

const (
	// relayUsers is the population of every relay-fanin query: thousands
	// of small frames, within what DGK's 56-bit comparison space allows
	// at the paper parameters.
	relayUsers = 2000
	// relayCount is the number of leaf relays between users and servers.
	relayCount = 2
	// relayWorkers is the number of closed-loop uploader workers.
	relayWorkers = 2
	// labelTimeout bounds the wait for a query's label once every upload
	// has been attempted.
	labelTimeout = 60 * time.Second
)

// relayStack is one query's deployment: two batch-mode cmd/server
// children and two in-process leaf relays in front of them.
type relayStack struct {
	s1, s2 *child
	// leaves[r] holds relay r's S1-side and S2-side listen addresses.
	leaves [relayCount][2]string
	cancel context.CancelFunc
	relays sync.WaitGroup
	errs   chan error
}

// relayFanin is one relay-fanin run's state.
type relayFanin struct {
	e      *env
	cfg    protocol.Config
	bin    string
	files  [2]string
	pub    *keystore.PublicFile
	frames [][2]*transport.Message // frames[user] = {to S1, to S2}
	want   string                  // the label S1 and S2 must release
	stack  *relayStack             // the stack the next query runs on
	nextQ  int64
}

func runRelayFanin(e *env) (*report, error) {
	cfg := protocol.DefaultConfig(relayUsers)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	bin, err := e.serverBinary()
	if err != nil {
		return nil, err
	}
	rf := &relayFanin{e: e, cfg: cfg, bin: bin}
	rep := newReport()
	var keys *protocol.Keys
	err = timeSetups(rep, func(round int, last bool) (map[string]time.Duration, error) {
		t0 := time.Now()
		k, pub, files, err := writeKeys(e, fmt.Sprintf("setup%d", round), cfg, e.keyRNG(round))
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		rf.files, rf.pub, keys = files, pub, k
		st, err := rf.start(fmt.Sprintf("setup%d", round))
		if err != nil {
			return nil, err
		}
		ready := time.Since(t1)
		if last {
			rf.stack = st
		} else if err := st.stop(); err != nil {
			return nil, err
		}
		return map[string]time.Duration{"setup.keygen_s": t1.Sub(t0), "setup.servers_ready_s": ready}, nil
	})
	if err != nil {
		return nil, err
	}
	defer func() {
		if rf.stack != nil {
			rf.stack.stop()
		}
	}()
	if err := rf.buildInputs(rep); err != nil {
		return nil, err
	}
	out, err := splitTraced(e, rf.measure)
	if err != nil {
		return nil, err
	}
	for k, v := range rep.values {
		out.set(k, v)
	}
	return out, finishTrace(e, out, cfg, keys)
}

// buildInputs pre-builds every user's real submission from the seed and
// encodes its two frames, and computes the label the plaintext reference
// gives for them. Users build in parallel; each user's randomness comes
// from its own seeded stream, so the inputs do not depend on scheduling.
func (rf *relayFanin) buildInputs(rep *report) error {
	b := newBallot(rf.e.seedRNG(2), relayUsers, rf.cfg.Classes, agreement)
	rf.frames = make([][2]*transport.Message, relayUsers)
	discl := make([]*protocol.Disclosure, relayUsers)
	errs := make([]error, relayUsers)
	base := rf.e.opts.seed * 1_000_003
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < relayWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := w; u < relayUsers; u += relayWorkers {
				rng := rand.New(rand.NewSource(base + 100_000 + int64(u)))
				sub, dis, err := protocol.BuildSubmission(rng, rand.New(rand.NewSource(rng.Int63())),
					rf.cfg, u, b.units(u, rf.cfg.Classes), rf.pub.PK1, rf.pub.PK2)
				if err == nil {
					rf.frames[u][0], err = ingest.EncodeHalf(u, 0, sub.ToS1)
				}
				if err == nil {
					rf.frames[u][1], err = ingest.EncodeHalf(u, 0, sub.ToS2)
				}
				discl[u], errs[u] = dis, err
			}
		}()
	}
	wg.Wait()
	for u, err := range errs {
		if err != nil {
			return fmt.Errorf("user %d: build submission: %w", u, err)
		}
	}
	rep.setMs("protocol.build_ms_per_user", time.Since(t0)*relayWorkers/relayUsers)
	votes, z1, z2, err := protocol.AggregateDisclosures(discl)
	if err != nil {
		return err
	}
	consensus, label, err := protocol.PlainOutcome(votes, z1, z2, rf.cfg.ThresholdUnits())
	if err != nil {
		return err
	}
	rf.want = "no-consensus"
	if consensus {
		rf.want = "consensus label=" + strconv.Itoa(label)
	}
	return nil
}

// start launches a fresh server pair and its two leaf relays.
func (rf *relayFanin) start(name string) (*relayStack, error) {
	dir := rf.e.path(name)
	st := &relayStack{errs: make(chan error, relayCount)}
	var err error
	st.s1, err = rf.e.startServer(rf.bin, "s1", "-role", "s1", "-keys", rf.files[0],
		"-listen", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0", "-metrics-linger", "5m",
		"-journal", dir+"-s1.journal")
	if err != nil {
		return nil, err
	}
	st.s2, err = rf.e.startServer(rf.bin, "s2", "-role", "s2", "-keys", rf.files[1],
		"-listen", "127.0.0.1:0", "-peer", st.s1.listen, "-metrics-addr", "127.0.0.1:0", "-metrics-linger", "5m",
		"-journal", dir+"-s2.journal")
	if err != nil {
		st.s1.stop(5 * time.Second)
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	st.cancel = cancel
	for r := 0; r < relayCount; r++ {
		ready1, ready2 := make(chan string, 1), make(chan string, 1)
		st.relays.Add(1)
		go func() {
			defer st.relays.Done()
			st.errs <- ingest.Run(ctx, ingest.Options{
				ListenS1: "127.0.0.1:0", ListenS2: "127.0.0.1:0",
				UpstreamS1: st.s1.listen, UpstreamS2: st.s2.listen,
				RelayID: int64(r + 1), Users: relayUsers, Instances: 1, Classes: rf.cfg.Classes,
				PK1: rf.pub.PK1, PK2: rf.pub.PK2, Seed: rf.e.opts.seed + int64(r),
				ReadyS1: ready1, ReadyS2: ready2,
			})
		}()
		for i, ch := range []chan string{ready1, ready2} {
			select {
			case st.leaves[r][i] = <-ch:
			case err := <-st.errs:
				st.stop()
				return nil, fmt.Errorf("relay %d did not start: %v", r+1, err)
			case <-time.After(childStartTimeout):
				st.stop()
				return nil, fmt.Errorf("relay %d did not start within %v", r+1, childStartTimeout)
			}
		}
	}
	return st, nil
}

// stop ends the relays and both servers and waits for all of them. A
// batch server stopped before its query ran exits non-zero by design, so
// only a server that does not stop is an error.
func (st *relayStack) stop() error {
	st.cancel()
	st.relays.Wait()
	var errs []error
	for _, c := range []*child{st.s1, st.s2} {
		var exit *exec.ExitError
		if err := c.stop(10 * time.Second); err != nil && !errors.As(err, &exit) {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// userResult is one user's upload as its worker observed it.
type userResult struct {
	send, confirm time.Duration
	err           error
}

// measure runs back-to-back queries for d: each query uploads every user
// through the relays and waits for the label at both servers.
func (rf *relayFanin) measure(d time.Duration, tr *tracer) (*report, error) {
	rep := newReport()
	var (
		labels, quorumWait, sendMs, confirmMs, ackMs []float64
		uploadTime                                   time.Duration
		acked, queries                               int64
		cpu1, cpu2                                   time.Duration
		peak                                         = selfPeakRSSMB()
		counters                                     counterSet
		peerBytes, wireBytes, wireMsgs, peerMsgs     float64
		summaries                                    []string
	)
	counters.values = map[string]int64{}
	batches0, retries0, rejected0 := relayCounters()
	benchCPU0 := selfCPU()
	firstQ := rf.nextQ
	start := time.Now()
	for time.Since(start) < d {
		rf.nextQ++
		q := rf.nextQ
		st := rf.stack
		rf.stack = nil
		if st == nil {
			var err error
			if st, err = rf.start(fmt.Sprintf("q%d", q)); err != nil {
				return nil, err
			}
		}
		before, err := scrapePair(st.s1, st.s2)
		if err != nil {
			st.stop()
			return nil, err
		}
		root := tr.id()
		first := time.Now()
		results := rf.upload(st, tr, q, root)
		uploaded := time.Since(first)
		failed, ackedNow := 0, int64(0)
		for _, r := range results {
			rep.attempted++
			if r.err != nil {
				failed++
				rep.failed++
				if rep.failed <= 5 {
					fmt.Printf("query %d: upload failed: %v\n", q, r.err)
				}
				continue
			}
			ackedNow++
			sendMs = append(sendMs, durMs(r.send))
			confirmMs = append(confirmMs, durMs(r.confirm))
			ackMs = append(ackMs, durMs(r.send+r.confirm))
		}

		// Both servers log their query summary when the label is out.
		wait := labelTimeout
		if failed > 0 {
			wait = 5 * time.Second
		}
		ctx, cancel := context.WithTimeout(context.Background(), wait)
		sum1, err1 := st.s1.waitSummaries(ctx, 1)
		sum2, err2 := st.s2.waitSummaries(ctx, 1)
		cancel()
		labelAt := time.Now()
		tr.record(root, 0, q, "bench", "query", "bench", first, labelAt)
		after, scrapeErr := scrapePair(st.s1, st.s2)
		if err := st.stop(); err != nil && err1 == nil && err2 == nil {
			fmt.Printf("query %d: server stop: %v\n", q, err)
		}
		if err1 != nil || err2 != nil {
			// The acknowledged users' data produced no label: they count
			// as failed too.
			rep.failed += ackedNow
			fmt.Printf("query %d: no label: %v %v\n", q, err1, err2)
			continue
		}
		acked += ackedNow
		uploadTime += uploaded
		if scrapeErr != nil {
			return nil, scrapeErr
		}
		queries++
		got1, got2 := summaryResult(sum1[0]), summaryResult(sum2[0])
		if got1 != rf.want || got2 != rf.want {
			rep.fail("query %d: S1 released %q and S2 %q, plaintext reference %q", q, got1, got2, rf.want)
		}
		total, _, err := parseSummary(sum1[0])
		if err != nil {
			return nil, err
		}
		labels = append(labels, labelAt.Sub(first).Seconds())
		quorumWait = append(quorumWait, durMs(labelAt.Sub(first)-total))
		summaries = append(summaries, sum1[0])
		delta := after.delta(before)
		counters = counters.plus(delta.counters)
		peerBytes += delta.s1.sum("transport_step_bytes_total")
		peerMsgs += delta.s1.sum("transport_step_msgs_total")
		wireBytes += delta.s1.sum("transport_wire_bytes_total", `dir="sent"`) + delta.s2.sum("transport_wire_bytes_total", `dir="sent"`)
		wireMsgs += delta.s1.sum("transport_wire_msgs_total", `dir="sent"`) + delta.s2.sum("transport_wire_msgs_total", `dir="sent"`)
		cpu1 += st.s1.cpu() - st.s1.readyCPU
		cpu2 += st.s2.cpu() - st.s2.readyCPU
		peak = math.Max(peak, math.Max(st.s1.peakRSSMB(), st.s2.peakRSSMB()))
	}
	elapsed := time.Since(start)
	if queries == 0 {
		return nil, fmt.Errorf("no query completed in %v", d)
	}
	if rep.wrong > 0 {
		rep.failed += rep.wrong * relayUsers
	}
	nq := float64(queries)
	rep.check("%d queries of %d users: %d of %d uploads acknowledged; labels checked against protocol.PlainOutcome (%s)",
		queries, relayUsers, acked, rep.attempted, rf.want)
	latencyCheck(rep, "query", labels)
	rep.set("query_ms_p50", 1000*median(labels))
	rep.set("query_ms_p95", 1000*percentile(labels, 95))
	rep.set("time_to_label_s", median(labels))
	rep.set("queries_per_s", nq/elapsed.Seconds())
	rep.set("users_per_s", float64(acked)/uploadTime.Seconds())
	rep.set("ack_ms_p99", percentile(ackMs, 99))
	rep.set("peer_bytes_per_query", peerBytes/nq)
	rep.set("peak_rss_mb", math.Max(peak, selfPeakRSSMB()))

	rep.set("ingest.send_ms_p50", median(sendMs))
	rep.set("ingest.confirm_ms_p50", median(confirmMs))
	rep.set("ingest.confirm_ms_p99", percentile(confirmMs, 99))
	batches, retries, rejected := relayCounters()
	batches -= batches0
	rep.set("ingest.batches_out_per_1k_users", 1000*batches/math.Max(1, float64(acked)))
	rep.set("ingest.forward_retry_share", ratio(retries-retries0, batches))
	rep.set("ingest.rejected", rejected-rejected0)
	rep.set("deploy.quorum_wait_ms", median(quorumWait))
	rep.setMs("deploy.s1_cpu_ms_per_query", time.Duration(float64(cpu1)/nq))
	rep.setMs("deploy.s2_cpu_ms_per_query", time.Duration(float64(cpu2)/nq))
	rep.setMs("deploy.server_cpu_ms_per_query", time.Duration(float64(cpu1+cpu2)/nq))
	rep.setMs("bench.client_cpu_ms_per_query", time.Duration(float64(selfCPU()-benchCPU0)/nq))
	rep.set("deploy.queries_failed", float64(rf.nextQ-firstQ)-nq)
	rep.set("protocol.peer_msgs_per_query", peerMsgs/nq)
	rep.set("transport.wire_bytes_per_query", wireBytes/nq)
	rep.set("transport.wire_msgs_per_query", wireMsgs/nq)
	if err := reportSteps(rep, summaries); err != nil {
		return nil, err
	}
	counters.report(rep, nq)
	return rep, nil
}

// upload sends every user's two frames through the relays with
// relayWorkers closed-loop workers and returns each user's outcome.
// Worker w serves users w, w+relayWorkers, ... through leaf relay w, with
// the sibling relay as its failover endpoint.
func (rf *relayFanin) upload(st *relayStack, tr *tracer, q, root int64) []userResult {
	results := make([]userResult, relayUsers)
	ctx, cancel := context.WithTimeout(context.Background(), labelTimeout)
	defer cancel()
	var wg sync.WaitGroup
	for w := 0; w < relayWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			leaf, sib := w%relayCount, (w+1)%relayCount
			seed := rf.e.opts.seed*1000 + q*10 + int64(w)
			up1 := &ingest.Uploader{Endpoints: []string{st.leaves[leaf][0], st.leaves[sib][0]}, Seed: seed}
			up2 := &ingest.Uploader{Endpoints: []string{st.leaves[leaf][1], st.leaves[sib][1]}, Seed: seed + 5}
			defer up1.Close()
			defer up2.Close()
			lane := fmt.Sprintf("uploader%d", w)
			for u := w; u < relayUsers; u += relayWorkers {
				t0 := time.Now()
				err := up1.Send(ctx, rf.frames[u][0])
				if err == nil {
					err = up2.Send(ctx, rf.frames[u][1])
				}
				t1 := time.Now()
				if err == nil {
					err = up1.Confirm(ctx, int64(u))
				}
				if err == nil {
					err = up2.Confirm(ctx, int64(u))
				}
				t2 := time.Now()
				if tr != nil {
					id := tr.id()
					tr.add(id, q, "ingest", "Send", lane, t0, t1)
					tr.add(id, q, "ingest", "Confirm", lane, t1, t2)
					tr.record(id, root, q, "bench", "upload user "+strconv.Itoa(u), lane, t0, t2)
				}
				if err != nil {
					err = fmt.Errorf("user %d: %w", u, err)
				}
				results[u] = userResult{send: t1.Sub(t0), confirm: t2.Sub(t1), err: err}
			}
		}()
	}
	wg.Wait()
	return results
}

// summaryResult extracts the result field of a query summary line.
func summaryResult(line string) string {
	_, rest, ok := strings.Cut(line, `result="`)
	if !ok {
		return ""
	}
	res, _, _ := strings.Cut(rest, `"`)
	return res
}

// relayCounters reads the in-process relays' batch, retry and rejection
// counters.
func relayCounters() (batches, retries, rejected float64) {
	for _, p := range obs.Default.Snapshot() {
		switch p.Name {
		case "privconsensus_relay_batches_out_total":
			batches += p.Value
		case "privconsensus_relay_forward_retries_total":
			retries += p.Value
		case "privconsensus_relay_rejected_total":
			rejected += p.Value
		}
	}
	return batches, retries, rejected
}
