package main

import (
	"context"
	"fmt"
	"io"
	"math/big"
	"math/rand"
	"sync"
	"time"

	"github.com/privconsensus/privconsensus/internal/dgk"
	"github.com/privconsensus/privconsensus/internal/mathutil"
	"github.com/privconsensus/privconsensus/internal/paillier"
	"github.com/privconsensus/privconsensus/internal/protocol"
	"github.com/privconsensus/privconsensus/internal/transport"
)

// microSamples is the number of timed samples per micro-call; each sample
// times a short batch of calls and the median sample is reported.
const microSamples = 25

// timeMicro times batch calls of fn microSamples times and returns the
// median time per call. Each sample is a span of the given layer.
func timeMicro(e *env, layer, name string, batch int, fn func() error) (time.Duration, error) {
	per := make([]float64, 0, microSamples)
	for i := 0; i < microSamples; i++ {
		t0 := time.Now()
		for j := 0; j < batch; j++ {
			if err := fn(); err != nil {
				return 0, fmt.Errorf("%s: %w", name, err)
			}
		}
		t1 := time.Now()
		e.tracer.add(0, 0, layer, name, "micro", t0, t1)
		per = append(per, float64(t1.Sub(t0))/float64(batch))
	}
	return time.Duration(median(per)), nil
}

// runMicro times single calls into each layer at the workload's
// parameters and adds the residual that ties comparison cost to the
// comparison steps.
func runMicro(e *env, rep *report, cfg protocol.Config, keys *protocol.Keys) error {
	rng := e.seedRNG(90)
	pk1 := keys.S1Paillier.Public()
	dpk := keys.S2DGK.Public()

	// Fixed-base tables at the Paillier-blinding shape (base 2^n mod n²,
	// |n|+64-bit exponents) and the DGK blinding shape (h mod n, RBits).
	blindBase := new(big.Int).Exp(big.NewInt(2), pk1.N, pk1.N2)
	shapes := []struct {
		name      string
		base, mod *big.Int
		bits      int
	}{
		{"paillier", blindBase, pk1.N2, pk1.N.BitLen() + 64},
		{"dgk", dpk.H, dpk.N, dpk.RBits},
	}
	var fbTotal float64
	for _, s := range shapes {
		table, err := mathutil.NewFixedBaseExp(s.base, s.mod, s.bits)
		if err != nil {
			return err
		}
		exps := make([]*big.Int, 64)
		for i := range exps {
			exps[i] = new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(s.bits)))
		}
		i := 0
		d, err := timeMicro(e, "mathutil", "fixedbase-exp-"+s.name, 200, func() error {
			got := table.Exp(exps[i%len(exps)])
			if i < len(exps) && got.Cmp(new(big.Int).Exp(s.base, exps[i], s.mod)) != 0 {
				return fmt.Errorf("fixed-base %s exponentiation disagrees with big.Int.Exp", s.name)
			}
			i++
			return nil
		})
		if err != nil {
			return err
		}
		rep.set("mathutil.fixedbase_exp_ns_"+s.name, float64(d))
		fbTotal += float64(d)
	}
	rep.set("mathutil.fixedbase_exp_ns", fbTotal/float64(len(shapes)))

	// Paillier primitives.
	msg := new(big.Int).Rand(rng, pk1.N)
	var ct *paillier.Ciphertext
	d, err := timeMicro(e, "paillier", "encrypt", 200, func() error {
		var err error
		ct, err = pk1.Encrypt(rng, msg)
		return err
	})
	if err != nil {
		return err
	}
	rep.set("paillier.enc_ns", float64(d))
	acc := ct.Clone()
	scratch := new(big.Int)
	if d, err = timeMicro(e, "paillier", "add-into", 2000, func() error { return pk1.AddInto(acc, ct, scratch) }); err != nil {
		return err
	}
	rep.set("paillier.add_ns", float64(d))
	if d, err = timeMicro(e, "paillier", "decrypt", 200, func() error {
		got, err := keys.S1Paillier.Decrypt(ct)
		if err == nil && got.Cmp(msg) != 0 {
			err = fmt.Errorf("paillier decrypt returned a different plaintext")
		}
		return err
	}); err != nil {
		return err
	}
	rep.set("paillier.dec_ns", float64(d))

	// DGK primitives.
	small := big.NewInt(int64(rng.Intn(int(dpk.U.Int64()))))
	var dct *dgk.Ciphertext
	if d, err = timeMicro(e, "dgk", "encrypt", 200, func() error {
		var err error
		dct, err = dpk.Encrypt(rng, small)
		return err
	}); err != nil {
		return err
	}
	rep.set("dgk.enc_ns", float64(d))
	if d, err = timeMicro(e, "dgk", "zero-test", 200, func() error {
		zero, err := keys.S2DGK.IsZero(dct)
		if err == nil && zero != (small.Sign() == 0) {
			err = fmt.Errorf("dgk zero test returned %v for %v", zero, small)
		}
		return err
	}); err != nil {
		return err
	}
	rep.set("dgk.zerotest_ns", float64(d))

	if err := microCompare(e, rep, cfg, keys, rng); err != nil {
		return err
	}
	if err := microRoundtrip(e, rep); err != nil {
		return err
	}
	if _, ok := rep.values["protocol.build_ms_per_user"]; !ok {
		votes := ballot{choice: []int{0}}.units(0, cfg.Classes)
		if d, err = timeMicro(e, "protocol", "build-submission", 4, func() error {
			_, _, err := protocol.BuildSubmission(rng, rand.New(rand.NewSource(rng.Int63())), cfg, 0, votes,
				keys.S1Paillier.Public(), keys.S2Paillier.Public())
			return err
		}); err != nil {
			return err
		}
		rep.setMs("protocol.build_ms_per_user", d)
	}

	// Comparison additivity: the three comparison steps against the
	// comparisons they ran at the batched per-item cost.
	steps, ok1 := rep.values["protocol.compare_steps_ms"]
	cmps, ok2 := rep.values["dgk.comparisons_per_query"]
	if ok1 && ok2 {
		rep.set("dgk.compare_residual_ms", steps-cmps*rep.values["dgk.compare_batch_ns_per_item"]/1e6)
	}
	return nil
}

// microCompare times one signed comparison pair and one batched bracket
// level over an in-memory conn, checking every result.
func microCompare(e *env, rep *report, cfg protocol.Config, keys *protocol.Keys, rng *rand.Rand) error {
	dpk := keys.S2DGK.Public()
	sk := keys.S2DGK
	half := int64(1) << 40
	draw := func() *big.Int { return big.NewInt(rng.Int63n(2*half) - half) }
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	var frames, bytes, calls int64
	pair := func(run func(a, b transport.Conn) error) error {
		ca, cb := transport.Pair()
		wa := &waitConn{inner: ca}
		wb := &waitConn{inner: cb}
		defer wa.Close()
		defer wb.Close()
		err := run(wa, wb)
		frames += wa.frames.Load() + wb.frames.Load()
		bytes += wa.bytes.Load() + wb.bytes.Load()
		calls++
		return err
	}
	seedA, seedB := rng.Int63(), rng.Int63()
	d, err := timeMicro(e, "dgk", "compare-signed", 2, func() error {
		a, b := draw(), draw()
		return pair(func(ca, cb transport.Conn) error {
			errc := make(chan error, 1)
			var gotB bool
			go func() {
				var err error
				gotB, err = sk.CompareSignedB(ctx, rand.New(rand.NewSource(seedB)), cb, b)
				errc <- err
			}()
			gotA, err := dpk.CompareSignedA(ctx, rand.New(rand.NewSource(seedA)), ca, a)
			if errB := <-errc; err == nil {
				err = errB
			}
			if err == nil && (gotA != (a.Cmp(b) >= 0) || gotB != gotA) {
				err = fmt.Errorf("comparison of %v and %v returned A=%v B=%v", a, b, gotA, gotB)
			}
			return err
		})
	})
	if err != nil {
		return err
	}
	rep.set("dgk.compare_ns", float64(d))
	rep.set("dgk.compare_bytes", float64(bytes)/float64(calls))
	rep.set("dgk.compare_msgs", float64(frames)/float64(calls))

	// One tournament bracket level at C classes compares C/2 pairs.
	items := cfg.Classes / 2
	par := cfg.ResolvedParallelism()
	d, err = timeMicro(e, "dgk", "compare-signed-batch", 1, func() error {
		as := make([]*big.Int, items)
		bs := make([]*big.Int, items)
		for i := range as {
			as[i], bs[i] = draw(), draw()
		}
		return pair(func(ca, cb transport.Conn) error {
			errc := make(chan error, 1)
			go func() {
				_, err := sk.CompareSignedBatchB(ctx, &lockedReader{r: rand.New(rand.NewSource(seedB))}, cb, bs, par)
				errc <- err
			}()
			got, err := dpk.CompareSignedBatchA(ctx, &lockedReader{r: rand.New(rand.NewSource(seedA))}, ca, as, par)
			if errB := <-errc; err == nil {
				err = errB
			}
			for i := range got {
				if err == nil && got[i] != (as[i].Cmp(bs[i]) >= 0) {
					err = fmt.Errorf("batched comparison %d of %v and %v returned %v", i, as[i], bs[i], got[i])
				}
			}
			return err
		})
	})
	if err != nil {
		return err
	}
	rep.set("dgk.compare_batch_ns_per_item", float64(d)/float64(items))
	return nil
}

// microRoundtrip times one small frame echoed over loopback TCP.
func microRoundtrip(e *env, rep *report) error {
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer l.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	echoed := make(chan error, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			echoed <- err
			return
		}
		defer conn.Close()
		for {
			msg, err := conn.Recv(ctx)
			if err != nil {
				echoed <- nil
				return
			}
			if err := conn.Send(ctx, msg); err != nil {
				echoed <- err
				return
			}
		}
	}()
	conn, err := transport.Dial(ctx, l.Addr())
	if err != nil {
		return err
	}
	frame := &transport.Message{Kind: transport.KindControl, Flags: []int64{1, 2}}
	d, err := timeMicro(e, "transport", "tcp-roundtrip", 20, func() error {
		if err := conn.Send(ctx, frame); err != nil {
			return err
		}
		_, err := conn.Recv(ctx)
		return err
	})
	conn.Close()
	if errEcho := <-echoed; err == nil {
		err = errEcho
	}
	if err != nil {
		return err
	}
	rep.set("transport.tcp_roundtrip_us", float64(d)/1e3)
	return nil
}

// lockedReader serialises reads so one seeded stream can feed a batch's
// concurrent comparison workers, as the protocol itself does.
type lockedReader struct {
	mu sync.Mutex
	r  io.Reader
}

func (l *lockedReader) Read(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.r.Read(p)
}
