package main

import (
	"math/big"
	"math/rand"

	"github.com/privconsensus/privconsensus/internal/protocol"
)

// agreement is the chance that a user votes for the query's majority class
// on paper-batch and relay-fanin. At 10 users and T = 0.6 it sends some
// queries down the consensus path (steps 6-9) and others down the
// threshold-fail path.
const agreement = 0.7

// ballot is one query's plaintext inputs: each user's one-hot class choice.
// The vote totals always have a unique maximum, so the plaintext argmax
// is well defined.
type ballot struct {
	choice []int // choice[user] is the class the user votes for
	counts []int // counts[class] is the number of votes the class got
	top    int   // the class with the most votes
}

// newBallot draws one query's votes from rng; each user votes for the
// majority class with chance agree.
func newBallot(rng *rand.Rand, users, classes int, agree float64) ballot {
	for {
		b := ballot{choice: make([]int, users), counts: make([]int, classes)}
		majority := rng.Intn(classes)
		for u := range b.choice {
			c := majority
			if rng.Float64() >= agree {
				c = (majority + 1 + rng.Intn(classes-1)) % classes
			}
			b.choice[u] = c
			b.counts[c]++
		}
		best, ties := 0, 0
		for c, n := range b.counts {
			switch {
			case n > b.counts[best]:
				best, ties = c, 0
			case n == b.counts[best] && c != best:
				ties++
			}
		}
		if ties == 0 {
			b.top = best
			return b
		}
	}
}

// units returns user u's vote vector in protocol vote units.
func (b ballot) units(u, classes int) []*big.Int {
	v := make([]*big.Int, classes)
	for c := range v {
		v[c] = new(big.Int)
	}
	v[b.choice[u]].SetInt64(protocol.VoteScale)
	return v
}

// fractions returns every user's vote vector as the serve client takes it.
func (b ballot) fractions(classes int) [][]float64 {
	out := make([][]float64, len(b.choice))
	for u, c := range b.choice {
		out[u] = make([]float64, classes)
		out[u][c] = 1
	}
	return out
}
