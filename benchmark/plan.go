package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/load"
	"repro/internal/load/generator"
	"repro/internal/xpath"
)

// Sub-seeds of the benchmark's own draw streams, kept apart from
// internal/load's (1..7) so no two streams share a sequence.
const (
	seedOrder     = 101
	seedChurnSlot = 102
	seedChurnPick = 103
	seedSubscribe = 104
	seedInitial   = 105
)

// tagLen is the length of the sequence tag every pool document starts
// with: an XML comment holding 16 hex digits the publisher rewrites in
// place before each send, so a delivery names the publish it belongs to.
// The scanner skips comments, so the tag never changes a match set.
const (
	tagPrefix = "<!--q"
	tagLen    = len(tagPrefix) + 16 + len("-->")
)

// churnScriptLen is how many churn operations are drawn up front (and
// hashed); a run that needs more wraps around.
const churnScriptLen = 1 << 14

type churnOp struct {
	Slot   int // which live subscription is replaced
	Filter int // pool index of the filter it resubscribes to
}

// plan is one workload materialised from a seed: the inputs the program
// receives and the script the generator follows. Same workload + seed →
// identical plan, witnessed by Hash.
type plan struct {
	W    *workload
	Seed int64

	// Filters is the distinct-filter pool; Extra further draws of the same
	// generator run, new to the compiled workload: what the engine-filter
	// subscribe phase and the control-plane rungs add.
	Filters []string
	Extra   []string
	// Docs is the tagged document pool.
	Docs [][]byte
	// Subs is the filter index of each initial subscription.
	Subs []int
	// Order is the permutation of the pool a round replays.
	Order []uint16
	// Churn is the churn script; SubscribeDraws the subscribe phase's
	// filter draws on broker workloads.
	Churn          []churnOp
	SubscribeDraws []int

	Hash string
}

func buildPlan(w *workload, seed int64) (*plan, error) {
	spec := load.DefaultSpec()
	spec.Name = w.Name
	spec.Seed = seed
	spec.Dataset = "protein"
	// The generator repeats itself (10k draws hold ~7k canonically distinct
	// filters), and the broker would fold repeats into one machine query, so
	// the pool is cut from the distinct prefix of a larger draw.
	need := w.Filters + subscribeOps
	spec.Filters = 2*need + 64
	spec.Subscribers = max(w.Subscribers, 1)
	spec.Popularity = "zipfian"
	spec.DocSizes = []load.SizeClass{{Bytes: w.DocBytes, Weight: 1}}
	spec.DocPool = poolDocs
	spec.Phases = []load.Phase{{Name: "unused", Duration: time.Second}}
	lp, err := load.BuildPlan(spec)
	if err != nil {
		return nil, err
	}
	distinct, err := canonicallyDistinct(lp.Filters, need)
	if err != nil {
		return nil, err
	}
	p := &plan{W: w, Seed: seed, Filters: distinct[:w.Filters], Extra: distinct[w.Filters:]}

	p.Docs = make([][]byte, poolDocs)
	for i, d := range lp.Docs[0] {
		b := make([]byte, 0, tagLen+len(d))
		b = append(b, tagPrefix+"0000000000000000-->"...)
		p.Docs[i] = append(b, d...)
	}

	if w.Broker {
		// Initial subscriptions are zipfian over the initial filter set;
		// where that set is a prefix of the pool (churn), each of its
		// filters is claimed once first so the distinct count is exact.
		distinct := w.Filters
		if w.InitialDistinct > 0 {
			distinct = w.InitialDistinct
		}
		z := generator.NewZipfian(int64(distinct), 0.99, seed+seedInitial)
		for i := 0; i < w.Subscribers; i++ {
			if i < w.InitialDistinct {
				p.Subs = append(p.Subs, i)
			} else {
				p.Subs = append(p.Subs, int(z.Next()))
			}
		}
	}

	p.Order = make([]uint16, poolDocs)
	for i, v := range rand.New(rand.NewSource(seed + seedOrder)).Perm(poolDocs) {
		p.Order[i] = uint16(v)
	}

	if w.ChurnEvery > 0 {
		slot := rand.New(rand.NewSource(seed + seedChurnSlot))
		pick := generator.NewZipfian(int64(w.Filters), 0.99, seed+seedChurnPick)
		p.Churn = make([]churnOp, churnScriptLen)
		for i := range p.Churn {
			p.Churn[i] = churnOp{Slot: slot.Intn(w.Subscribers), Filter: int(pick.Next())}
		}
	}
	if w.Broker {
		pick := generator.NewZipfian(int64(w.Filters), 0.99, seed+seedSubscribe)
		p.SubscribeDraws = make([]int, subscribeOps)
		for i := range p.SubscribeDraws {
			p.SubscribeDraws[i] = int(pick.Next())
		}
	}
	p.Hash = p.hash()
	return p, nil
}

// canonicallyDistinct returns the first n filters of pool no two of which
// canonicalise to the same text.
func canonicallyDistinct(pool []string, n int) ([]string, error) {
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	for _, q := range pool {
		canon, err := xpath.Canonicalize(q)
		if err != nil {
			return nil, fmt.Errorf("generated filter %q: %w", q, err)
		}
		if !seen[canon] {
			seen[canon] = true
			if out = append(out, q); len(out) == n {
				return out, nil
			}
		}
	}
	return nil, fmt.Errorf("filter generator produced only %d distinct filters of the %d needed", len(out), n)
}

// hash digests everything the run's operations are derived from.
func (p *plan) hash() string {
	h := sha256.New()
	num := func(v int) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	fmt.Fprintf(h, "%s\x00%d\x00", p.W.Name, p.Seed)
	for _, set := range [][]string{p.Filters, p.Extra} {
		num(len(set))
		for _, f := range set {
			h.Write([]byte(f))
			h.Write([]byte{0})
		}
	}
	for _, d := range p.Docs {
		num(len(d))
		h.Write(d)
	}
	for _, s := range p.Subs {
		num(s)
	}
	for _, o := range p.Order {
		num(int(o))
	}
	for _, c := range p.Churn {
		num(c.Slot)
		num(c.Filter)
	}
	for _, s := range p.SubscribeDraws {
		num(s)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// roundDocs is the pool-index sequence of one round: the first n documents
// of Order replayed end to end.
func (p *plan) roundDocs(n int) []uint16 {
	out := make([]uint16, n)
	for i := range out {
		out[i] = p.Order[i%len(p.Order)]
	}
	return out
}

const hexDigits = "0123456789abcdef"

// setTag writes seq into doc's tag slot.
func setTag(doc []byte, seq uint64) {
	for i := 0; i < 16; i++ {
		doc[len(tagPrefix)+15-i] = hexDigits[seq&0xf]
		seq >>= 4
	}
}

// readTag recovers the sequence number from a delivered document.
func readTag(doc []byte) (uint64, bool) {
	if len(doc) < tagLen || string(doc[:len(tagPrefix)]) != tagPrefix {
		return 0, false
	}
	var seq uint64
	for _, c := range doc[len(tagPrefix) : len(tagPrefix)+16] {
		switch {
		case c >= '0' && c <= '9':
			seq = seq<<4 | uint64(c-'0')
		case c >= 'a' && c <= 'f':
			seq = seq<<4 | uint64(c-'a'+10)
		default:
			return 0, false
		}
	}
	return seq, true
}
