package server_test

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/client"
	"repro/server"
)

// diffGroups are pools of textually-distinct but semantically-equivalent
// filters: whitespace and quoting variants, commuted and/or operands,
// conjunctive predicates split into step predicates, and no-op self steps.
// The differential test subscribes the same mix of variants against a
// deduplicating broker and a naive one and demands identical behavior.
var diffGroups = [][]string{
	{`/a[b="x"]`, `/a[ b = "x" ]`, `/a[b='x']`, `/./a[b="x"]`},
	{`//a[b and c]`, `//a[c and b]`, `//a[b][c]`, `//a[c][b]`},
	{`/a/b[c/text()=1][d]`, `/a/b[d and c/text()=1]`},
	{`//m[v>3]`, `//m[ v > 3 ]`},
	{`/m[v=1]`, `/m[v = 1]`},
	{`/a[b or c]`, `/a[c or b]`, `/a[c or b or b]`},
	{`//d[@k="v"]`, `//d[@k='v']`},
	{`/a[not(b)]`, `/a[ not( b ) ]`},
	{`//a[b="x" and c="y"]`, `//a[c="y"][b="x"]`},
	{`//a//b`, `//a//./b`},
}

// randomDiffDoc emits a document that matches a random subset of diffGroups.
func randomDiffDoc(r *rand.Rand) []byte {
	switch r.Intn(6) {
	case 5:
		// One of the per-round private filters (/a[u=N]) may be live.
		return []byte(fmt.Sprintf("<a><u>%d</u></a>", r.Intn(20)))
	case 0:
		vals := []string{"x", "y", "z"}
		return []byte(fmt.Sprintf("<a><b>%s</b><c>%s</c></a>",
			vals[r.Intn(len(vals))], vals[r.Intn(len(vals))]))
	case 1:
		return []byte(fmt.Sprintf("<m><v>%d</v></m>", r.Intn(6)))
	case 2:
		return []byte(fmt.Sprintf("<a><b><c>%d</c><d/></b></a>", r.Intn(3)))
	case 3:
		vals := []string{"v", "w"}
		return []byte(fmt.Sprintf(`<d k="%s"/>`, vals[r.Intn(len(vals))]))
	default:
		return []byte("<a><c>y</c></a>")
	}
}

// diffCollector tallies deliveries for one subscriber: the doc multiset and
// the per-filter-id counts, plus the running total of (doc, id) pairs — the
// unit the broker's publish reply counts, so the test can wait for exactly
// the deliveries it is owed.
type diffCollector struct {
	mu    sync.Mutex
	docs  []string
	ids   map[uint64]int
	total int
}

func (c *diffCollector) deliver(d client.Delivery) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.docs = append(c.docs, string(d.Doc))
	for _, id := range d.Filters {
		c.ids[id]++
		c.total++
	}
}

func (c *diffCollector) snapshot() ([]string, map[uint64]int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	docs := append([]string(nil), c.docs...)
	sort.Strings(docs)
	ids := make(map[uint64]int, len(c.ids))
	for k, v := range c.ids {
		ids[k] = v
	}
	return docs, ids
}

func (c *diffCollector) totalIDs() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}

// diffSide is one broker under differential test with its subscriber fleet.
type diffSide struct {
	srv  *server.Server
	subs []*client.Client
	cols []*diffCollector
	pub  *client.Client
	// active[i] lists subscriber i's live subscription ids, in subscribe
	// order, so both sides can unsubscribe "the same" subscription.
	active [][]uint64
	// private[i] is subscriber i's current private-filter subscription.
	private []uint64
}

func newDiffSide(t *testing.T, cfg server.Config, nsubs int) *diffSide {
	t.Helper()
	s := &diffSide{srv: startServer(t, cfg)}
	addr := s.srv.Addr()
	for i := 0; i < nsubs; i++ {
		col := &diffCollector{ids: map[uint64]int{}}
		s.cols = append(s.cols, col)
		opt := client.Options{OnDeliver: col.deliver}
		c, err := client.Dial(addr, opt)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		s.subs = append(s.subs, c)
		s.active = append(s.active, nil)
		s.private = append(s.private, 0)
	}
	s.pub = dialSub(t, addr, nil)
	return s
}

// TestDedupDifferentialMatchSets is the workload-deduplication acceptance
// test: a deduplicating broker and a naive (DedupDisabled) broker run the
// same randomized subscribe/unsubscribe churn — heavy with duplicate and
// equivalent filter variants — and the same document stream. Every publish
// must report the same match count on both sides, and every subscriber must
// end up with the same delivery multiset and per-filter-id counts. Run with
// -race: deliveries land concurrently with churn.
func TestDedupDifferentialMatchSets(t *testing.T) {
	const (
		nsubs  = 5
		rounds = 4
		docs   = 12
	)
	r := rand.New(rand.NewSource(7))

	// A removed-slot bound this low makes the deduped side compact in the
	// background mid-churn — the differential check then also covers index
	// remapping and the re-apply of what changed during a compaction.
	ded := newDiffSide(t, server.Config{ConsolidateRemoved: 1, DebugAddr: "127.0.0.1:0"}, nsubs)
	naive := newDiffSide(t, server.Config{DedupDisabled: true}, nsubs)

	wantTotal := 0
	for round := 0; round < rounds; round++ {
		for i := 0; i < nsubs; i++ {
			// Maybe drop one existing subscription — same ordinal on both
			// sides, so the workloads stay in lockstep.
			if len(ded.active[i]) > 0 && r.Intn(2) == 0 {
				k := r.Intn(len(ded.active[i]))
				for _, s := range []*diffSide{ded, naive} {
					if err := s.subs[i].Unsubscribe(s.active[i][k]); err != nil {
						t.Fatalf("unsubscribe: %v", err)
					}
					s.active[i] = append(s.active[i][:k:k], s.active[i][k+1:]...)
				}
			}
			// Replace this subscriber's private filter: a text no one else
			// uses, so every round is a real first-compile and, from the
			// second round on, a real last-release — the slots the
			// background compaction exists to fold away.
			for _, s := range []*diffSide{ded, naive} {
				id, err := s.subs[i].Subscribe(fmt.Sprintf("/a[u=%d]", round*nsubs+i))
				if err != nil {
					t.Fatalf("subscribe private filter: %v", err)
				}
				if round > 0 {
					if err := s.subs[i].Unsubscribe(s.private[i]); err != nil {
						t.Fatalf("unsubscribe private filter: %v", err)
					}
				}
				s.private[i] = id
			}
			// Add one or two fresh subscriptions drawn from the variant pools.
			for n := 1 + r.Intn(2); n > 0; n-- {
				g := diffGroups[r.Intn(len(diffGroups))]
				q := g[r.Intn(len(g))]
				for _, s := range []*diffSide{ded, naive} {
					id, err := s.subs[i].Subscribe(q)
					if err != nil {
						t.Fatalf("subscribe %q: %v", q, err)
					}
					s.active[i] = append(s.active[i], id)
				}
			}
		}
		checkDepthBound(t, machineSnapshot(t, ded.srv))
		for d := 0; d < docs; d++ {
			doc := randomDiffDoc(r)
			nd, err := ded.pub.Publish(doc)
			if err != nil {
				t.Fatalf("publish (dedup): %v", err)
			}
			nn, err := naive.pub.Publish(doc)
			if err != nil {
				t.Fatalf("publish (naive): %v", err)
			}
			if nd != nn {
				t.Fatalf("round %d doc %s: dedup matched %d subscriptions, naive %d",
					round, doc, nd, nn)
			}
			wantTotal += nd
		}
	}

	// Both sides owe the same (doc, id) pair total; wait for the async
	// delivery planes to drain before comparing multisets.
	for _, s := range []*diffSide{ded, naive} {
		s := s
		waitFor(t, "deliveries to drain", func() bool {
			got := 0
			for _, c := range s.cols {
				got += c.totalIDs()
			}
			return got == wantTotal
		})
	}

	for i := 0; i < nsubs; i++ {
		dDocs, dIDs := ded.cols[i].snapshot()
		nDocs, nIDs := naive.cols[i].snapshot()
		if len(dDocs) != len(nDocs) {
			t.Fatalf("subscriber %d: dedup delivered %d docs, naive %d", i, len(dDocs), len(nDocs))
		}
		for j := range dDocs {
			if dDocs[j] != nDocs[j] {
				t.Fatalf("subscriber %d: delivery multisets diverge at %d: %q vs %q",
					i, j, dDocs[j], nDocs[j])
			}
		}
		// Subscription ids are assigned in subscribe order on both sides, so
		// even the per-filter-id counts must agree exactly.
		if len(dIDs) != len(nIDs) {
			t.Fatalf("subscriber %d: id sets differ: %v vs %v", i, dIDs, nIDs)
		}
		for id, n := range dIDs {
			if nIDs[id] != n {
				t.Fatalf("subscriber %d filter %d: dedup count %d, naive %d", i, id, n, nIDs[id])
			}
		}
	}

	// Compactions fired and kept the dead slots down. The last one may still
	// be in flight when the churn ends.
	waitFor(t, "compaction to settle", func() bool {
		snap := machineSnapshot(t, ded.srv)
		return !snap.Compacting && snap.RemovedSlots <= 1
	})
	if snap := machineSnapshot(t, ded.srv); snap.Consolidations == 0 {
		t.Fatal("the churn never triggered a compaction")
	}

	// The whole point: the deduplicated broker compiled fewer machine
	// queries for the same (heavily duplicated) workload.
	if du, nu := ded.srv.NumUniqueQueries(), naive.srv.NumUniqueQueries(); du >= nu {
		t.Fatalf("dedup compiled %d unique queries, naive %d — no sharing happened", du, nu)
	}
	if ds, ns := ded.srv.NumSubscriptions(), naive.srv.NumSubscriptions(); ds != ns {
		t.Fatalf("subscription counts diverged: dedup %d, naive %d", ds, ns)
	}
}
