package server_test

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/client"
	"repro/internal/naive"
	"repro/internal/xpath"
	"repro/server"
)

// diffGroups are pools of textually-distinct but semantically-equivalent
// filters: whitespace and quoting variants, commuted and/or operands,
// conjunctive predicates split into step predicates, and no-op self steps.
// The differential test subscribes a mix of these variants against the
// broker and checks it against a model that shares nothing between them.
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

// diffModel is the reference side: what a broker that compiled every
// subscription on its own would do, computed with internal/naive. Each live
// subscription is evaluated by itself against every published document; a
// subscriber is owed one delivery of a document that any of its filters
// matches, naming every one that does.
type diffModel struct {
	filters []map[uint64]*xpath.Filter // subscriber -> live subscription id -> filter
	docs    [][]string                 // subscriber -> expected delivery multiset
	ids     []map[uint64]int           // subscriber -> subscription id -> expected count
}

func newDiffModel(nsubs int) *diffModel {
	m := &diffModel{docs: make([][]string, nsubs)}
	for i := 0; i < nsubs; i++ {
		m.filters = append(m.filters, map[uint64]*xpath.Filter{})
		m.ids = append(m.ids, map[uint64]int{})
	}
	return m
}

func (m *diffModel) subscribe(t *testing.T, sub int, id uint64, query string) {
	t.Helper()
	// A SUBSCRIBE is canonicalized before it is compiled, and the model takes
	// the same text: internal/naive mirrors the compiler's fragment, which has
	// no mid-path `//.` (the `//a//./b` variant canonicalizes to `//a//b`).
	// What the model leaves out is everything after that: sharing, refcounts,
	// fan-out sets, compaction.
	canon, err := xpath.Canonicalize(query)
	if err != nil {
		t.Fatalf("model: canonicalize %q: %v", query, err)
	}
	f, err := xpath.Parse(canon)
	if err != nil {
		t.Fatalf("model: parse %q: %v", canon, err)
	}
	m.filters[sub][id] = f
}

func (m *diffModel) unsubscribe(sub int, id uint64) { delete(m.filters[sub], id) }

// publish accounts for one document and returns the match count its publish
// must report: the number of live subscriptions whose filter matches.
func (m *diffModel) publish(t *testing.T, doc []byte) int {
	t.Helper()
	trees, err := naive.Build(doc)
	if err != nil || len(trees) != 1 {
		t.Fatalf("model: document %s: %d trees, err %v", doc, len(trees), err)
	}
	total := 0
	for sub, filters := range m.filters {
		matched := 0
		for id, f := range filters {
			if naive.Matches(f, trees[0]) {
				m.ids[sub][id]++
				matched++
			}
		}
		if matched > 0 {
			m.docs[sub] = append(m.docs[sub], string(doc))
		}
		total += matched
	}
	return total
}

func (m *diffModel) subscriptions() int {
	n := 0
	for _, filters := range m.filters {
		n += len(filters)
	}
	return n
}

// TestDedupDifferentialMatchSets is the workload-deduplication acceptance
// test: the broker runs a randomized subscribe/unsubscribe churn — heavy with
// duplicate and equivalent filter variants — and a document stream, beside a
// model that evaluates every subscription separately (diffModel). Every
// publish must report the model's match count, and every subscriber must end
// up with the model's delivery multiset and per-filter-id counts. Run with
// -race: deliveries land concurrently with churn.
func TestDedupDifferentialMatchSets(t *testing.T) {
	const (
		nsubs  = 5
		rounds = 4
		docs   = 12
	)
	r := rand.New(rand.NewSource(7))

	// A removed-slot bound this low makes the broker compact in the
	// background mid-churn — the differential check then also covers index
	// remapping and the re-apply of what changed during a compaction.
	srv, err := server.NewWithMaxRemoved(server.Config{Addr: "127.0.0.1:0", DebugAddr: "127.0.0.1:0"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	model := newDiffModel(nsubs)
	var subs []*client.Client
	var cols []*diffCollector
	for i := 0; i < nsubs; i++ {
		col := &diffCollector{ids: map[uint64]int{}}
		c, err := client.Dial(srv.Addr(), client.Options{OnDeliver: col.deliver})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		subs, cols = append(subs, c), append(cols, col)
	}
	pub := dialSub(t, srv.Addr(), nil)
	subscribe := func(i int, q string) uint64 {
		id, err := subs[i].Subscribe(q)
		if err != nil {
			t.Fatalf("subscribe %q: %v", q, err)
		}
		model.subscribe(t, i, id, q)
		return id
	}
	unsubscribe := func(i int, id uint64) {
		if err := subs[i].Unsubscribe(id); err != nil {
			t.Fatalf("unsubscribe %d: %v", id, err)
		}
		model.unsubscribe(i, id)
	}
	active := make([][]uint64, nsubs) // live variant-pool subscriptions, in subscribe order
	private := make([]uint64, nsubs)  // each subscriber's current private filter

	wantTotal := 0
	for round := 0; round < rounds; round++ {
		for i := 0; i < nsubs; i++ {
			// Maybe drop one existing subscription.
			if len(active[i]) > 0 && r.Intn(2) == 0 {
				k := r.Intn(len(active[i]))
				unsubscribe(i, active[i][k])
				active[i] = append(active[i][:k:k], active[i][k+1:]...)
			}
			// Replace this subscriber's private filter: a text no one else
			// uses, so every round is a real first-compile and, from the
			// second round on, a real last-release — the slots the
			// background compaction exists to fold away.
			id := subscribe(i, fmt.Sprintf("/a[u=%d]", round*nsubs+i))
			if round > 0 {
				unsubscribe(i, private[i])
			}
			private[i] = id
			// Add one or two fresh subscriptions drawn from the variant pools.
			for n := 1 + r.Intn(2); n > 0; n-- {
				g := diffGroups[r.Intn(len(diffGroups))]
				active[i] = append(active[i], subscribe(i, g[r.Intn(len(g))]))
			}
		}
		checkDepthBound(t, machineSnapshot(t, srv))
		for d := 0; d < docs; d++ {
			doc := randomDiffDoc(r)
			got, err := pub.Publish(doc)
			if err != nil {
				t.Fatalf("publish: %v", err)
			}
			if want := model.publish(t, doc); got != want {
				t.Fatalf("round %d doc %s: broker matched %d subscriptions, model %d",
					round, doc, got, want)
			}
			wantTotal += got
		}
	}

	// Wait for the async delivery plane to drain before comparing multisets.
	waitFor(t, "deliveries to drain", func() bool {
		got := 0
		for _, c := range cols {
			got += c.totalIDs()
		}
		return got == wantTotal
	})

	for i := 0; i < nsubs; i++ {
		gotDocs, gotIDs := cols[i].snapshot()
		wantDocs := append([]string(nil), model.docs[i]...)
		sort.Strings(wantDocs)
		if len(gotDocs) != len(wantDocs) {
			t.Fatalf("subscriber %d: broker delivered %d docs, model %d", i, len(gotDocs), len(wantDocs))
		}
		for j := range gotDocs {
			if gotDocs[j] != wantDocs[j] {
				t.Fatalf("subscriber %d: delivery multisets diverge at %d: %q vs %q",
					i, j, gotDocs[j], wantDocs[j])
			}
		}
		if len(gotIDs) != len(model.ids[i]) {
			t.Fatalf("subscriber %d: id sets differ: %v vs %v", i, gotIDs, model.ids[i])
		}
		for id, n := range gotIDs {
			if model.ids[i][id] != n {
				t.Fatalf("subscriber %d filter %d: broker count %d, model %d", i, id, n, model.ids[i][id])
			}
		}
	}

	// Compactions fired and kept the dead slots down. The last one may still
	// be in flight when the churn ends.
	waitFor(t, "compaction to settle", func() bool {
		snap := machineSnapshot(t, srv)
		return !snap.Compacting && snap.RemovedSlots <= 1
	})
	if snap := machineSnapshot(t, srv); snap.Consolidations == 0 {
		t.Fatal("the churn never triggered a compaction")
	}

	// The whole point: the broker compiled fewer machine queries than the
	// (heavily duplicated) workload has subscriptions.
	if got, want := srv.NumSubscriptions(), model.subscriptions(); got != want {
		t.Fatalf("subscription counts diverged: broker %d, model %d", got, want)
	}
	if u, n := srv.NumUniqueQueries(), model.subscriptions(); u >= n {
		t.Fatalf("broker compiled %d unique queries for %d subscriptions — no sharing happened", u, n)
	}
}
