package server

import (
	"fmt"
	"math/rand"
	"net"
	"testing"
)

// TestRegistryKeysAreEngineIDs churns subscriptions over a small filter pool
// (so released filters come back) with compactions forced in the background
// while the churn goes on. After every operation the dedup registry's keys
// must be exactly the ids the current engine reports, each with the same
// canonical text, and a released key must never be handed out again — a
// filter subscribed after its release gets a fresh id. Every probe publish
// must match exactly the subscriptions the model holds on its filter.
func TestRegistryKeysAreEngineIDs(t *testing.T) {
	var boot []string
	for i := 0; i < 20; i++ {
		boot = append(boot, fmt.Sprintf("/boot[q=%d]", i))
	}
	// No removal threshold: compaction runs only when the test forces it, and
	// the churn between two forced ones stays under the tail bound.
	s, err := newServer(Config{InitialQueries: boot}, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	nc, peer := net.Pipe()
	defer nc.Close()
	defer peer.Close()
	cn := s.newConn(nc)

	const pool, ops, compactEvery = 12, 400, 25
	query := func(i int) string { return fmt.Sprintf("/probe[q=%d]", i) }
	subsOn := make([]int, pool)     // model: live subscriptions per pool filter
	var live []struct{ sub, i int } // live subscription ids and their filters
	seen := map[uint64]string{}     // every key ever registered -> its text
	released := map[uint64]bool{}
	check := func(op int) {
		t.Helper()
		s.ctl.Lock()
		e, keys := s.cur.Load(), s.subs.Canons()
		s.ctl.Unlock()
		ids := e.IDs()
		if len(ids) != len(keys) {
			t.Fatalf("op %d: engine reports %d ids, registry holds %d keys", op, len(ids), len(keys))
		}
		for _, id := range ids {
			key := uint64(id)
			canon, ok := keys[key]
			if !ok || e.Query(id) != canon {
				t.Fatalf("op %d: engine id %d (%q) is registry key %v with text %q", op, id, e.Query(id), ok, canon)
			}
			if released[key] {
				t.Fatalf("op %d: released key %d handed out again", op, key)
			}
			if prev, ok := seen[key]; ok && prev != canon {
				t.Fatalf("op %d: key %d was %q, is %q", op, key, prev, canon)
			}
			seen[key] = canon
		}
		for key := range seen {
			if _, ok := keys[key]; !ok {
				released[key] = true
			}
		}
		if uint64(e.NumQueries()) < uint64(len(seen)) {
			t.Fatalf("op %d: NumQueries %d below the %d keys handed out", op, e.NumQueries(), len(seen))
		}
	}

	r := rand.New(rand.NewSource(30))
	compactions := 0
	var done chan bool
	for op := 0; op < ops; op++ {
		if op%compactEvery == 0 {
			if done != nil && !<-done {
				t.Fatalf("op %d: forced compaction failed", op)
			}
			done = make(chan bool, 1)
			go func() { done <- s.compact() }()
			compactions++
		}
		if len(live) > 0 && r.Intn(2) == 0 {
			k := r.Intn(len(live))
			if err := s.unsubscribe(cn, uint64(live[k].sub)); err != nil {
				t.Fatal(err)
			}
			subsOn[live[k].i]--
			live = append(live[:k], live[k+1:]...)
		} else {
			i := r.Intn(pool)
			sub, err := s.subscribe(cn, query(i), false)
			if err != nil {
				t.Fatal(err)
			}
			subsOn[i]++
			live = append(live, struct{ sub, i int }{int(sub), i})
		}
		check(op)
		i := r.Intn(pool)
		if n, err := s.publish([]byte(fmt.Sprintf("<probe><q>%d</q></probe>", i)), nil, 0); err != nil || n != subsOn[i] {
			t.Fatalf("op %d: probe %d matched %d (err %v), want %d", op, i, n, err, subsOn[i])
		}
	}
	if !<-done {
		t.Fatal("last forced compaction failed")
	}
	check(ops)
	if got := s.consolidations.Load(); got != int64(compactions) {
		t.Fatalf("%d compactions swapped in, %d forced", got, compactions)
	}
	if len(released) == 0 {
		t.Fatal("vacuous: no key was released")
	}
}
