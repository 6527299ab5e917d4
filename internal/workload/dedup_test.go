package workload

import (
	"fmt"
	"sync"
	"testing"
)

func TestDedupShareAndRelease(t *testing.T) {
	d := NewDedup[string]()
	key := d.Register("/a[b]", true)
	if got, ok := d.Resolve("/a[b]"); !ok || got != key {
		t.Fatalf("Resolve = %d,%v want %d,true", got, ok, key)
	}

	s1, reused := d.Subscribe(key, "alice", false)
	if reused {
		t.Fatal("first subscription reported reused")
	}
	s2, reused := d.Subscribe(key, "bob", true)
	if !reused {
		t.Fatal("second subscription not reported reused")
	}
	if s1 == s2 {
		t.Fatal("subscription ids collide")
	}
	if d.UniqueQueries() != 1 || d.Subscriptions() != 2 || d.Hits() != 1 {
		t.Fatalf("stats = %d unique, %d subs, %d hits; want 1,2,1",
			d.UniqueQueries(), d.Subscriptions(), d.Hits())
	}

	// Wrong owner cannot unsubscribe someone else's id.
	if _, _, err := d.Unsubscribe(s1, "mallory"); err == nil {
		t.Fatal("foreign unsubscribe succeeded")
	}

	if _, last, err := d.Unsubscribe(s1, "alice"); err != nil || last {
		t.Fatalf("first unsubscribe: last=%v err=%v", last, err)
	}
	gotKey, last, err := d.Unsubscribe(s2, "bob")
	if err != nil || !last || gotKey != key {
		t.Fatalf("last unsubscribe: key=%d last=%v err=%v", gotKey, last, err)
	}
	if _, ok := d.Resolve("/a[b]"); ok {
		t.Fatal("entry still resolvable after release")
	}
	if d.UniqueQueries() != 0 || d.Subscriptions() != 0 {
		t.Fatalf("registry not empty after release")
	}
}

func TestDedupPinKeepsEntryAlive(t *testing.T) {
	d := NewDedup[string]()
	key := d.Register("/boot", true)
	d.Pin(key)
	s, reused := d.Subscribe(key, "a", false)
	if !reused {
		t.Fatal("subscription to pinned entry should count as reuse")
	}
	if _, last, err := d.Unsubscribe(s, "a"); err != nil || last {
		t.Fatalf("pinned entry released: last=%v err=%v", last, err)
	}
	if d.UniqueQueries() != 1 {
		t.Fatal("pinned entry dropped")
	}
	// Pinned entries with no subscribers still fan out as one match.
	count := 0
	d.Fanout([]uint64{key}, func(_ uint64, pinned bool, nsubs int, _ uint64, _ string, _ bool) {
		if !pinned || nsubs != 0 {
			t.Fatalf("pinned fanout: pinned=%v nsubs=%d", pinned, nsubs)
		}
		count++
	})
	if count != 1 {
		t.Fatalf("pinned fanout visits = %d, want 1", count)
	}
}

func TestDedupUnsharedNeverCoalesces(t *testing.T) {
	d := NewDedup[string]()
	k1 := d.Register("/a", false)
	if _, ok := d.Resolve("/a"); ok {
		t.Fatal("unshared entry resolvable")
	}
	k2 := d.Register("/a", false)
	if k1 == k2 {
		t.Fatal("unshared entries share a key")
	}
	if _, reused := d.Subscribe(k2, "a", false); reused {
		t.Fatal("unshared subscribe counted as reuse")
	}
	if d.Hits() != 0 {
		t.Fatal("unshared path counted dedup hits")
	}
}

func TestDedupUnsubscribeOwner(t *testing.T) {
	d := NewDedup[string]()
	ka := d.Register("/a", true)
	kb := d.Register("/b", true)
	d.Subscribe(ka, "alice", false)
	d.Subscribe(ka, "bob", false)
	d.Subscribe(kb, "alice", true)
	released := d.UnsubscribeOwner("alice")
	if len(released) != 1 || released[0] != kb {
		t.Fatalf("released = %v, want [%d]", released, kb)
	}
	if d.Subscriptions() != 1 || d.UniqueQueries() != 1 {
		t.Fatalf("after owner teardown: %d subs, %d unique; want 1,1",
			d.Subscriptions(), d.UniqueQueries())
	}
}

func TestDedupFanoutSkipsUnknownKeys(t *testing.T) {
	d := NewDedup[string]()
	key := d.Register("/a", true)
	d.Subscribe(key, "a", false)
	visits := 0
	d.Fanout([]uint64{key, 999}, func(uint64, bool, int, uint64, string, bool) { visits++ })
	if visits != 1 {
		t.Fatalf("visits = %d, want 1", visits)
	}
}

// TestDedupConcurrentChurn follows the registry's concurrency contract:
// control-plane calls are serialised by one mutex (the server's ctl), while
// Fanout runs outside it, concurrently with everyone else's churn and on
// keys that may have been released meanwhile.
func TestDedupConcurrentChurn(t *testing.T) {
	d := NewDedup[int]()
	const owners = 8
	var ctl sync.Mutex
	var wg sync.WaitGroup
	for o := 0; o < owners; o++ {
		wg.Add(1)
		go func(owner int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				canon := fmt.Sprintf("/q%d", i%5)
				ctl.Lock()
				key, ok := d.Resolve(canon)
				if !ok {
					key = d.Register(canon, true)
				}
				sub, _ := d.Subscribe(key, owner, i%2 == 0)
				ctl.Unlock()
				d.Fanout([]uint64{key}, func(uint64, bool, int, uint64, int, bool) {})
				if i%3 == 0 {
					ctl.Lock()
					d.Unsubscribe(sub, owner)
					ctl.Unlock()
				}
			}
			ctl.Lock()
			d.UnsubscribeOwner(owner)
			ctl.Unlock()
		}(o)
	}
	wg.Wait()
	if d.Subscriptions() != 0 {
		t.Fatalf("subscriptions leaked: %d", d.Subscriptions())
	}
}

// TestAppendOwnerSubs: an owner's durable (or ephemeral) subscriptions on
// the given keys are appended after what dst holds, keys no longer live are
// skipped, and a reused dst with room takes them without allocating.
func TestAppendOwnerSubs(t *testing.T) {
	d := NewDedup[string]()
	k1, k2 := d.Register("/a", true), d.Register("/b", true)
	a1, _ := d.Subscribe(k1, "alice", true)
	d.Subscribe(k1, "alice", false)
	d.Subscribe(k1, "bob", true)
	a2, _ := d.Subscribe(k2, "alice", true)

	got := d.AppendOwnerSubs([]uint64{99}, []uint64{k1, k2, 1 << 40}, "alice", true)
	if len(got) != 3 || got[0] != 99 || got[1] != a1 || got[2] != a2 {
		t.Fatalf("AppendOwnerSubs = %v, want [99 %d %d]", got, a1, a2)
	}
	buf := make([]uint64, 0, 4)
	if n := testing.AllocsPerRun(100, func() {
		buf = d.AppendOwnerSubs(buf[:0], []uint64{k1, k2}, "alice", true)
	}); n != 0 {
		t.Fatalf("AppendOwnerSubs into a reused slice allocates %v times", n)
	}
}
