package server

import (
	"testing"
	"time"

	"repro/internal/obs"
)

func mkDelivery(i int) delivery {
	return delivery{doc: []byte{byte(i)}, enq: time.Now()}
}

// drain pops everything currently queued and returns the doc tags.
func drainTags(q *queue) []byte {
	var out []byte
	for {
		select {
		case d := <-q.ch:
			out = append(out, d.doc[0])
		default:
			return out
		}
	}
}

func TestQueueDropOldest(t *testing.T) {
	var dropped obs.Counter
	q := newQueue(2, DropOldest, 0, &dropped)
	for i := 0; i < 5; i++ {
		if q.push(mkDelivery(i)) {
			t.Fatal("drop-oldest requested a disconnect")
		}
	}
	if got := drainTags(q); len(got) != 2 || got[0] != 3 || got[1] != 4 {
		t.Errorf("queue kept %v, want the newest [3 4]", got)
	}
	if n := dropped.Value(); n != 3 {
		t.Errorf("dropped %d, want 3", n)
	}
}

func TestQueueDropNewest(t *testing.T) {
	var dropped obs.Counter
	q := newQueue(2, DropNewest, 0, &dropped)
	for i := 0; i < 5; i++ {
		if q.push(mkDelivery(i)) {
			t.Fatal("drop-newest requested a disconnect")
		}
	}
	if got := drainTags(q); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("queue kept %v, want the oldest [0 1]", got)
	}
	if n := dropped.Value(); n != 3 {
		t.Errorf("dropped %d, want 3", n)
	}
}

func TestQueueBlockWaitsForSpace(t *testing.T) {
	var dropped obs.Counter
	q := newQueue(1, Block, time.Second, &dropped)
	q.push(mkDelivery(0))
	freed := make(chan struct{})
	go func() {
		time.Sleep(20 * time.Millisecond)
		<-q.ch // consumer frees a slot
		close(freed)
	}()
	start := time.Now()
	if q.push(mkDelivery(1)) {
		t.Fatal("block requested a disconnect")
	}
	<-freed
	if time.Since(start) < 10*time.Millisecond {
		t.Error("push did not block for queue space")
	}
	if n := dropped.Value(); n != 0 {
		t.Errorf("dropped %d, want 0 (lossless when space frees in time)", n)
	}
}

func TestQueueBlockDeadlineDrops(t *testing.T) {
	var dropped obs.Counter
	q := newQueue(1, Block, 10*time.Millisecond, &dropped)
	q.push(mkDelivery(0))
	if q.push(mkDelivery(1)) {
		t.Fatal("block requested a disconnect")
	}
	if n := dropped.Value(); n != 1 {
		t.Errorf("dropped %d, want 1 after the deadline expired", n)
	}
}

func TestQueueDisconnect(t *testing.T) {
	var dropped obs.Counter
	q := newQueue(1, Disconnect, 0, &dropped)
	if q.push(mkDelivery(0)) {
		t.Fatal("disconnect on a non-full queue")
	}
	if !q.push(mkDelivery(1)) {
		t.Fatal("overflow under disconnect did not request a disconnect")
	}
	if n := dropped.Value(); n != 1 {
		t.Errorf("dropped %d, want 1", n)
	}
}

func TestQueueConsumeFlushesOnClose(t *testing.T) {
	var dropped obs.Counter
	q := newQueue(8, DropNewest, 0, &dropped)
	for i := 0; i < 5; i++ {
		q.push(mkDelivery(i))
	}
	q.close()
	var got []byte
	done := make(chan struct{})
	go func() {
		defer close(done)
		q.consume(func(ds []delivery) bool {
			for _, d := range ds {
				got = append(got, d.doc[0])
			}
			return true
		})
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("consume did not exit after close")
	}
	if len(got) != 5 {
		t.Errorf("flushed %d deliveries, want 5", len(got))
	}
	for i, b := range got {
		if int(b) != i {
			t.Errorf("delivery %d out of order: got tag %d", i, b)
		}
	}
}

// TestQueueConsumeBatchesReadyItems pins the delivery-coalescing contract:
// everything queued at one wakeup reaches the deliver callback as a single
// batch (one flush on the wire), in FIFO order.
func TestQueueConsumeBatchesReadyItems(t *testing.T) {
	var dropped obs.Counter
	q := newQueue(8, DropNewest, 0, &dropped)
	for i := 0; i < 5; i++ {
		q.push(mkDelivery(i))
	}
	q.close()
	var sizes []int
	var got []byte
	done := make(chan struct{})
	go func() {
		defer close(done)
		q.consume(func(ds []delivery) bool {
			sizes = append(sizes, len(ds))
			for _, d := range ds {
				got = append(got, d.doc[0])
			}
			return true
		})
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("consume did not exit after close")
	}
	if len(sizes) != 1 || sizes[0] != 5 {
		t.Fatalf("batch sizes = %v, want one batch of 5", sizes)
	}
	for i, b := range got {
		if int(b) != i {
			t.Errorf("delivery %d out of order: got tag %d", i, b)
		}
	}
}

func TestParsePolicy(t *testing.T) {
	for _, s := range []string{"drop-oldest", "drop-newest", "block", "disconnect"} {
		if _, err := ParsePolicy(s); err != nil {
			t.Errorf("ParsePolicy(%q): %v", s, err)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Error("ParsePolicy accepted an unknown policy")
	}
}
