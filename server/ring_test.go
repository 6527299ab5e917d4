package server

import "testing"

// TestDocRingBounds: the ring holds the newest documents within both its
// count and its byte bound, and never a document larger than the byte bound.
func TestDocRingBounds(t *testing.T) {
	held := func(r *docRing) (n, bytes int) {
		for _, d := range r.docs {
			if d != nil {
				n++
				bytes += len(d)
			}
		}
		return n, bytes
	}
	var r docRing
	for i := 0; i < 3*ringDocs; i++ {
		r.add(make([]byte, 100+i))
	}
	if n, b := held(&r); n != ringDocs || b != r.bytes {
		t.Fatalf("after small documents: %d held, %d bytes counted as %d", n, b, r.bytes)
	}
	// Documents of a third of the byte bound: at most three fit.
	for i := 0; i < 5; i++ {
		r.add(make([]byte, ringBytes/3))
	}
	if n, b := held(&r); n != 3 || b > ringBytes || b != r.bytes {
		t.Fatalf("after large documents: %d held, %d bytes (counted %d), bound %d", n, b, r.bytes, ringBytes)
	}
	newest := r.docs[(r.next+ringDocs-1)%ringDocs]
	r.add(make([]byte, ringBytes+1))
	if got := r.docs[(r.next+ringDocs-1)%ringDocs]; &got[0] != &newest[0] {
		t.Fatal("an oversized document displaced the ring's newest entry")
	}
}
