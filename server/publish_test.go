package server

import "testing"

// TestPublishAllocs pins what one untraced publish allocates on a broker with
// a boot-pinned filter and no subscriber (so no queue, and no goroutine but
// the test's allocates while it counts): nothing at all, whether the document
// matches the filter or not. The matched keys go from the machine into a
// buffer on publish's stack, with no copy or conversion in between.
func TestPublishAllocs(t *testing.T) {
	s, err := newServer(Config{InitialQueries: []string{"//order[total > 1000]"}}, 0, compactRemovedSlots)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, tc := range []struct {
		name    string
		doc     []byte
		matches int
	}{
		{"miss", []byte("<order><total>5</total></order>"), 0},
		{"match", []byte("<order><total>2500</total></order>"), 1},
	} {
		for i := 0; i < 5; i++ { // warm the machine's tables and the driver's buffers
			if _, err := s.publish(tc.doc, nil, 0); err != nil {
				t.Fatal(err)
			}
		}
		var n int
		allocs := testing.AllocsPerRun(200, func() {
			n, err = s.publish(tc.doc, nil, 0)
		})
		if err != nil || n != tc.matches {
			t.Fatalf("%s: publish matched %d (err %v), want %d", tc.name, n, err, tc.matches)
		}
		if allocs != 0 {
			t.Errorf("%s: publish allocates %.2f times per document, want 0", tc.name, allocs)
		}
	}
}
