package xpushstream

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
)

// holeyEngine is a warm engine whose ids have a hole (id 1, dropped by
// Consolidated) and a mask (id 4): ids [0 2 3 5] reported, 6 handed out.
func holeyEngine(t testing.TB) *Engine {
	t.Helper()
	e, err := Compile([]string{`/m[v=1]`, `/m[v=2]`, `//m[w=3]`, `/m[v=3]`}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	steps := []func(*Engine) (*Engine, error){
		func(e *Engine) (*Engine, error) { return e.WithoutQuery(1) },
		func(e *Engine) (*Engine, error) { c, _, err := e.Consolidated(); return c, err },
		func(e *Engine) (*Engine, error) { return e.WithQueries([]string{`//m[w=4]`, `/m[v=4]`}) },
		func(e *Engine) (*Engine, error) { return e.WithoutQuery(4) },
	}
	for _, step := range steps {
		if e, err = step(e); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		if _, err := e.FilterDocument([]byte(fmt.Sprintf("<m><v>%d</v><w>%d</w></m>", i%5, i%6))); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// TestWorkloadSnapshotKeepsIDs: a workload with holes and masks round-trips
// through the version 2 snapshot under the same ids, with the same
// high-water mark, so the next added filter gets the id it would have got.
func TestWorkloadSnapshotKeepsIDs(t *testing.T) {
	e := holeyEngine(t)
	if got := fmt.Sprint(e.IDs(), e.MaskedIDs(), e.NumQueries()); got != "[0 2 3 5] [4] 6" {
		t.Fatalf("engine ids, masked ids, high-water mark = %s", got)
	}
	var buf bytes.Buffer
	if err := e.WriteWorkloadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := OpenWorkloadSnapshot(&buf, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(restored.IDs(), restored.MaskedIDs(), restored.NumQueries()), fmt.Sprint(e.IDs(), e.MaskedIDs(), e.NumQueries()); got != want {
		t.Fatalf("restored ids, masked ids, high-water mark = %s, want %s", got, want)
	}
	for id := 0; id < e.NumQueries(); id++ {
		if restored.Query(id) != e.Query(id) {
			t.Errorf("id %d: restored %q, want %q", id, restored.Query(id), e.Query(id))
		}
	}
	if got := restored.Stats().States; got != e.Stats().States {
		t.Errorf("restored %d states, want %d", got, e.Stats().States)
	}
	for _, doc := range []string{`<m><v>3</v><w>3</w></m>`, `<m><v>4</v><w>4</w></m>`, `<m><v>2</v></m>`} {
		want, _ := e.FilterDocument([]byte(doc))
		if got, err := restored.FilterDocument([]byte(doc)); err != nil || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: restored matches %v (err %v), want %v", doc, got, err, want)
		}
	}
	next, err := restored.WithQueries([]string{`//x`})
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(next.IDs()); got != "[0 2 3 5 6]" {
		t.Errorf("after restore WithQueries gave ids %s, want [0 2 3 5 6]", got)
	}
}

// TestSnapshotWhileSplicing: a workload snapshot of the current
// generation, written while a writer splices the next ones into the shared
// machine, always reopens, and the reopened engine reports what the
// generation it was written from reports. Once the writer is done, the
// tip's snapshot reopens warm.
func TestSnapshotWhileSplicing(t *testing.T) {
	doc := func(i int) []byte { return fmt.Appendf(nil, "<a><b>%d</b><c>%d</c></a>", i%97, i%5) }
	query := func(i int) string { return fmt.Sprintf("/a[b=%d and c!=%d]", i, i%3) }
	var qs []string
	for i := range 60 {
		qs = append(qs, query(i))
	}
	e, err := Compile(qs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var tip atomic.Pointer[Engine]
	tip.Store(e)
	done := make(chan error, 1)
	go func() {
		for i := 60; i < 400; i++ {
			n, err := tip.Load().WithQueries([]string{query(i)})
			if err == nil {
				_, err = n.FilterDocument(doc(i))
			}
			if err != nil {
				done <- err
				return
			}
			tip.Store(n)
		}
		done <- nil
	}()
	check := func(g *Engine) *Engine {
		t.Helper()
		var buf bytes.Buffer
		if err := g.WriteWorkloadSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		r, err := OpenWorkloadSnapshot(&buf, Config{})
		if err != nil {
			t.Fatalf("snapshot of a %d-filter generation does not reopen: %v", g.NumQueries(), err)
		}
		for i := range 5 {
			got, err1 := r.FilterDocument(doc(i))
			want, err2 := g.FilterDocument(doc(i))
			if err1 != nil || err2 != nil || !slices.Equal(got, want) {
				t.Fatalf("document %d: reopened %v (%v), written %v (%v)", i, got, err1, want, err2)
			}
		}
		return r
	}
	writes := 0
	for running := true; running; writes++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			running = false
		default:
		}
		check(tip.Load())
	}
	if r := check(tip.Load()); r.Stats().States <= 1 {
		t.Errorf("the tip's snapshot reopened cold (%d states) with no splice in flight", r.Stats().States)
	}
	t.Logf("%d snapshots written during the splices", writes)
}

// le encodes little-endian u64s.
func le(vs ...uint64) []byte {
	var out []byte
	for _, v := range vs {
		out = binary.LittleEndian.AppendUint64(out, v)
	}
	return out
}

// TestOpenWorkloadSnapshotCorruptLengths: a short file whose counts or
// lengths claim far more than it holds fails with an error, having
// allocated about what it holds — not the layer table, query table or
// machine buffer its header asks for (384 MiB, 256 MiB and 8 GiB here).
func TestOpenWorkloadSnapshotCorruptLengths(t *testing.T) {
	for _, v := range []struct {
		magic string
		hw    []byte
	}{{"XPWSNAP1", nil}, {"XPWSNAP2", le(1)}} {
		head := append([]byte(v.magic), v.hw...)
		for name, body := range map[string][]byte{
			"layers":  le(1 << 24),
			"queries": le(1, 1<<24),
			"machine": append(append(le(1, 1, 0, 3), "//a"...), append([]byte{0}, le(1, 1<<33)...)...),
		} {
			data := append(append([]byte(nil), head...), body...)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := OpenWorkloadSnapshot(bytes.NewReader(data), Config{})
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Errorf("%s %s (%d bytes): opened", v.magic, name, len(data))
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
				t.Errorf("%s %s (%d bytes): allocated %d MiB before failing", v.magic, name, len(data), grew>>20)
			}
		}
	}
}

// FuzzOpenWorkloadSnapshot throws corrupt workload snapshots at the reader.
// Its property: OpenWorkloadSnapshot returns an error, or an engine that
// filters a fixed document without panicking and reports only ids it holds
// unmasked.
func FuzzOpenWorkloadSnapshot(f *testing.F) {
	v1, err := os.ReadFile("testdata/pr18_three_layers.xpw")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v1)
	var v2 bytes.Buffer
	if err := holeyEngine(f).WriteWorkloadSnapshot(&v2); err != nil {
		f.Fatal(err)
	}
	f.Add(v2.Bytes())
	doc := []byte(`<m><v>3</v><w>3</w><w>7</w></m>`)
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := OpenWorkloadSnapshot(bytes.NewReader(data), Config{})
		if err != nil {
			return
		}
		got, err := e.FilterDocument(doc)
		if err != nil {
			return
		}
		live := e.IDs()
		for _, id := range got {
			if _, ok := slices.BinarySearch(live, id); !ok {
				t.Fatalf("reported id %d, engine reports %v", id, live)
			}
		}
	})
}
