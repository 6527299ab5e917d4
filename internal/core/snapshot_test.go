package core

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/afa"
	"repro/internal/datagen"
	"repro/internal/workload"
	"repro/internal/xpath"
)

func TestSnapshotRoundTrip(t *testing.T) {
	doc := []byte(`<a><b>1</b><a c="3"><b>1</b></a></a>`)
	for name, opts := range allOptionCombos() {
		t.Run(name, func(t *testing.T) {
			warm := runningMachine(t, opts)
			if _, err := warm.FilterDocument(doc); err != nil {
				t.Fatal(err)
			}
			warmStates := warm.Stats().BStates
			var buf bytes.Buffer
			if ok, err := warm.WriteSnapshot(&buf, warm.NumQueries()); !ok || err != nil {
				t.Fatal(ok, err)
			}

			cold := runningMachine(t, opts)
			if err := cold.ReadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
				t.Fatal(err)
			}
			if cold.Stats().BStates != warmStates {
				t.Fatalf("restored states = %d, want %d", cold.Stats().BStates, warmStates)
			}
			// The restored machine answers correctly and — crucially —
			// without creating any new states or missing any lookups.
			l0, h0 := cold.Stats().Lookups, cold.Stats().Hits
			got, err := cold.FilterDocument(doc)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got) != "[0 1]" {
				t.Fatalf("matches = %v", got)
			}
			st := cold.Stats()
			if st.BStates != warmStates {
				t.Errorf("restored machine created states: %d -> %d", warmStates, st.BStates)
			}
			if st.Hits-h0 != st.Lookups-l0 {
				t.Errorf("restored machine missed: %d/%d", st.Hits-h0, st.Lookups-l0)
			}
		})
	}
}

// TestSnapshotChecksWorkloadSize: a machine asked for the snapshot of a
// workload it no longer holds — a splice has landed since the caller
// counted — writes nothing and says so.
func TestSnapshotChecksWorkloadSize(t *testing.T) {
	m := New(compileWorkload(t, "/a[b=1]"), Options{})
	if _, err := m.FilterDocument([]byte("<a><b>1</b></a>")); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Splice([]*xpath.Filter{xpath.MustParse("/a[c=2]")}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if ok, err := m.WriteSnapshot(&buf, 1); ok || err != nil || buf.Len() != 0 {
		t.Fatalf("snapshot for 1 filter of a 2-filter machine: ok %v, err %v, %d bytes", ok, err, buf.Len())
	}
	if ok, err := m.WriteSnapshot(&buf, 2); !ok || err != nil {
		t.Fatalf("snapshot for 2 filters: ok %v, err %v", ok, err)
	}
	if err := New(compileWorkload(t, "/a[b=1]", "/a[c=2]"), Options{}).ReadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotFingerprintMismatch(t *testing.T) {
	warm := runningMachine(t, Options{})
	if _, err := warm.FilterDocument([]byte(`<a><b>1</b></a>`)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if ok, err := warm.WriteSnapshot(&buf, warm.NumQueries()); !ok || err != nil {
		t.Fatal(ok, err)
	}
	// Different workload.
	other := New(compileWorkload(t, "/different[q=1]"), Options{})
	if err := other.ReadSnapshot(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("wrong-workload snapshot must be rejected")
	}
	// Different options.
	td := runningMachine(t, Options{TopDown: true})
	if err := td.ReadSnapshot(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("wrong-options snapshot must be rejected")
	}
}

func TestSnapshotCorruption(t *testing.T) {
	warm := runningMachine(t, Options{})
	if _, err := warm.FilterDocument([]byte(`<a><b>1</b></a>`)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if ok, err := warm.WriteSnapshot(&buf, warm.NumQueries()); !ok || err != nil {
		t.Fatal(ok, err)
	}
	data := buf.Bytes()
	// Truncations and bit flips must be rejected, never panic.
	for _, n := range []int{0, 1, 7, 8, 16, len(data) / 2, len(data) - 1} {
		m := runningMachine(t, Options{})
		if err := m.ReadSnapshot(bytes.NewReader(data[:n])); err == nil {
			t.Errorf("truncation at %d accepted", n)
		}
	}
	for _, pos := range []int{20, len(data) / 2, len(data) - 4} {
		mutated := append([]byte(nil), data...)
		mutated[pos] ^= 0xff
		m := runningMachine(t, Options{})
		if err := m.ReadSnapshot(bytes.NewReader(mutated)); err == nil {
			// A bit flip may land in a state-set payload and still
			// decode structurally; verify such a machine still
			// answers without panicking.
			if _, err := m.FilterDocument([]byte(`<a><b>1</b></a>`)); err != nil {
				t.Errorf("mutated snapshot at %d: %v", pos, err)
			}
		}
	}
	if err := runningMachine(t, Options{}).ReadSnapshot(bytes.NewReader([]byte("garbage stream"))); err == nil {
		t.Error("garbage accepted")
	}
}

// TestSnapshotTrainedMachine: the training + snapshot combination is the
// intended production flow — train once, snapshot, restart warm forever.
func TestSnapshotTrainedMachine(t *testing.T) {
	ds := datagen.ProteinLike()
	filters := workload.Generate(ds, workload.Params{Seed: 77, NumQueries: 200, MeanPreds: 3})
	build := func() *Machine {
		a, err := afa.Compile(filters)
		if err != nil {
			t.Fatal(err)
		}
		return New(a, Options{TopDown: true, Order: ds.DTD.SiblingOrder()})
	}
	trained := build()
	if err := trained.Train(workload.TrainingData(filters, ds.DTD)); err != nil {
		t.Fatal(err)
	}
	data := datagen.NewGenerator(ds, 78).GenerateBytes(128 << 10)
	if err := trained.Run(data); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if ok, err := trained.WriteSnapshot(&buf, trained.NumQueries()); !ok || err != nil {
		t.Fatal(ok, err)
	}

	restored := build()
	if err := restored.ReadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	var a, b []string
	trained.OnDocument = func(m []int32) { a = append(a, fmt.Sprint(m)) }
	restored.OnDocument = func(m []int32) { b = append(b, fmt.Sprint(m)) }
	if err := trained.Run(data); err != nil {
		t.Fatal(err)
	}
	if err := restored.Run(data); err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("doc counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("doc %d: trained %s vs restored %s", i, a[i], b[i])
		}
	}
	st := restored.Stats()
	if st.HitRatio() < 0.99 {
		t.Errorf("restored machine hit ratio %.3f", st.HitRatio())
	}
}
