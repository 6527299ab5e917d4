package bench

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/datagen"
)

func smokeRunner(t *testing.T) (*Runner, *bytes.Buffer) {
	t.Helper()
	var buf bytes.Buffer
	return NewRunner(datagen.ProteinLike(), Scales["smoke"], &buf), &buf
}

func TestAllFiguresSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke sweep is seconds-long")
	}
	r, buf := smokeRunner(t)
	if err := r.All(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Fig 5(a)", "Fig 8", "Fig 11(b)", "Abstract"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	if strings.Contains(out, " ?") {
		t.Errorf("unknown metric leaked:\n%s", out)
	}
}

func TestSweepCacheReuse(t *testing.T) {
	r, _ := smokeRunner(t)
	if err := r.Figure("5a"); err != nil {
		t.Fatal(err)
	}
	first := r.cache["q115"]
	if err := r.Figure("6a"); err != nil {
		t.Fatal(err)
	}
	if &r.cache["q115"][0] != &first[0] {
		t.Error("figures 5a and 6a must share one sweep")
	}
}

func TestWriteCSV(t *testing.T) {
	r, _ := smokeRunner(t)
	if err := r.Figure("5a"); err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := r.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) < 3 || !strings.HasPrefix(lines[0], "sweep,series,x,") {
		t.Errorf("csv:\n%s", csv.String())
	}
	if !strings.Contains(csv.String(), "q115,basic,") {
		t.Errorf("csv missing basic series:\n%s", lines[1])
	}
}

func TestUnknownFigure(t *testing.T) {
	r, _ := smokeRunner(t)
	if err := r.Figure("99z"); err == nil {
		t.Error("unknown figure must error")
	}
}

func TestShapeOptimizationsReduceStates(t *testing.T) {
	// The core qualitative claim of Figs. 6/7: on a predicate-heavy
	// workload, td-order reduces both the state count and the average
	// state size versus basic.
	ds := datagen.ProteinLike()
	rows, err := SweepQueries(ds, []int{300}, 10.45, 256<<10, nil)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Row{}
	for _, row := range rows {
		byName[row.Series] = row
	}
	basic, tdOrder := byName["basic"], byName["td-order"]
	if tdOrder.States >= basic.States {
		t.Errorf("td-order states %d !< basic %d", tdOrder.States, basic.States)
	}
	if tdOrder.AvgSize >= basic.AvgSize {
		t.Errorf("td-order avg size %.1f !< basic %.1f", tdOrder.AvgSize, basic.AvgSize)
	}
	// All variants agree on the number of matches (correctness across
	// optimization stacks on real workloads).
	for name, row := range byName {
		if name == "parse" {
			continue
		}
		if row.Matches != basic.Matches {
			t.Errorf("%s matches %d != basic %d", name, row.Matches, basic.Matches)
		}
	}
}

func TestShapeTheorem62(t *testing.T) {
	// Fig. 10(a)'s shape: with total atomic predicates fixed, more
	// predicates per query means fewer states (with order optimization).
	ds := datagen.ProteinLike()
	rows, err := SweepPreds(ds, []int{1, 10}, 2000, 256<<10, nil)
	if err != nil {
		t.Fatal(err)
	}
	states := map[float64]int{}
	for _, row := range rows {
		if row.Series == "td-order-train" {
			states[row.X] = row.States
		}
	}
	if states[10] >= states[1] {
		t.Errorf("k=10 states %d !< k=1 states %d", states[10], states[1])
	}
}

func TestShapeHitRatioRises(t *testing.T) {
	// Fig. 8's shape: the hit ratio climbs above 90% as data flows.
	ds := datagen.ProteinLike()
	rows, err := SweepData(ds, []int{400}, 256<<10, 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	last := rows[len(rows)-1]
	if last.HitRatio < 0.9 {
		t.Errorf("final hit ratio %.3f < 0.9", last.HitRatio)
	}
	if rows[0].HitRatio > last.HitRatio {
		t.Errorf("hit ratio fell: %.3f -> %.3f", rows[0].HitRatio, last.HitRatio)
	}
}

func TestAbstractMeasurement(t *testing.T) {
	res, err := Abstract(datagen.ProteinLike(), 400, 1, 256<<10)
	if err != nil {
		t.Fatal(err)
	}
	if res.WarmMBPerSec <= 0 || res.ColdMBPerSec <= 0 {
		t.Errorf("throughput not measured: %+v", res)
	}
	// The warm pass skips lazy state construction: it runs on the states
	// the cold pass built and adds none. (Its speed against the cold pass
	// is the figure's to report; timed inside a parallel test run it says
	// more about the other packages' tests than about the machine.)
	cold, warm := res.ColdStats, res.WarmStats
	if warm.BStates != cold.BStates || warm.TStates != cold.TStates || warm.Flushes != cold.Flushes {
		t.Errorf("warm pass built states: bottom-up %d -> %d, top-down %d -> %d, flushes %d -> %d",
			cold.BStates, warm.BStates, cold.TStates, warm.TStates, cold.Flushes, warm.Flushes)
	}
	if warm.Docs <= cold.Docs {
		t.Errorf("warm pass ran no documents: %d after the cold pass, %d after the warm one", cold.Docs, warm.Docs)
	}
}

func TestScalesDefined(t *testing.T) {
	for _, name := range []string{"smoke", "default", "paper"} {
		s, ok := Scales[name]
		if !ok {
			t.Fatalf("scale %s missing", name)
		}
		if len(s.QueryCounts) == 0 || s.DataBytes == 0 || s.Chunks == 0 {
			t.Errorf("scale %s incomplete: %+v", name, s)
		}
	}
	if Scales["paper"].QueryCounts[3] != 200000 {
		t.Error("paper scale must reach 200k queries")
	}
}
