package workload

import (
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dtd"
	"repro/internal/naive"
	"repro/internal/sax"
	"repro/internal/xpath"
)

func TestGenerateBasics(t *testing.T) {
	ds := datagen.ProteinLike()
	fs := Generate(ds, Params{Seed: 1, NumQueries: 500, MeanPreds: 1.15})
	if len(fs) != 500 {
		t.Fatalf("queries = %d", len(fs))
	}
	total := TotalAtomicPredicates(fs)
	mean := float64(total) / float64(len(fs))
	if mean < 1.0 || mean > 1.4 {
		t.Errorf("mean preds = %.2f, want ≈1.15", mean)
	}
	for _, f := range fs[:20] {
		if _, err := xpath.Parse(f.String()); err != nil {
			t.Errorf("round trip of %s: %v", f.Source, err)
		}
	}
}

func TestGenerateMeanPredsHigh(t *testing.T) {
	ds := datagen.ProteinLike()
	fs := Generate(ds, Params{Seed: 2, NumQueries: 300, MeanPreds: 10.45, NestedPredProb: 0.3})
	mean := float64(TotalAtomicPredicates(fs)) / float64(len(fs))
	if mean < 8.5 || mean > 12.5 {
		t.Errorf("mean preds = %.2f, want ≈10.45", mean)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	ds := datagen.NASALike()
	p := Params{Seed: 9, NumQueries: 50, MeanPreds: 3, DescendantProb: 0.2, WildcardProb: 0.1}
	a := Generate(ds, p)
	b := Generate(ds, p)
	for i := range a {
		if a[i].Source != b[i].Source {
			t.Fatalf("nondeterministic at %d: %s vs %s", i, a[i].Source, b[i].Source)
		}
	}
}

func TestGenerateWildcardsAndDescendants(t *testing.T) {
	ds := datagen.ProteinLike()
	fs := Generate(ds, Params{Seed: 3, NumQueries: 200, MeanPreds: 1, WildcardProb: 0.5, DescendantProb: 0.5})
	stars, descs := 0, 0
	for _, f := range fs {
		if strings.Contains(f.Source, "*") {
			stars++
		}
		if strings.Contains(f.Source, "//") {
			descs++
		}
	}
	if stars < 20 || descs < 50 {
		t.Errorf("wildcards=%d descendants=%d, too few", stars, descs)
	}
}

func TestGeneratedQueriesMatchData(t *testing.T) {
	// Predicates are drawn from the data pools, so a decent fraction of
	// queries should match a reasonably large generated stream.
	ds := datagen.ProteinLike()
	fs := Generate(ds, Params{Seed: 4, NumQueries: 60, MeanPreds: 1})
	data := datagen.NewGenerator(ds, 5).GenerateBytes(400 << 10)
	e := naive.NewEngine(fs)
	got, err := e.FilterDocument(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Error("no generated query matched the generated data")
	}
}

func TestTrainingDataSatisfiesConjunctiveFilters(t *testing.T) {
	// For not-free filters, the training document of a filter should
	// match that filter (predicates replaced by satisfying values, paths
	// expanded via the DTD).
	ds := datagen.ProteinLike()
	fs := Generate(ds, Params{Seed: 6, NumQueries: 120, MeanPreds: 4, NestedPredProb: 0.3, DescendantProb: 0.2, WildcardProb: 0.1})
	matched, generated := 0, 0
	for _, f := range fs {
		data := TrainingData([]*xpath.Filter{f}, ds.DTD)
		if len(data) == 0 {
			continue
		}
		generated++
		docs, err := naive.Build(data)
		if err != nil {
			t.Fatalf("training doc for %s unparsable: %v\n%s", f.Source, err, data)
		}
		for _, d := range docs {
			if naive.Matches(f, d) {
				matched++
				break
			}
		}
	}
	if generated < 100 {
		t.Errorf("training generated only %d/120 docs", generated)
	}
	if matched < generated*9/10 {
		t.Errorf("only %d/%d training docs match their filter", matched, generated)
	}
}

func TestTrainingDataParses(t *testing.T) {
	ds := datagen.NASALike()
	fs := Generate(ds, Params{Seed: 7, NumQueries: 80, MeanPreds: 5, NestedPredProb: 0.4})
	data := TrainingData(fs, ds.DTD)
	var c sax.Collector
	if err := sax.ParseBytes(data, &c); err != nil {
		t.Fatalf("training data unparsable: %v", err)
	}
	docs := 0
	for _, e := range c.Events {
		if e.Kind == sax.StartDocument {
			docs++
		}
	}
	if docs < 60 {
		t.Errorf("training docs = %d, want most of 80", docs)
	}
}

func TestTrainingOrderRespectsDTD(t *testing.T) {
	// The Sec. 5 example: b and d swapped when the DTD requires d first.
	ds := &datagen.Dataset{
		Name: "toy",
		DTD: dtd.MustParse(`
<!ELEMENT a (d?, b?)>
<!ELEMENT b (#PCDATA)>
<!ELEMENT d (#PCDATA)>
<!ATTLIST a c CDATA #IMPLIED>
`),
		Pools: map[string]*datagen.Pool{},
	}
	f := xpath.MustParse(`/a[(b/text()=3 and @c=4) or d/text()=5]`)
	data := string(TrainingData([]*xpath.Filter{f}, ds.DTD))
	// Expected: <a c="4"> <d>5</d> <b>3</b> </a> — d before b.
	bi, di := strings.Index(data, "<b>"), strings.Index(data, "<d>")
	if bi < 0 || di < 0 || di > bi {
		t.Errorf("training doc order wrong: %s", data)
	}
	if !strings.Contains(data, `c="4"`) {
		t.Errorf("attribute not materialised: %s", data)
	}
}
