package xpushstream

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/workload"
	"repro/internal/xpath"
)

// zipfWorkload is a broker-shaped subscription workload: `subscribers`
// subscriptions drawn zipfian over `distinct` logical filters, each
// subscription phrased as one of several textual variants (whitespace,
// duplicate predicates, conjunction splits) of its filter — the shape a real
// fleet of clients produces, where popular feeds are subscribed thousands of
// times but almost never with byte-identical query strings.
func zipfWorkload(subscribers, distinct int) []string {
	r := rand.New(rand.NewSource(42))
	zipf := rand.NewZipf(r, 1.2, 1, uint64(distinct-1))
	texts := make([]string, subscribers)
	for i := range texts {
		rank := int(zipf.Uint64())
		switch i % 4 {
		case 0:
			texts[i] = fmt.Sprintf("//item[id=%d]", rank)
		case 1:
			texts[i] = fmt.Sprintf("//item[ id = %d ]", rank)
		case 2:
			texts[i] = fmt.Sprintf("// item [id=%d]", rank)
		default:
			texts[i] = fmt.Sprintf("//item[id=%d and id=%d]", rank, rank)
		}
	}
	return texts
}

func zipfDocs(n, distinct int) [][]byte {
	r := rand.New(rand.NewSource(99))
	zipf := rand.NewZipf(r, 1.2, 1, uint64(distinct-1))
	docs := make([][]byte, n)
	for i := range docs {
		docs[i] = []byte(fmt.Sprintf("<item><id>%d</id></item>", zipf.Uint64()))
	}
	return docs
}

// zipfDedup runs the subscriptions through the broker's dedup path:
// canonicalize, register, subscribe; only first-seen canonical filters
// become machine queries (unique, with keys[i] the registry key of
// unique[i]).
func zipfDedup(b *testing.B, texts []string) (reg *workload.Dedup[int], unique []string, keys []uint64) {
	b.Helper()
	reg = workload.NewDedup[int]()
	for i, q := range texts {
		canon, err := xpath.Canonicalize(q)
		if err != nil {
			b.Fatal(err)
		}
		key, ok := reg.Resolve(canon)
		if !ok {
			key = reg.Register(canon, true)
			keys = append(keys, key)
			unique = append(unique, canon)
		}
		reg.Subscribe(key, i, false)
	}
	return reg, unique, keys
}

// runZipfianFilter measures docs/sec over the doc set plus per-subscription
// delivery accounting through the registry fan-out (nil reg = naive: every
// machine match already is a subscription).
func runZipfianFilter(b *testing.B, e *Engine, reg *workload.Dedup[int], keys []uint64, docs [][]byte) {
	b.Helper()
	deliveries := 0
	matchKeys := make([]uint64, 0, 64)
	filter := func(doc []byte) {
		m, err := e.FilterDocument(doc)
		if err != nil {
			b.Fatal(err)
		}
		if reg == nil {
			deliveries += len(m)
			return
		}
		matchKeys = matchKeys[:0]
		for _, q := range m {
			matchKeys = append(matchKeys, keys[q])
		}
		reg.Fanout(matchKeys, func(uint64, bool, int, uint64, int, bool) {
			deliveries++
		})
	}
	for _, d := range docs[:4] { // warm the lazy machine
		filter(d)
	}
	deliveries = 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		filter(docs[i%len(docs)])
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "docs/sec")
	if b.N > 0 {
		b.ReportMetric(float64(deliveries)/float64(b.N), "deliveries/doc")
	}
}

// BenchmarkZipfianSubscribers filters 50k zipfian subscriptions over 1k
// distinct filters through engines built the way the broker's subscribe path
// builds them — one WithQueries per compiled query.
//
//   - naive is the pre-dedup broker: every subscription compiles its own
//     machine query.
//   - dedup compiles one query per canonical filter and fans matches out
//     through the refcount registry; the per-subscription cost is an
//     O(matches) map walk.
//   - dedup+consolidated folds the unique queries into one machine.
//
// All sides report docs/sec including per-subscription delivery accounting.
// When WithQueries added one layer per call, naive crossed 50k machines per
// document (~21 docs/sec against ~2.8k deduped). With the size-tiered merge
// it crosses seven, and one machine shares the states of identical
// filters, so the three arms filter at the same speed (EXPERIMENTS.md has
// the table). What deduplication still buys is everything proportional to
// the number of compiled queries — BenchmarkZipfianCompaction.
func BenchmarkZipfianSubscribers(b *testing.B) {
	const (
		subscribers = 50_000
		distinct    = 1_000
		ndocs       = 256
	)
	texts := zipfWorkload(subscribers, distinct)
	docs := zipfDocs(ndocs, distinct)

	// layered replays the broker's subscribe path: one WithQueries per
	// compiled query.
	layered := func(qs []string) *Engine {
		e, err := Compile(qs[:1], Config{})
		if err != nil {
			b.Fatal(err)
		}
		for _, q := range qs[1:] {
			if e, err = e.WithQueries([]string{q}); err != nil {
				b.Fatal(err)
			}
		}
		return e
	}

	reg, unique, keys := zipfDedup(b, texts)

	// Built on first use and kept across the harness's b.N trials: 50k
	// derivations each copy the query list and tier-merge, the broker's real
	// cost of subscribing without dedup but not what this benchmark times.
	var naive *Engine
	b.Run("naive", func(b *testing.B) {
		if naive == nil {
			naive = layered(texts)
		}
		runZipfianFilter(b, naive, nil, nil, docs)
	})
	b.Run("dedup", func(b *testing.B) {
		b.Logf("compiled %d machine queries for %d subscriptions (%.0fx shared)",
			len(unique), subscribers, float64(subscribers)/float64(len(unique)))
		runZipfianFilter(b, layered(unique), reg, keys, docs)
	})
	b.Run("dedup+consolidated", func(b *testing.B) {
		e, _, err := layered(unique).Consolidated()
		if err != nil {
			b.Fatal(err)
		}
		runZipfianFilter(b, e, reg, keys, docs)
	})
}

// BenchmarkZipfianCompaction prices what workload deduplication buys on the
// same 50k-subscription workload now that filtering speed no longer depends
// on it: the cost of everything proportional to the number of compiled
// machine queries. Each arm times one Consolidated() — the recompile the
// broker's background compaction runs per 32 new filters, and the work of a
// cold boot — and reports the machine memory after the document set has
// warmed it: naive holds one machine query per subscription, dedup one per
// canonical filter. scripts/bench_gate.sh gates dedup at >= 5x cheaper to
// compact.
func BenchmarkZipfianCompaction(b *testing.B) {
	texts := zipfWorkload(50_000, 1_000)
	docs := zipfDocs(256, 1_000)
	_, unique, _ := zipfDedup(b, texts)
	for _, arm := range []struct {
		name    string
		queries []string
	}{{"naive", texts}, {"dedup", unique}} {
		b.Run(arm.name, func(b *testing.B) {
			e, err := Compile(arm.queries, Config{})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if e, _, err = e.Consolidated(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			for _, d := range docs {
				if _, err := e.FilterDocument(d); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/compaction")
			b.ReportMetric(float64(e.ApproxMemoryBytes())/(1<<20), "machine-MiB")
			b.ReportMetric(float64(len(arm.queries)), "queries")
		})
	}
}
