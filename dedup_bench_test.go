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

// BenchmarkZipfianSubscribers is the workload-deduplication headline number:
// 50k zipfian subscriptions over 1k distinct filters, filtered through the
// broker's actual subscribe path — one COW machine layer per compiled query.
//
//   - naive is the pre-dedup broker: every subscription compiles its own
//     machine query, so every document crosses 50k layers.
//   - dedup compiles one query per canonical filter and fans matches out
//     through the refcount registry: ~1k layers do the SAX work, the
//     per-subscription cost collapses to an O(matches) map walk.
//   - dedup+consolidated adds the PR's consolidation pass (the steady state
//     a churning broker converges to): all unique queries in one layer.
//
// All sides report docs/sec including per-subscription delivery accounting;
// scripts/bench_gate.sh gates dedup at >= 5x naive.
func BenchmarkZipfianSubscribers(b *testing.B) {
	const (
		subscribers = 50_000
		distinct    = 1_000
		ndocs       = 256
	)
	texts := zipfWorkload(subscribers, distinct)
	docs := zipfDocs(ndocs, distinct)

	// layered replays the broker's subscribe path: one engine layer per
	// query batch, exactly what WithQueries produces per subscribe.
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

	// Dedup setup once, shared by both dedup variants: canonicalize,
	// register, subscribe; compile only first-seen canonical filters.
	reg := workload.NewDedup[int]()
	var unique []string
	keys := make([]uint64, 0, distinct)
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

	// Built on first use and kept across the harness's b.N trials: 50k
	// derivations each copy the query list, the broker's real cost of
	// subscribing without dedup but not what this benchmark times.
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
