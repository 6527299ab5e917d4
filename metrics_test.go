package xpushstream

import (
	"strings"
	"testing"
)

func TestEngineStatsObservability(t *testing.T) {
	e, err := Compile([]string{"/m[v=1]", "/m[v=2]"}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	stream := strings.Repeat("<m><v>1</v></m>", 100)
	if err := e.FilterStreaming(strings.NewReader(stream), func([]int) {}); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.Documents != 100 {
		t.Errorf("documents = %d", s.Documents)
	}
	if s.Bytes != int64(len(stream)) {
		t.Errorf("bytes = %d, want %d", s.Bytes, len(stream))
	}
	if s.FilterLatency.Count != 100 {
		t.Errorf("latency observations = %d", s.FilterLatency.Count)
	}
	sum := s.LatencySummary()
	if sum.P50 <= 0 || sum.Max < sum.P50 || sum.P99 < sum.P50 {
		t.Errorf("implausible latency summary: %+v", sum)
	}
}

func TestRegisterMetricsPrometheusOutput(t *testing.T) {
	e, err := Compile([]string{"//order[total > 10]"}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := e.FilterDocument([]byte("<order><total>50</total></order>")); err != nil {
			t.Fatal(err)
		}
	}
	reg := NewRegistry()
	RegisterMetrics(reg, "", e)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"xpush_documents_total 10",
		"xpush_matches_total 10",
		"xpush_events_total ",
		"xpush_bytes_total ",
		"xpush_hit_ratio ",
		"xpush_skipped_elements_total 0", // the // step can match any element
		"# TYPE xpush_filter_latency_seconds summary",
		`xpush_filter_latency_seconds{quantile="0.5"}`,
		`xpush_filter_latency_seconds{quantile="0.99"}`,
		"xpush_filter_latency_seconds_count 10",
		"xpush_filter_latency_max_seconds ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q\n%s", want, out)
		}
	}
}
