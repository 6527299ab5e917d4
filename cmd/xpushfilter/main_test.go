package main

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunEndToEnd(t *testing.T) {
	queries := writeFile(t, "q.txt", `
# comment line
//order[total>100]
//order[@priority="high"]

/note
`)
	xml := writeFile(t, "s.xml",
		`<order priority="high"><total>250</total></order><note>n</note><order><total>5</total></order>`)
	var out strings.Builder
	if err := run([]string{"-queries", queries, "-xml", xml, "-stats", "-topdown"}, nil, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"document 1: 2 match(es) [0 1]",
		"document 2: 1 match(es) [2]",
		"document 3: 0 match(es)",
		"documents=3",
		"hit-ratio=",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunTrace(t *testing.T) {
	queries := writeFile(t, "q.txt", "//order[total>100]\n")
	xml := writeFile(t, "s.xml", `<order><total>250</total></order><order><total>5</total></order>`)
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	var out strings.Builder
	if err := run([]string{"-queries", queries, "-xml", xml, "-trace", tracePath}, nil, &out); err != nil {
		t.Fatal(err)
	}
	// Matching output is unchanged under tracing.
	for _, want := range []string{"document 1: 1 match(es) [0]", "document 2: 0 match(es)"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
	// The trace file is a Chrome trace_event array with one "document" root
	// per document and one filter child span each, which carries the layer
	// count.
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatalf("trace file is not a JSON array: %v\n%s", err, raw)
	}
	counts := map[string]int{}
	for _, ev := range events {
		name, _ := ev["name"].(string)
		if ev["ph"] == "M" { // metadata: the row labels
			continue
		}
		counts[name]++
		if args, _ := ev["args"].(map[string]any); name == "filter" && (args["events"] == nil || args["states_created"] == nil) {
			t.Errorf("filter span args %v, want the machine's events and states_created", args)
		}
	}
	if counts["document"] != 2 || counts["filter"] != 2 || len(counts) != 2 {
		t.Errorf("span counts = %v, want 2 document and 2 filter", counts)
	}
}

func TestRunStatsFormats(t *testing.T) {
	queries := writeFile(t, "q.txt", "//order[total>100]\n")
	xml := writeFile(t, "s.xml", `<order><total>250</total></order><order><total>5</total></order>`)

	var text strings.Builder
	if err := run([]string{"-queries", queries, "-xml", xml, "-stats"}, nil, &text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "doc latency p50=") {
		t.Errorf("text stats missing latency line:\n%s", text.String())
	}

	var jsonOut strings.Builder
	if err := run([]string{"-queries", queries, "-xml", xml, "-stats", "-stats-format", "json"}, nil, &jsonOut); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"Documents": 2`, `"LatencySummary"`, `"P99"`, `"Bytes"`} {
		if !strings.Contains(jsonOut.String(), want) {
			t.Errorf("json stats missing %q:\n%s", want, jsonOut.String())
		}
	}

	var prom strings.Builder
	if err := run([]string{"-queries", queries, "-xml", xml, "-stats", "-stats-format", "prom"}, nil, &prom); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"xpush_documents_total 2", `xpush_filter_latency_seconds{quantile="0.99"}`} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("prom stats missing %q:\n%s", want, prom.String())
		}
	}

	if err := run([]string{"-queries", queries, "-xml", xml, "-stats", "-stats-format", "bogus"}, nil, &strings.Builder{}); err == nil {
		t.Error("bogus -stats-format must fail")
	}
}

func TestRunShowQueries(t *testing.T) {
	queries := writeFile(t, "q.txt", "/a[b=1]\n")
	var out strings.Builder
	err := run([]string{"-queries", queries, "-show-queries"},
		strings.NewReader("<a><b>1</b></a>"), &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "[0] /a[b=1]") {
		t.Errorf("show-queries output:\n%s", out.String())
	}
}

func TestRunWithDTDAndTraining(t *testing.T) {
	queries := writeFile(t, "q.txt", "/m[v=1]\n")
	dtd := writeFile(t, "s.dtd", "<!ELEMENT m (v)><!ELEMENT v (#PCDATA)>")
	var out strings.Builder
	err := run([]string{"-queries", queries, "-dtd", dtd, "-order", "-train", "-stats"},
		strings.NewReader("<m><v>1</v></m>"), &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "document 1: 1 match(es)") {
		t.Errorf("output:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{}, nil, &strings.Builder{}); err == nil {
		t.Error("missing -queries must fail")
	}
	empty := writeFile(t, "empty.txt", "# only comments\n")
	if err := run([]string{"-queries", empty}, nil, &strings.Builder{}); err == nil {
		t.Error("empty queries file must fail")
	}
	bad := writeFile(t, "bad.txt", "not an xpath\n")
	if err := run([]string{"-queries", bad}, nil, &strings.Builder{}); err == nil {
		t.Error("bad query must fail")
	}
	good := writeFile(t, "good.txt", "/a\n")
	if err := run([]string{"-queries", good, "-order"}, nil, &strings.Builder{}); err == nil {
		t.Error("-order without -dtd must fail")
	}
	if err := run([]string{"-queries", good, "-xml", "/nonexistent.xml"}, nil, &strings.Builder{}); err == nil {
		t.Error("missing xml file must fail")
	}
	if err := run([]string{"-queries", good, "-strict"},
		strings.NewReader("<a>x<b/>y</a>"), &strings.Builder{}); err == nil {
		t.Error("strict mixed content must fail")
	}
}

func TestRunMaxDocBytes(t *testing.T) {
	queries := writeFile(t, "q.txt", "//order\n")
	small := `<order><total>1</total></order>`
	big := `<order><pad>` + strings.Repeat("x", 512) + `</pad></order>`

	// Within the bound the streaming path behaves like the buffered one.
	var out strings.Builder
	if err := run([]string{"-queries", queries, "-max-doc-bytes", "256"},
		strings.NewReader(small+small), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "document 2: 1 match(es)") {
		t.Errorf("bounded run output:\n%s", out.String())
	}

	// An oversized document fails with a clean parse error, not an OOM.
	err := run([]string{"-queries", queries, "-max-doc-bytes", "256"},
		strings.NewReader(big), &strings.Builder{})
	if err == nil {
		t.Fatal("oversized document passed -max-doc-bytes")
	}
	if !strings.Contains(err.Error(), "size bound") {
		t.Errorf("error %q does not mention the size bound", err)
	}
}

// TestRunStreamsUnboundedInput: on an input that has not ended (a pipe whose
// writer is still open) each document's line comes out as soon as the
// document is in, not at the end of the stream.
func TestRunStreamsUnboundedInput(t *testing.T) {
	queries := writeFile(t, "q.txt", "//order[total>100]\n")
	inR, inW := io.Pipe()
	outR, outW := io.Pipe()
	done := make(chan error, 1)
	go func() {
		err := run([]string{"-queries", queries}, inR, outW)
		outW.Close()
		done <- err
	}()
	lines := make(chan string, 4)
	go func() {
		sc := bufio.NewScanner(outR)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	if _, err := io.WriteString(inW, "<order><total>250</total></order>\n"); err != nil {
		t.Fatal(err)
	}
	select {
	case line := <-lines:
		if line != "document 1: 1 match(es) [0]" {
			t.Fatalf("first line = %q", line)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no output for the first document while the input is still open")
	}
	io.WriteString(inW, "<order><total>5</total></order>")
	inW.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if line := <-lines; line != "document 2: 0 match(es)" {
		t.Errorf("second line = %q", line)
	}
}

func TestReadQueries(t *testing.T) {
	path := writeFile(t, "q.txt", "  /a \n\n#skip\n//b[c=1]\n")
	qs, err := readQueries(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 2 || qs[0] != "/a" || qs[1] != "//b[c=1]" {
		t.Errorf("queries = %v", qs)
	}
	if _, err := readQueries("/nonexistent"); err == nil {
		t.Error("missing file must fail")
	}
}
