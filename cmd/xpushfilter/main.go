// Command xpushfilter evaluates a workload of XPath filters over a stream
// of XML documents using the XPush machine, printing the matching filters
// for every document — the message-broker core loop of the paper.
//
// Usage:
//
//	xpushfilter -queries filters.txt [-xml stream.xml] [-dtd schema.dtd]
//	            [-topdown] [-order] [-early] [-train] [-max-doc-bytes 0]
//	            [-stats] [-stats-format text|json|prom] [-trace trace.json]
//
// The queries file holds one XPath filter per line; blank lines and lines
// starting with '#' are ignored. XML is read from -xml or stdin and may
// contain any number of concatenated documents. -stats appends a runtime
// report after the stream: human-readable text (including per-document
// filter-latency quantiles), a JSON document, or Prometheus text format.
// -trace records a span trace for every document (per-layer timings plus
// machine telemetry: states created, table flushes, matches) and writes the
// most recent ones as a Chrome trace_event file — load it at
// ui.perfetto.dev or chrome://tracing.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	xpushstream "repro"
	"repro/internal/obs"
	"repro/internal/sax"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "xpushfilter: %v\n", err)
		os.Exit(1)
	}
}

// run executes the tool; factored out of main for testing.
func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("xpushfilter", flag.ContinueOnError)
	queriesPath := fs.String("queries", "", "file with one XPath filter per line (required)")
	xmlPath := fs.String("xml", "", "XML stream file (default: stdin)")
	dtdPath := fs.String("dtd", "", "DTD file (enables -order and -train)")
	topdown := fs.Bool("topdown", false, "enable top-down pruning")
	order := fs.Bool("order", false, "enable the order optimization (needs -dtd)")
	early := fs.Bool("early", false, "enable early notification (implies -topdown)")
	train := fs.Bool("train", false, "warm the machine with synthetic training data (needs -dtd)")
	strict := fs.Bool("strict", false, "reject mixed element/text content")
	maxStates := fs.Int("maxstates", 0, "flush lazily built state tables past this count (0 = unlimited)")
	maxDocBytes := fs.Int("max-doc-bytes", 0, "per-document size bound in bytes; a larger document fails the stream (0 = the 64 MiB default)")
	showQueries := fs.Bool("show-queries", false, "print matching filter text instead of indexes")
	stats := fs.Bool("stats", false, "print machine statistics after the stream")
	statsFormat := fs.String("stats-format", "text", "stats report format: text, json, or prom (Prometheus text)")
	tracePath := fs.String("trace", "", "record a span trace per document and write a Chrome trace_event file (view at ui.perfetto.dev)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *queriesPath == "" {
		return fmt.Errorf("-queries is required")
	}
	queries, err := readQueries(*queriesPath)
	if err != nil {
		return err
	}
	cfg := xpushstream.Config{
		TopDownPruning:     *topdown,
		OrderOptimization:  *order,
		EarlyNotification:  *early,
		Training:           *train,
		StrictMixedContent: *strict,
		MaxStates:          *maxStates,
	}
	if *dtdPath != "" {
		text, err := os.ReadFile(*dtdPath)
		if err != nil {
			return err
		}
		d, err := xpushstream.ParseDTD(string(text))
		if err != nil {
			return err
		}
		cfg.DTD = d
	}
	engine, err := xpushstream.Compile(queries, cfg)
	if err != nil {
		return err
	}

	in := stdin
	if *xmlPath != "" {
		f, err := os.Open(*xmlPath)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	w := bufio.NewWriter(stdout)
	defer w.Flush()
	// The input is read one document at a time, and the output flushed
	// whenever the tool goes back for more: on an unbounded stream (a pipe)
	// every document's line is out before the tool waits for the next one.
	in = flushingReader{in, w}
	doc := 0
	onDocument := func(matches []int) {
		doc++
		fmt.Fprintf(w, "document %d: %d match(es)", doc, len(matches))
		if len(matches) > 0 {
			if *showQueries {
				fmt.Fprintln(w)
				for _, m := range matches {
					fmt.Fprintf(w, "  [%d] %s\n", m, engine.Query(m))
				}
			} else {
				fmt.Fprintf(w, " %v\n", matches)
			}
		} else {
			fmt.Fprintln(w)
		}
	}
	if *tracePath != "" {
		// Traced runs give each document its own trace: a "document" root
		// with the filter span, per-layer timings, and machine-telemetry
		// attributes. Sampling 1/1 keeps everything (the recorder ring
		// retains the most recent documents).
		rec := xpushstream.NewTraceRecorder(1, 0)
		err = sax.StreamDocumentsLimit(in, *maxDocBytes, func(doc []byte) error {
			tc := rec.Begin("document")
			ferr := engine.FilterBytesTraced(doc, tc, xpushstream.TraceRoot, onDocument)
			tc.Finish()
			return ferr
		})
		if err == nil {
			err = writeTraceFile(rec, *tracePath)
		}
	} else {
		err = engine.FilterStreamingLimit(in, *maxDocBytes, onDocument)
	}
	if err != nil {
		return err
	}
	if *stats {
		if err := writeStats(w, engine, *statsFormat); err != nil {
			return err
		}
	}
	return nil
}

// flushingReader flushes w before every read of r.
type flushingReader struct {
	r io.Reader
	w *bufio.Writer
}

func (f flushingReader) Read(p []byte) (int, error) {
	if err := f.w.Flush(); err != nil {
		return 0, err
	}
	return f.r.Read(p)
}

// writeTraceFile dumps the recorder's retained traces in Chrome trace_event
// format.
func writeTraceFile(rec *xpushstream.TraceRecorder, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeStats renders the post-stream runtime report in one of the three
// formats.
func writeStats(w io.Writer, engine *xpushstream.Engine, format string) error {
	s := engine.Stats()
	switch format {
	case "text":
		lat := s.LatencySummary()
		fmt.Fprintf(w, "---\ndocuments=%d events=%d bytes=%d matches=%d\n", s.Documents, s.Events, s.Bytes, s.Matches)
		fmt.Fprintf(w, "states=%d topdown-states=%d avg-state-size=%.2f\n", s.States, s.TopDownStates, s.AvgStateSize)
		fmt.Fprintf(w, "table lookups=%d hits=%d hit-ratio=%.4f window-hit-ratio=%.4f flushes=%d\n",
			s.Lookups, s.Hits, s.HitRatio, s.WindowHitRatio, s.Flushes)
		fmt.Fprintf(w, "doc latency p50=%v p90=%v p99=%v max=%v\n",
			latDur(lat.P50), latDur(lat.P90), latDur(lat.P99), latDur(lat.Max))
		return nil
	case "json":
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(struct {
			xpushstream.Stats
			LatencySummary obs.Summary
		}{s, s.LatencySummary()})
	case "prom":
		reg := xpushstream.NewRegistry()
		xpushstream.RegisterMetrics(reg, "xpush", engine)
		return reg.WritePrometheus(w)
	default:
		return fmt.Errorf("unknown -stats-format %q (text, json, prom)", format)
	}
}

// latDur renders a latency in seconds as a rounded duration.
func latDur(sec float64) time.Duration {
	return time.Duration(sec * float64(time.Second)).Round(time.Microsecond)
}

func readQueries(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		out = append(out, line)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no queries", path)
	}
	return out, nil
}
