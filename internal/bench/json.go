package bench

import (
	"encoding/json"
	"io"
	"sort"
)

// jsonRow is the JSON view of a sweep Row: durations in seconds, field
// names stable for external tooling.
type jsonRow struct {
	Series     string  `json:"series"`
	X          float64 `json:"x"`
	Seconds    float64 `json:"seconds"`
	MBPerSec   float64 `json:"mb_per_sec"`
	States     int     `json:"states"`
	AvgSize    float64 `json:"avg_state_size"`
	HitRatio   float64 `json:"hit_ratio"`
	TotalPreds int     `json:"total_atomic_preds"`
	Matches    int64   `json:"matches"`
	MemBytes   int64   `json:"approx_mem_bytes"`
}

// jsonAbstract is the JSON view of an abstract-claim run.
type jsonAbstract struct {
	Workload          string  `json:"workload"`
	TotalPreds        int     `json:"total_atomic_preds"`
	MeanPreds         float64 `json:"mean_preds_per_query"`
	ColdMBPerSec      float64 `json:"cold_mb_per_sec"`
	WarmMBPerSec      float64 `json:"warm_mb_per_sec"`
	ScannerMBPerSec   float64 `json:"scanner_mb_per_sec"`
	StdParserMBPerSec float64 `json:"std_parser_mb_per_sec"`
	WarmP50Sec        float64 `json:"warm_latency_p50_sec"`
	WarmP90Sec        float64 `json:"warm_latency_p90_sec"`
	WarmP99Sec        float64 `json:"warm_latency_p99_sec"`
	WarmMaxSec        float64 `json:"warm_latency_max_sec"`
}

// jsonReport is the top-level -json document.
type jsonReport struct {
	Dataset  string               `json:"dataset"`
	Scale    string               `json:"scale"`
	Sweeps   map[string][]jsonRow `json:"sweeps"`
	Abstract []jsonAbstract       `json:"abstract,omitempty"`
}

// WriteJSON dumps every cached sweep and any abstract-claim results as one
// indented JSON document, for diffing runs across commits.
func (r *Runner) WriteJSON(w io.Writer) error {
	rep := jsonReport{
		Dataset: r.DS.Name,
		Scale:   r.Scale.Name,
		Sweeps:  map[string][]jsonRow{},
	}
	names := make([]string, 0, len(r.cache))
	for name := range r.cache {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rows := make([]jsonRow, 0, len(r.cache[name]))
		for _, row := range r.cache[name] {
			rows = append(rows, jsonRow{
				Series:     row.Series,
				X:          row.X,
				Seconds:    row.Time.Seconds(),
				MBPerSec:   row.MBPerSec,
				States:     row.States,
				AvgSize:    row.AvgSize,
				HitRatio:   row.HitRatio,
				TotalPreds: row.TotalPred,
				Matches:    row.Matches,
				MemBytes:   row.MemBytes,
			})
		}
		rep.Sweeps[name] = rows
	}
	for _, a := range r.abstracts {
		rep.Abstract = append(rep.Abstract, jsonAbstract{
			Workload:          a.name,
			TotalPreds:        a.res.TotalPreds,
			MeanPreds:         a.res.MeanPreds,
			ColdMBPerSec:      a.res.ColdMBPerSec,
			WarmMBPerSec:      a.res.WarmMBPerSec,
			ScannerMBPerSec:   a.res.ScannerMBPerSec,
			StdParserMBPerSec: a.res.StdParserMBPerSec,
			WarmP50Sec:        a.res.WarmLatency.P50,
			WarmP90Sec:        a.res.WarmLatency.P90,
			WarmP99Sec:        a.res.WarmLatency.P99,
			WarmMaxSec:        a.res.WarmLatency.Max,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
