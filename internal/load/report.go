package load

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"runtime"
	"strings"
)

// BenchPhase is one phase of a run rendered for xpushload's -json report:
// flat numeric keys (microseconds), so a shell script can extract a quantile
// with grep/awk.
type BenchPhase struct {
	Name string `json:"name"`
	Note string `json:"note,omitempty"`

	Seconds      float64 `json:"seconds"`
	TargetRate   float64 `json:"target_rate_per_sec"`
	AchievedRate float64 `json:"achieved_rate_per_sec"`

	Published         uint64 `json:"published"`
	AckErrors         uint64 `json:"ack_errors"`
	Deliveries        uint64 `json:"deliveries"`
	DurableDeliveries uint64 `json:"durable_deliveries"`
	ChurnOps          uint64 `json:"churn_ops"`
	Reconnects        uint64 `json:"reconnects"`
	Errors            uint64 `json:"errors"`

	MaxSchedLagMs float64 `json:"max_sched_lag_ms"`

	PubAckP50Us  float64 `json:"pub_ack_p50_us"`
	PubAckP99Us  float64 `json:"pub_ack_p99_us"`
	PubAckP999Us float64 `json:"pub_ack_p999_us"`
	PubAckMaxUs  float64 `json:"pub_ack_max_us"`

	DeliveryP50Us  float64 `json:"delivery_p50_us"`
	DeliveryP90Us  float64 `json:"delivery_p90_us"`
	DeliveryP99Us  float64 `json:"delivery_p99_us"`
	DeliveryP999Us float64 `json:"delivery_p999_us"`
	DeliveryMaxUs  float64 `json:"delivery_max_us"`
}

// BenchWorkload summarizes the spec inside the report so a trajectory file
// is self-describing.
type BenchWorkload struct {
	Name         string  `json:"name"`
	Seed         int64   `json:"seed"`
	Dataset      string  `json:"dataset"`
	Subscribers  int     `json:"subscribers"`
	Filters      int     `json:"filters"`
	Popularity   string  `json:"popularity"`
	ZipfTheta    float64 `json:"zipf_theta,omitempty"`
	DurableRatio float64 `json:"durable_ratio"`
	DocSizes     string  `json:"doc_sizes"`
	Rate         float64 `json:"rate_per_sec"`
	Connections  int     `json:"connections"`
	DurableConns int     `json:"durable_connections"`
}

// BenchReport is the top-level document ({title, command, cpu, goos, goarch,
// benchmarks}).
type BenchReport struct {
	Title      string        `json:"title"`
	Command    string        `json:"command"`
	CPU        string        `json:"cpu,omitempty"`
	GOOS       string        `json:"goos"`
	GOARCH     string        `json:"goarch"`
	Workload   BenchWorkload `json:"workload"`
	Benchmarks []BenchPhase  `json:"benchmarks"`
}

// BenchReport renders the run in trajectory form. Title and command label
// the run the way the hand-written trajectory files do.
func (r *Result) BenchReport(title, command string) *BenchReport {
	rep := &BenchReport{
		Title:   title,
		Command: command,
		CPU:     cpuModel(),
		GOOS:    runtime.GOOS,
		GOARCH:  runtime.GOARCH,
		Workload: BenchWorkload{
			Name:         r.Spec.Name,
			Seed:         r.Spec.Seed,
			Dataset:      r.Spec.Dataset,
			Subscribers:  r.Spec.Subscribers,
			Filters:      r.Spec.Filters,
			Popularity:   r.Spec.Popularity,
			ZipfTheta:    r.Spec.ZipfTheta,
			DurableRatio: r.Spec.DurableRatio,
			DocSizes:     SizeMixString(r.Spec.DocSizes),
			Rate:         r.Spec.Rate,
			Connections:  r.Spec.Connections,
			DurableConns: r.Spec.DurableConnections,
		},
	}
	for _, ph := range r.Phases {
		note := ""
		if ph.MaxSchedLagMs > 100 {
			note = "generator fell behind its arrival schedule; latencies include scheduler lag"
		}
		rep.Benchmarks = append(rep.Benchmarks, BenchPhase{
			Name:              "xpushload/" + r.Spec.Name + "/" + ph.Name,
			Note:              note,
			Seconds:           ph.Seconds,
			TargetRate:        ph.TargetRate,
			AchievedRate:      ph.AchievedRate,
			Published:         ph.Published,
			AckErrors:         ph.AckErrors,
			Deliveries:        ph.Deliveries,
			DurableDeliveries: ph.DurableDeliveries,
			ChurnOps:          ph.ChurnOps,
			Reconnects:        ph.Reconnects,
			Errors:            ph.Errors,
			MaxSchedLagMs:     ph.MaxSchedLagMs,
			PubAckP50Us:       us(ph.PubAck.P50),
			PubAckP99Us:       us(ph.PubAck.P99),
			PubAckP999Us:      us(ph.PubAck.P999),
			PubAckMaxUs:       us(ph.PubAck.Max),
			DeliveryP50Us:     us(ph.Delivery.P50),
			DeliveryP90Us:     us(ph.Delivery.P90),
			DeliveryP99Us:     us(ph.Delivery.P99),
			DeliveryP999Us:    us(ph.Delivery.P999),
			DeliveryMaxUs:     us(ph.Delivery.Max),
		})
	}
	return rep
}

// WriteJSON writes the report indented, trailing newline included.
func (b *BenchReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}

func us(d interface{ Nanoseconds() int64 }) float64 {
	return float64(d.Nanoseconds()) / 1e3
}

// cpuModel best-effort reads the CPU model name (Linux /proc/cpuinfo).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return ""
}
