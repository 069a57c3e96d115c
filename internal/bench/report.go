package bench

import (
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"text/tabwriter"
	"time"
)

// Report is the result of one experiment run: the one shape every
// experiment returns, FormatText prints and -json archives as
// BENCH_<experiment>.json.
type Report struct {
	Experiment string `json:"experiment"`
	Env        Env    `json:"env"`
	// Config is the experiment's configuration as run.
	Config any      `json:"config"`
	Series []Series `json:"series"`
	// Summary holds headline numbers derived from the series: speedups
	// between two of them, or a worst case the acceptance budgets read.
	Summary map[string]float64 `json:"summary,omitempty"`
}

// Env is the machine and build a report was measured on.
type Env struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	// Revision is the VCS revision of the binary, when the build stamped
	// one.
	Revision string `json:"revision,omitempty"`
}

// Series is one named curve, or one group of measured cells, over the
// x-axis XLabel names.
type Series struct {
	Name   string  `json:"name"`
	XLabel string  `json:"x_label"`
	Points []Point `json:"points"`
}

// Point is one measurement: its own x value and its named metric values.
type Point struct {
	X      int                `json:"x"`
	Values map[string]float64 `json:"values"`
}

// newReport starts the report of one run, stamped with the current
// machine and build.
func newReport(experiment string, cfg any) *Report {
	env := Env{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Revision = s.Value
			}
		}
	}
	return &Report{Experiment: experiment, Env: env, Config: cfg, Summary: map[string]float64{}}
}

// series returns the named series, or nil.
func (r *Report) series(name string) *Series {
	for i := range r.Series {
		if r.Series[i].Name == name {
			return &r.Series[i]
		}
	}
	return nil
}

// secondsPer1M is the throughput metric of the paper's figures: wall
// seconds normalized to one million operations.
const secondsPer1M = "seconds_per_1M"

// timedPoint is the point of n operations that took elapsed seconds.
func timedPoint(x, n int, elapsed float64) Point {
	return Point{X: x, Values: map[string]float64{
		secondsPer1M:      elapsed * 1e6 / float64(n),
		"queries_timed":   float64(n),
		"elapsed_seconds": elapsed,
	}}
}

// speedup records in the summary, for every x value the two named series
// share, how many times slower slow ran than fast: key@x.
func (r *Report) speedup(key, slow, fast string) {
	s, f := r.series(slow), r.series(fast)
	if s == nil || f == nil {
		return
	}
	for _, p := range s.Points {
		for _, q := range f.Points {
			if p.X == q.X && q.Values[secondsPer1M] > 0 {
				r.Summary[fmt.Sprintf("%s@%d", key, p.X)] = p.Values[secondsPer1M] / q.Values[secondsPer1M]
			}
		}
	}
}

// percentile returns the q-quantile of sorted latencies (nearest rank).
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(q*float64(len(sorted))+0.5) - 1
	return sorted[min(max(rank, 0), len(sorted)-1)]
}

// addLatencies sorts lat and records its p50, p95, p99 and maximum in v
// as latency_<p>_<unit>, with unit "ms" or "us".
func addLatencies(v map[string]float64, lat []time.Duration, unit string) {
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	scale := float64(time.Millisecond)
	if unit == "us" {
		scale = float64(time.Microsecond)
	}
	for _, p := range []struct {
		name string
		q    float64
	}{{"p50", 0.50}, {"p95", 0.95}, {"p99", 0.99}, {"max", 1}} {
		v["latency_"+p.name+"_"+unit] = float64(percentile(lat, p.q)) / scale
	}
}

// FormatText renders a report as aligned text: the environment and
// configuration, one row per point with its own x value and one column per
// metric any series reports, then the summary.
func FormatText(r *Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s/%s %s, GOMAXPROCS %d, %d CPUs", r.Experiment,
		r.Env.GOOS, r.Env.GOARCH, r.Env.GoVersion, r.Env.GOMAXPROCS, r.Env.NumCPU)
	if r.Env.Revision != "" {
		fmt.Fprintf(&b, ", revision %s", r.Env.Revision)
	}
	cfg, _ := json.Marshal(r.Config) // a config is plain data; it always marshals
	fmt.Fprintf(&b, "\nconfig %s\n\n", cfg)
	seen := map[string]bool{}
	var metrics []string
	for _, s := range r.Series {
		for _, p := range s.Points {
			for m := range p.Values {
				if !seen[m] {
					seen[m] = true
					metrics = append(metrics, m)
				}
			}
		}
	}
	sort.Strings(metrics)
	tw := tabwriter.NewWriter(&b, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "series\tx\t%s\t\n", strings.Join(metrics, "\t"))
	for _, s := range r.Series {
		for _, p := range s.Points {
			fmt.Fprintf(tw, "%s\t%s=%d\t", s.Name, s.XLabel, p.X)
			for _, m := range metrics {
				v, ok := p.Values[m]
				switch {
				case !ok:
					fmt.Fprint(tw, "-\t")
				case v == float64(int64(v)):
					fmt.Fprintf(tw, "%d\t", int64(v))
				default:
					fmt.Fprintf(tw, "%.4f\t", v)
				}
			}
			fmt.Fprintln(tw)
		}
	}
	tw.Flush()
	keys := make([]string, 0, len(r.Summary))
	for k := range r.Summary {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "\n%s: %.2f", k, r.Summary[k])
	}
	if len(keys) > 0 {
		b.WriteByte('\n')
	}
	return b.String()
}
