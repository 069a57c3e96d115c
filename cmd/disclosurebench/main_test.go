package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
)

// TestMainUnknownExperiment: an unknown -exp exits 1 and names every
// registered experiment, and a flag the chosen experiment does not take
// is a usage error, not silently ignored.
func TestMainUnknownExperiment(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "bogus"}, &stdout, &stderr); code != 1 {
		t.Fatalf("-exp bogus: exit code %d, want 1", code)
	}
	msg := stderr.String()
	if !strings.Contains(msg, `unknown experiment "bogus"`) {
		t.Errorf("error does not name the bad experiment:\n%s", msg)
	}
	for _, e := range bench.Experiments {
		if !strings.Contains(msg, e.Name) {
			t.Errorf("error does not list experiment %q:\n%s", e.Name, msg)
		}
	}
	for _, args := range [][]string{
		{"-exp", "figure5", "-users", "10"},
		{"-exp=serve", "-tsv"},
		{"-exp", "failover", "-queries", "5"},
	} {
		stderr.Reset()
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%q: exit code %d, want 2 (usage error)", args, code)
		}
		if !strings.Contains(stderr.String(), "flag provided but not defined") {
			t.Errorf("%q: usage error does not name the flag:\n%s", args, stderr.String())
		}
	}
	if stdout.Len() != 0 {
		t.Errorf("usage errors wrote to stdout:\n%s", stdout.String())
	}
}

// smokeArgs runs each experiment at unit scale; the summary key is one
// headline the experiment must derive.
var smokeArgs = map[string]struct {
	args    []string
	summary string
}{
	"figure5":     {[]string{"-queries", "50", "-max-atoms", "3,6"}, "speedup_bitvec_hashing_vs_baseline@3"},
	"figure6":     {[]string{"-labels", "100", "-label-pool", "20", "-principals", "10", "-partitions", "1,5", "-max-elems", "5"}, ""},
	"footnote3":   {[]string{"-queries", "50"}, ""},
	"cached":      {[]string{"-queries", "100", "-pool", "20", "-max-atoms", "3", "-goroutines", "1,2"}, ""},
	"engine":      {[]string{"-queries", "50", "-users", "10", "-goroutines", "1", "-pool", "10"}, "speedup_planned_vs_reference_g1@10"},
	"serve":       {[]string{"-clients", "2", "-requests", "3", "-users", "10", "-pool", "5"}, ""},
	"wal":         {[]string{"-queries", "20", "-pool", "10", "-users", "10,20", "-goroutines", "1,2"}, "slowdown_wal_vs_memory@1"},
	"adversarial": {[]string{"-queries", "50", "-users", "10", "-principals", "4", "-pool", "10", "-cache-capacity", "4", "-goroutines", "1,2"}, ""},
	"shard":       {[]string{"-queries", "20", "-pool", "10", "-users", "10", "-shards", "1,2", "-goroutines", "1,2"}, "speedup_s2_gc_on_vs_s1_gc_off@2"},
	"repl":        {[]string{"-followers", "0,1", "-clients", "2", "-requests", "3", "-users", "10", "-pool", "5"}, "decision_overhead_p50_ms"},
	"obs":         {[]string{"-queries", "50", "-pool", "10", "-users", "10", "-goroutines", "1"}, "overhead_percent"},
}

// decodeReport decodes one JSON report, rejecting any field Report does
// not have.
func decodeReport(t *testing.T, what string, data []byte) bench.Report {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var r bench.Report
	if err := dec.Decode(&r); err != nil {
		t.Fatalf("%s: decoding into bench.Report: %v", what, err)
	}
	return r
}

// TestExperimentsSmoke runs every registered experiment but failover
// (which builds and kills child processes) at unit scale through the CLI's
// own flag parsing, and checks the -json archive decodes into one Report
// with at least one point and only finite values.
func TestExperimentsSmoke(t *testing.T) {
	for _, e := range bench.Experiments {
		if e.Name == "failover" {
			continue
		}
		t.Run(e.Name, func(t *testing.T) {
			smoke, ok := smokeArgs[e.Name]
			if !ok {
				t.Fatalf("no smoke arguments for experiment %q", e.Name)
			}
			var stdout, stderr bytes.Buffer
			args := append([]string{"-exp", e.Name, "-json"}, smoke.args...)
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%q: exit code %d:\n%s", args, code, stderr.String())
			}
			r := decodeReport(t, e.Name, stdout.Bytes())
			if r.Experiment != e.Name || r.Env.GoVersion == "" || r.Config == nil {
				t.Errorf("report header = (%q, %+v, %v)", r.Experiment, r.Env, r.Config)
			}
			points := 0
			for _, s := range r.Series {
				for _, p := range s.Points {
					points++
					if len(p.Values) == 0 {
						t.Errorf("series %q x=%d has no values", s.Name, p.X)
					}
					for k, v := range p.Values {
						if math.IsNaN(v) || math.IsInf(v, 0) {
							t.Errorf("series %q x=%d: %s = %v", s.Name, p.X, k, v)
						}
					}
				}
			}
			if points == 0 {
				t.Error("report has no points")
			}
			for k, v := range r.Summary {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("summary %s = %v", k, v)
				}
			}
			if _, ok := r.Summary[smoke.summary]; smoke.summary != "" && !ok {
				t.Errorf("summary %v lacks %q", r.Summary, smoke.summary)
			}
		})
	}
}

// TestBenchArchivesDecode: every committed BENCH_*.json at the repository
// root is a Report.
func TestBenchArchivesDecode(t *testing.T) {
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no BENCH_*.json archives found (err %v)", err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		r := decodeReport(t, path, data)
		if want := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), "BENCH_"), ".json"); r.Experiment != want {
			t.Errorf("%s: experiment %q, want %q", path, r.Experiment, want)
		}
		if len(r.Series) == 0 || len(r.Series[0].Points) == 0 {
			t.Errorf("%s: no points", path)
		}
	}
}
