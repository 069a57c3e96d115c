package bench

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/fb"
	"repro/internal/label"
	"repro/internal/policy"
	"repro/internal/workload"
)

// checkTimed asserts a report of n series of m timed points each, every
// one with a positive seconds_per_1M.
func checkTimed(t *testing.T, r *Report, n, m int) {
	t.Helper()
	if len(r.Series) != n {
		t.Fatalf("got %d series, want %d", len(r.Series), n)
	}
	for _, s := range r.Series {
		if len(s.Points) != m {
			t.Errorf("series %s has %d points, want %d", s.Name, len(s.Points), m)
		}
		for _, p := range s.Points {
			if p.Values[secondsPer1M] <= 0 {
				t.Errorf("series %s: nonpositive time at x=%d", s.Name, p.X)
			}
		}
	}
}

func TestRunFigure5Small(t *testing.T) {
	cfg := Figure5Config{Queries: 200, MaxAtoms: []int{3, 6}, Seed: 1}
	r, err := RunFigure5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkTimed(t, r, 4, 2)
	out := FormatText(r)
	if !strings.Contains(out, "baseline") || !strings.Contains(out, "bit vectors + hashing") {
		t.Errorf("format output missing series:\n%s", out)
	}
	for _, k := range []string{"speedup_bitvec_hashing_vs_baseline@3", "speedup_bitvec_hashing_vs_baseline@6"} {
		if r.Summary[k] <= 0 {
			t.Errorf("summary %s = %v, want a positive speedup", k, r.Summary[k])
		}
	}
}

func TestRunFigure5Validation(t *testing.T) {
	if _, err := RunFigure5(Figure5Config{Queries: 0}); err == nil {
		t.Error("zero queries accepted")
	}
	if _, err := RunFigure5(Figure5Config{Queries: 10, MaxAtoms: []int{4}}); err == nil {
		t.Error("non-multiple-of-3 MaxAtoms accepted")
	}
}

func TestRunFigure6Small(t *testing.T) {
	cfg := Figure6Config{
		Labels:        500,
		LabelPool:     100,
		Principals:    []int{50},
		MaxPartitions: []int{1, 5},
		MaxElems:      []int{5, 20},
		Seed:          3,
	}
	r, err := RunFigure6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkTimed(t, r, 2, 2)
	if r.Series[0].Name != "1-way, 50 users" {
		t.Errorf("series name = %q", r.Series[0].Name)
	}
}

// TestCompactCheckerMatchesMonitor cross-validates the flat benchmark
// policy checker against the reference policy.Monitor on identical inputs.
func TestCompactCheckerMatchesMonitor(t *testing.T) {
	cat, err := fb.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	const principals = 20
	cp, err := buildPolicies(cat, rng, principals, 5, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild the same policies as reference monitors by replaying the
	// compact structures.
	views := cat.Views()
	_ = views
	monitors := make([]*policy.Monitor, principals)
	for p := 0; p < principals; p++ {
		first := cp.prinPart[p]
		n := int(cp.prinNPart[p])
		labels := make([]label.Label, 0, n)
		for k := 0; k < n; k++ {
			pi := first + int32(k)
			start := int32(0)
			if pi > 0 {
				start = cp.partEnd[pi-1]
			}
			var atoms []label.AtomLabel
			for i := start; i < cp.partEnd[pi]; i++ {
				atoms = append(atoms, label.AtomLabel{Packed: cp.masks[i]})
			}
			labels = append(labels, label.Label{Atoms: atoms})
		}
		pol, err := policy.FromLabels(labels)
		if err != nil {
			t.Fatal(err)
		}
		monitors[p] = policy.NewMonitor(pol)
	}
	// Replay a labeled workload through both.
	gen := workload.MustNew(fb.Schema(), workload.Options{Seed: 5, MaxSubqueries: 1, FriendScopesMarkIsFriend: true})
	labeler := label.NewLabeler(cat)
	for i := 0; i < 2000; i++ {
		q := gen.Next()
		lbl, err := labeler.Label(q)
		if err != nil {
			t.Fatal(err)
		}
		atoms := make([]uint64, 0, len(lbl.Atoms))
		ok := true
		for _, a := range lbl.Atoms {
			if len(a.Spill) != 0 {
				ok = false
				break
			}
			atoms = append(atoms, a.Packed)
		}
		if !ok {
			continue
		}
		p := rng.Intn(principals)
		gotCompact := cp.check(int32(p), atoms)
		gotMonitor := monitors[p].Submit(lbl).Allowed
		if gotCompact != gotMonitor {
			t.Fatalf("decision mismatch for principal %d on %s: compact=%v monitor=%v",
				p, q, gotCompact, gotMonitor)
		}
	}
}

func TestCompactReset(t *testing.T) {
	cat, err := fb.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	cp, err := buildPolicies(cat, rng, 5, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	before := append([]uint8(nil), cp.live...)
	// Force liveness updates by issuing an unsatisfiable then satisfiable
	// stream; simplest: clobber and reset.
	for i := range cp.live {
		cp.live[i] = 0
	}
	cp.reset()
	for i := range cp.live {
		if cp.live[i] != before[i] {
			t.Fatal("reset did not restore liveness")
		}
	}
	if _, err := buildPolicies(cat, rng, 1, 9, 5); err == nil {
		t.Error("more than 8 partitions accepted by compact store")
	}
}

// TestSpeedup: speedups pair points by their x values, not by position,
// and skip x values only one series has.
func TestSpeedup(t *testing.T) {
	r := newReport("test", nil)
	r.Series = []Series{
		{Name: "slow", Points: []Point{timedPoint(3, 1, 9e-6), timedPoint(6, 1, 12e-6), timedPoint(9, 1, 1e-6)}},
		{Name: "fast", Points: []Point{timedPoint(6, 1, 4e-6), timedPoint(3, 1, 3e-6)}},
	}
	r.speedup("s", "slow", "fast")
	r.speedup("missing", "slow", "nope")
	if len(r.Summary) != 2 || math.Abs(r.Summary["s@3"]-3) > 1e-9 || math.Abs(r.Summary["s@6"]-3) > 1e-9 {
		t.Errorf("speedup summary = %v, want s@3 = s@6 = 3", r.Summary)
	}
}

// TestFormatTextOwnX: every row carries its own point's x value, also
// when the series of one report sweep different x-axes (the wal
// experiment's submit series over goroutines, load series over users).
func TestFormatTextOwnX(t *testing.T) {
	r := newReport("wal", nil)
	r.Series = []Series{
		{Name: "submit wal", XLabel: "goroutines", Points: []Point{timedPoint(1, 10, 1), timedPoint(4, 10, 1)}},
		{Name: "load wal", XLabel: "users", Points: []Point{timedPoint(100, 10, 1), timedPoint(300, 10, 1)}},
	}
	r.Summary["slowdown@1"] = 2.5
	out := FormatText(r)
	for _, want := range []string{"goroutines=1", "goroutines=4", "users=100", "users=300", "slowdown@1: 2.50"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "load wal") && strings.Contains(line, "goroutines=") {
			t.Errorf("load row labeled with a goroutine count: %q", line)
		}
	}
}

func TestHumanCount(t *testing.T) {
	cases := map[int]string{1000: "1K", 50000: "50K", 1000000: "1M", 37: "37"}
	for n, want := range cases {
		if got := humanCount(n); got != want {
			t.Errorf("humanCount(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestRunFootnote3Small(t *testing.T) {
	r, err := RunFootnote3(Footnote3Config{
		Queries:          300,
		Relations:        []int{4, 20},
		ViewsPerRelation: 3,
		Seed:             5,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkTimed(t, r, 2, 2)
	if _, err := RunFootnote3(Footnote3Config{Queries: 0}); err == nil {
		t.Error("zero queries accepted")
	}
}

func TestRunEngineSmall(t *testing.T) {
	r, err := RunEngine(EngineConfig{
		Queries:    200,
		Users:      []int{20, 40},
		MaxAtoms:   6,
		Pool:       50,
		Goroutines: []int{1, 2},
		Seed:       5,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkTimed(t, r, 4, 2) // {planned, reference} × {1, 2} goroutines
	if _, err := RunEngine(EngineConfig{Queries: 0}); err == nil {
		t.Error("zero queries accepted")
	}
	if _, err := RunEngine(EngineConfig{Queries: 1, Pool: 1, MaxAtoms: 4}); err == nil {
		t.Error("non-multiple-of-3 MaxAtoms accepted")
	}
}

func TestRunAdversarialSmall(t *testing.T) {
	cfg := AdversarialConfig{
		Queries:       400,
		Users:         30,
		MaxAtoms:      6,
		Principals:    16,
		ZipfS:         1.3,
		Pool:          50,
		CacheCapacity: 32,
		Goroutines:    []int{1, 2},
		Seed:          5,
	}
	report, err := RunAdversarial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Series) != 2 { // {repetitive, hostile} × {1, 2} goroutines
		t.Fatalf("got %d series, want 2", len(report.Series))
	}
	for _, s := range report.Series {
		if len(s.Points) != 2 {
			t.Fatalf("%s: got %d points, want 2", s.Name, len(s.Points))
		}
		for _, p := range s.Points {
			v := p.Values
			if v["throughput_qps"] <= 0 || v["elapsed_seconds"] <= 0 {
				t.Errorf("%s g=%d: nonpositive throughput", s.Name, p.X)
			}
			if v["latency_p50_us"] <= 0 || v["latency_p99_us"] < v["latency_p50_us"] || v["latency_max_us"] < v["latency_p99_us"] {
				t.Errorf("%s g=%d: implausible latency ordering p50=%g p99=%g max=%g",
					s.Name, p.X, v["latency_p50_us"], v["latency_p99_us"], v["latency_max_us"])
			}
			if v["admitted"]+v["refused"]+v["errored"] != float64(cfg.Queries) {
				t.Errorf("%s g=%d: outcomes don't sum to %d", s.Name, p.X, cfg.Queries)
			}
		}
	}
	// The hostile mode must actually hurt the caches relative to the
	// repetitive mode at the same concurrency.
	rep, hos := report.series("repetitive"), report.series("hostile")
	if rep == nil || hos == nil || rep.Points[0].X != 1 || hos.Points[0].X != 1 {
		t.Fatal("missing g=1 points")
	}
	if h, r := hos.Points[0].Values["label_hit_rate"], rep.Points[0].Values["label_hit_rate"]; h >= r {
		t.Errorf("hostile label hit rate %.3f not below repetitive %.3f", h, r)
	}
	if _, err := RunAdversarial(AdversarialConfig{Queries: 0}); err == nil {
		t.Error("zero queries accepted")
	}
	if _, err := RunAdversarial(AdversarialConfig{Queries: 1, Pool: 1, Users: 1, Principals: 1, MaxAtoms: 6, ZipfS: 0.5, CacheCapacity: 1}); err == nil {
		t.Error("ZipfS <= 1 accepted")
	}
	if s := FormatText(report); !strings.Contains(s, "hostile") {
		t.Errorf("report rendering lacks the hostile series:\n%s", s)
	}
}
