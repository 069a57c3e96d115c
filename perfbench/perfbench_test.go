package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	disclosure "repro"
	"repro/internal/label"
)

// TestMain lets the test binary serve as the calibration kernel's child
// process, as the benchmark's own binary does.
func TestMain(m *testing.M) {
	if os.Getenv(calibrationEnv) != "" {
		os.Exit(calibrationKernel())
	}
	os.Exit(m.Run())
}

// tinyConfig is a workload at smoke-test scale: 8 apps over a 40-user
// graph, one set-up and one recovery, and a count-bounded timed phase.
func tinyConfig(t *testing.T, name string, seed int64) config {
	t.Helper()
	sp, err := specNamed(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg := defaultConfig(sp, seed, 1, filepath.Join(t.TempDir(), "run"))
	cfg.apps, cfg.users, cfg.pool = 8, 40, 3
	cfg.ops, cfg.tail = 20, 10
	cfg.setupReps, cfg.recoveryReps = 1, 1
	return cfg
}

// benchmarkFile is the part of BENCHMARK.json the tests check against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// resultLine is the last line of a run's output.
type resultLine struct {
	Correct   bool                       `json:"correct"`
	Attempted int                        `json:"attempted"`
	Failed    int                        `json:"failed"`
	Metrics   map[string]json.RawMessage `json:"metrics"`
}

func parseResult(t *testing.T, out string) resultLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r resultLine
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return r
}

// TestEveryWorkloadPrintsEveryMetric runs each workload of BENCHMARK.json
// at tiny scale, end-to-end and traced, and checks that the run is correct
// and prints exactly the file's metrics with their units.
func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	bf := loadBenchmarkFile(t)
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bf.Workloads), len(specs))
	}
	for _, w := range bf.Workloads {
		for _, traced := range []bool{false, true} {
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			// Time-bounded, as the benchmark runs: the timed phase ends
			// at its deadline, mid-stream.
			cfg := tinyConfig(t, w.Name, 3)
			cfg.ops, cfg.seconds = 0, 0.3
			var buf bytes.Buffer
			if _, err := execute(cfg, traced, &buf); err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			r := parseResult(t, buf.String())
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s", w.Name, traced, r.Correct, r.Attempted, r.Failed, buf.String())
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics printed, BENCHMARK.json has %d", w.Name, traced, len(r.Metrics), len(want))
			}
			for _, m := range want {
				raw, ok := r.Metrics[m.Name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s not printed", w.Name, traced, m.Name)
					continue
				}
				var v metric
				if err := json.Unmarshal(raw, &v); err != nil || v.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %s, want unit %q", w.Name, traced, m.Name, raw, m.Unit)
				}
			}
		}
	}
}

// TestExactCounts checks that admitted, refused, label misses and replayed
// operations repeat exactly across two runs of one seed, and that a second
// seed runs every workload clean.
func TestExactCounts(t *testing.T) {
	for _, sp := range specs {
		var first counts
		for i, seed := range []int64{5, 5, 6} {
			var buf bytes.Buffer
			res, err := execute(tinyConfig(t, sp.name, seed), false, &buf)
			if err != nil {
				t.Fatalf("%s seed %d: %v", sp.name, seed, err)
			}
			if !res.correct() {
				t.Fatalf("%s seed %d: run not correct:\n%s", sp.name, seed, buf.String())
			}
			switch i {
			case 0:
				first = res.counts
				if first.Admitted+first.Refused == 0 || first.LabelMisses == 0 {
					t.Errorf("%s: empty counts %+v", sp.name, first)
				}
				if sp.durable && first.ReplayedOps == 0 {
					t.Errorf("%s: recovery replayed nothing", sp.name)
				}
			case 1:
				if res.counts != first {
					t.Errorf("%s seed %d: counts %+v, then %+v", sp.name, seed, first, res.counts)
				}
			}
		}
	}
}

// TestInjectedWrongDecisionIsCaught flips one served decision and expects
// the oracle to fail the run; the untouched run must pass.
func TestInjectedWrongDecisionIsCaught(t *testing.T) {
	cfg := tinyConfig(t, "steady-warm", 9)
	views, err := viewNames()
	if err != nil {
		t.Fatal(err)
	}
	st := buildStream(cfg, views, streamPerClient(cfg))
	d, err := deploy(cfg, st, filepath.Join(cfg.dir, "d"))
	if err != nil {
		t.Fatal(err)
	}
	ph, err := drive(cfg, d, st, newClientLogs(st), nil)
	d.close()
	if err != nil {
		t.Fatal(err)
	}
	clean := &failures{}
	if _, err := runOracle(cfg, st, ph.logs, clean); err != nil || clean.n != 0 {
		t.Fatalf("clean run: err %v, failures %v", err, clean.msgs)
	}
	k := st.warmup + 3
	ph.logs[1].out[k].allowed = !ph.logs[1].out[k].allowed
	injected := &failures{}
	if _, err := runOracle(cfg, st, ph.logs, injected); err != nil {
		t.Fatal(err)
	}
	if injected.n != 1 {
		t.Fatalf("flipped decision: %d failures (%v), want 1", injected.n, injected.msgs)
	}
}

// TestRecoveryCheckCatchesLostState feeds the recovery check a session
// that changed across the crash and a refusal that turned into an
// admission.
func TestRecoveryCheckCatchesLostState(t *testing.T) {
	before := map[string]session{"app-0": {live: "W0", accepted: 3, refused: 1}}
	after := map[string]session{"app-0": {live: "W0,W1", accepted: 3, refused: 1}}
	f := &failures{}
	compareSessions(f, "test", before, before)
	if f.n != 0 {
		t.Fatalf("equal sessions failed: %v", f.msgs)
	}
	compareSessions(f, "test", before, after)
	if f.n != 1 {
		t.Fatalf("changed session: %d failures, want 1", f.n)
	}
	st := &stream{apps: []app{{name: "app-0"}}}
	admitAll := func(string, *disclosure.Query) (disclosure.Decision, error) {
		return disclosure.Decision{Allowed: true}, nil
	}
	checkStillRefused(f, "test", st, map[int32]string{0: "Q(x) :- likes(x, y, z, w)"}, admitAll)
	if f.n != 2 {
		t.Fatalf("re-admitted refusal: %d failures, want 2", f.n)
	}
}

// TestColdLabelMissesCheckedPastEviction runs cold-templates with more
// distinct templates than the label cache holds: the cache evicts, and the
// label-miss count must still equal the number of templates sent, since
// cold-templates sends each template once.
func TestColdLabelMissesCheckedPastEviction(t *testing.T) {
	cfg := tinyConfig(t, "cold-templates", 4)
	cfg.ops = label.DefaultCacheCapacity/cfg.clients + 100
	views, err := viewNames()
	if err != nil {
		t.Fatal(err)
	}
	st := buildStream(cfg, views, streamPerClient(cfg))
	d, err := deploy(cfg, st, "")
	if err != nil {
		t.Fatal(err)
	}
	ph, err := drive(cfg, d, st, newClientLogs(st), nil)
	served := d.sys.Stats()
	d.close()
	if err != nil {
		t.Fatal(err)
	}
	if served.Cache.Evictions == 0 {
		t.Fatalf("%d label-cache misses and no eviction: the run does not exceed the cache", served.Cache.Misses)
	}
	f := &failures{}
	ref, err := runOracle(cfg, st, ph.logs, f)
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(f, cfg, st, ph.logs, served, ref, 0)
	if f.n != 0 {
		t.Fatalf("clean run: %v", f.msgs)
	}
	served.Cache.Misses++
	checkCounts(f, cfg, st, ph.logs, served, ref, 0)
	if f.n != 1 {
		t.Fatalf("one extra label miss: %d failures (%v), want 1", f.n, f.msgs)
	}
}

// TestCalibrationScaling checks the speeds the calibration scales by: the
// median burst rate over the reference rate and the reference processor
// time over the median per iteration, and no scaling without a kernel.
func TestCalibrationScaling(t *testing.T) {
	c := &calibrator{rates: []float64{4000, 20000, 6000}, cpus: []float64{100, 400, 250}}
	speed, cpuSpeed := c.speeds()
	if want := 6000 / calibrationRef; speed != want {
		t.Errorf("speed %v, want %v", speed, want)
	}
	if want := calibrationRefCPU / 250; cpuSpeed != want {
		t.Errorf("cpu speed %v, want %v", cpuSpeed, want)
	}
	var none *calibrator
	if speed, cpuSpeed := none.speeds(); speed != 1 || cpuSpeed != 1 || none.burst() != nil {
		t.Error("a nil calibrator scales or runs bursts")
	}
}
