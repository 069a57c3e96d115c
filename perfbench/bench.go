package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	disclosure "repro"
)

// config is one run's parameters.
type config struct {
	spec    spec
	seed    int64
	seconds float64
	// ops, when positive, bounds the timed phase by count instead of time:
	// every client sends exactly ops timed requests. The counts of such a
	// run repeat exactly for one seed.
	ops     int
	apps    int // apps onboarded at set-up (an onboarding run doubles it)
	users   int // fb graph size
	pool    int // templates per app (all workloads but cold-templates)
	clients int
	// tail is the number of untimed ops each client sends after the timed
	// phase (see drive).
	tail int
	// setupReps and recoveryReps are how often a run sets up and recovers;
	// it reports the medians.
	setupReps, recoveryReps int
	// dir holds the run's data directories; it is removed at the end.
	dir string
}

func defaultConfig(sp spec, seed int64, seconds float64, dir string) config {
	return config{
		spec: sp, seed: seed, seconds: seconds,
		apps: 200, users: 300, pool: 8, clients: 2, tail: 1000,
		setupReps: 3, recoveryReps: 3,
		dir: dir,
	}
}

// metric is one printed result value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// n is the sample count behind a percentile or mean, printed in the
	// report (0: not a sampled statistic).
	n int
}

// result is one run's outcome.
type result struct {
	metrics   map[string]metric
	order     []string
	attempted int
	failed    int
	checks    *failures
	counts    counts
	report    []string // human-readable lines printed before the result
	traced    bool
}

// counts are the run's exact counts: for one seed in a count-bounded run
// each repeats exactly.
type counts struct {
	Admitted    uint64 `json:"admitted"`
	Refused     uint64 `json:"refused"`
	LabelMisses uint64 `json:"label_misses"`
	ReplayedOps int    `json:"replayed_ops"`
}

func newResult() *result {
	return &result{metrics: make(map[string]metric), checks: &failures{}}
}

func (r *result) set(name string, value float64, unit string, n int) {
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{Value: value, Unit: unit, n: n}
}

func (r *result) note(format string, args ...any) {
	r.report = append(r.report, fmt.Sprintf(format, args...))
}

// streamPerClient is the number of ops each client's pre-generated
// stream holds past its warm-up: the timed phase at the workload's rate
// cap (or the op count) plus the tail.
func streamPerClient(cfg config) int {
	if cfg.ops > 0 {
		return cfg.ops + cfg.tail
	}
	return int(cfg.seconds*float64(cfg.spec.rateCap)) + 1 + cfg.tail
}

// account adds the phase's requests to the result's attempted and failed
// counts and notes a client that ran out of stream.
func (r *result) account(ph *phase) {
	for c, lg := range ph.logs {
		r.attempted += len(lg.out)
		r.failed += lg.failed
		if lg.exhausted {
			r.note("client %d ran out of its pre-generated stream: the timed phase ended after %.2f s (raise the workload's rate cap)", c, ph.elapsed.Seconds())
		}
	}
}

// runEndToEnd is the untraced run: set up cfg.setupReps times, drive the
// closed loop over the last deployment, check the answers against the
// oracle, crash, recover cfg.recoveryReps times with the recovery check,
// and report the end-to-end metrics. A burst of the calibration kernel
// runs before every set-up, every measurement window and every recovery,
// and after the last, and every timing is reported scaled to the
// reference speed by the run's bursts (see calib.go).
//
// heap_mb is the program's heap: HeapInuse after GC at the end of the
// timed phase minus the harness's baseline, HeapInuse after GC once the
// stream and the preallocated client logs exist and before any set-up.
func runEndToEnd(cfg config, st *stream) (*result, error) {
	r := newResult()
	logs := newClientLogs(st)
	baseHeap := heapInuse()
	cal, err := newCalibrator()
	if err != nil {
		return nil, err
	}
	defer cal.close()
	var setups []float64
	var installs []time.Duration
	var d *deployment
	for i := 0; i < cfg.setupReps; i++ {
		dir := filepath.Join(cfg.dir, fmt.Sprintf("setup-%d", i))
		// The burst collects garbage first: no set-up pays for
		// collecting the previous one.
		if err := cal.burst(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		nd, err := deploy(cfg, st, dir)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		progress("set-up %d: %.2f s", i, setups[i])
		installs = append(installs, nd.installs...)
		if i < cfg.setupReps-1 {
			nd.close()
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		} else {
			d = nd
		}
	}
	ph, err := drive(cfg, d, st, logs, cal)
	if err != nil {
		d.close()
		return nil, err
	}
	r.account(ph)
	checkIdentity(r.checks, "served system", d.sys)
	stats := d.sys.Stats()
	r.counts.Admitted, r.counts.Refused, r.counts.LabelMisses = stats.Admitted, stats.Refused, stats.Cache.Misses

	recoveries, replayed, err := measureRecovery(cfg, st, d, ph.logs, r.checks, cal)
	if err != nil {
		return nil, fmt.Errorf("recovery: %w", err)
	}
	r.counts.ReplayedOps = replayed
	t0 := time.Now()
	ref, err := runOracle(cfg, st, ph.logs, r.checks)
	progress("oracle: %d requests checked in %.2f s", r.attempted, time.Since(t0).Seconds())
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	checkCounts(r.checks, cfg, st, ph.logs, stats, ref, replayed)

	submits, timedInstalls := ph.timedOps()
	installs = installLatencies(cfg, installs, ph)
	win := ph.windows()
	// Each metric is scaled to the reference by the run's calibration
	// speeds (see calib.go): throughput, the set-ups and the 10-ms policy
	// installs by the machine's full speed; the median latency of short
	// submissions, the processor time per request and the recoveries (one
	// thread replaying the log) by its instruction speed.
	speed, cpuSpeed := cal.speeds()
	for _, m := range []struct {
		name, unit string
		raw, scale float64
		n          int
	}{
		{"setup_s", "s", median(setups), speed, len(setups)},
		{"submit_qps", "1/s", median(win.qps), 1 / speed, submits},
		{"submit_p50_ms", "ms", median(win.p50), cpuSpeed, submits},
		{"policy_install_p50_ms", "ms", percentile(installs, 0.50), speed, len(installs)},
		{"recovery_s", "s", median(recoveries), cpuSpeed, len(recoveries)},
		{"cpu_us_per_op", "us", median(win.cpu), cpuSpeed, submits + timedInstalls},
	} {
		r.set(m.name, m.raw*m.scale, m.unit, m.n)
		r.note("raw %-28s %14.4f %s", m.name, m.raw, m.unit)
	}
	r.set("heap_mb", (float64(ph.heap)-float64(baseHeap))/(1<<20), "MB", 1)
	r.note("timed phase: %.2f s, %d submits, %d policy installs, %d clients (closed loop); submit_qps, submit_p50_ms and cpu_us_per_op are medians over %d windows of %s",
		ph.elapsed.Seconds(), submits, timedInstalls, cfg.clients, len(win.qps), window)
	r.note("calibration: %d bursts of %s; kernel rate median %.1f/s (range %.1f-%.1f), processor time per iteration median %.2f us (range %.2f-%.2f); speed %.4f, cpu speed %.4f",
		len(cal.rates), calibrationBurst, median(cal.rates), slices.Min(cal.rates), slices.Max(cal.rates),
		median(cal.cpus), slices.Min(cal.cpus), slices.Max(cal.cpus), speed, cpuSpeed)
	r.note("heap_mb: HeapInuse after GC %.2f MB at the end of the timed phase minus the harness baseline %.2f MB (stream and preallocated client logs, taken before set-up)",
		float64(ph.heap)/(1<<20), float64(baseHeap)/(1<<20))
	r.note("error_frac: %d failed of %d requests sent", r.failed, r.attempted)
	return r, nil
}

// installLatencies picks the policy installs a run reports: the timed
// installs under load on app-onboarding, the set-up onboarding of the
// apps on the other workloads.
func installLatencies(cfg config, setup []time.Duration, ph *phase) []time.Duration {
	if !cfg.spec.onboarding {
		return setup
	}
	var out []time.Duration
	for _, lg := range ph.logs {
		out = append(out, lg.installs...)
	}
	return out
}

// measureRecovery crashes d and measures the time until the service is
// back, cfg.recoveryReps times, checking each recovered state:
//
//   - durable primary: the store is abandoned without Close and reopened
//     (OpenDurable + server.New). Every app's session must equal its state
//     before the crash, and, on the last reopen, every app's last refused
//     query must still be refused.
//   - in-memory primary: nothing survives a crash; recovery is a restart
//     that loads the graph and re-onboards every app.
//
// A calibration burst runs before every recovery and after the last. It
// returns the recovery samples and the number of logged operations the
// last recovery replayed.
func measureRecovery(cfg config, st *stream, d *deployment, logs []*clientLog, f *failures, cal *calibrator) ([]float64, int, error) {
	var samples []float64
	replayed := 0
	refused := lastRefusals(st, logs)
	var before map[string]session
	if cfg.spec.durable {
		before = sessions(d.sys, st)
		release := d.crash()
		defer release()
	} else {
		d.close()
	}
	for i := 0; i < cfg.recoveryReps; i++ {
		if err := cal.burst(); err != nil {
			return nil, 0, err
		}
		t0 := time.Now()
		var nd *deployment
		var err error
		if cfg.spec.durable {
			nd, err = reopen(d.dir)
		} else {
			nd, err = deploy(cfg, st, "")
		}
		if err != nil {
			return nil, 0, err
		}
		samples = append(samples, time.Since(t0).Seconds())
		progress("recovery %d: %.2f s", i, samples[i])
		if cfg.spec.durable {
			replayed = nd.dur.Replayed()
			compareSessions(f, "recovery", before, sessions(nd.sys, st))
			if i == cfg.recoveryReps-1 {
				checkStillRefused(f, "recovery", st, refused, nd.sys.Decide)
			}
		}
		nd.close()
	}
	return samples, replayed, cal.burst()
}

// decider is the decision half of a submission, System.Decide.
type decider func(principal string, q *disclosure.Query) (disclosure.Decision, error)
