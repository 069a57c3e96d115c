package bench

import (
	"fmt"
	"math/rand"
	"time"
)

// The throughput experiments (RunEngine, RunServe) measure the friendly
// regime the paper's Section 7.2 assumes: a bounded template space replayed
// by uniformly active principals, so every cache converges to its warm
// steady state. RunAdversarial measures the other end: traffic engineered
// against the system's two caches and its per-principal serialization.
// Principals are drawn from a Zipf distribution (a handful of hot apps take
// most of the traffic, concentrating the reference monitor's per-principal
// locks), and the query stream comes in two shapes — "repetitive", the
// friendly bounded pool, and "hostile", where every submission is a fresh
// template and the label and plan caches are shrunk until they thrash.
// Reported tail latencies (p99 under concurrency) are therefore worst-case
// figures, not steady-state figures.

// AdversarialConfig configures the adversarial tail-latency experiment.
type AdversarialConfig struct {
	// Queries is the number of submissions measured per cell.
	Queries int `json:"queries"`
	// Users is the size of the synthetic social graph.
	Users int `json:"users"`
	// MaxAtoms bounds query size, as in Figure 5 (a multiple of 3).
	MaxAtoms int `json:"max_atoms"`
	// Principals is the number of installed principals; submissions draw
	// principals Zipf-skewed so a few of them serialize most traffic.
	Principals int `json:"principals"`
	// ZipfS is the Zipf exponent (>1; larger = more skew).
	ZipfS float64 `json:"zipf_s"`
	// Pool is the template-pool size of the repetitive (cache-friendly)
	// mode. The hostile mode ignores it and gives every submission its own
	// template.
	Pool int `json:"pool"`
	// CacheCapacity is the label- and plan-cache entry bound of the hostile
	// mode (the repetitive mode keeps the defaults).
	CacheCapacity int `json:"cache_capacity"`
	// Goroutines lists the submission concurrency levels to measure.
	Goroutines []int `json:"goroutines"`
	// Seed makes graphs, workloads and principal draws reproducible.
	Seed int64 `json:"seed"`
}

// DefaultAdversarialConfig returns a unit-scale configuration.
func DefaultAdversarialConfig() AdversarialConfig {
	return AdversarialConfig{
		Queries:       30_000,
		Users:         300,
		MaxAtoms:      9,
		Principals:    256,
		ZipfS:         1.2,
		Pool:          2_000,
		CacheCapacity: 256,
		Goroutines:    []int{1, 4, 16},
		Seed:          2013,
	}
}

// AdversarialModes lists the measured traffic shapes.
var AdversarialModes = []string{"repetitive", "hostile"}

// RunAdversarial runs the adversarial experiment: for each mode and each
// concurrency level a fresh system (fresh graph, cold caches), Zipf-skewed
// principal draws, and a measured closed-loop run recording every
// submission's latency. The report has one series per mode, X =
// goroutines, with throughput, latency percentiles in microseconds, the
// outcome counters and the label- and plan-cache hit rates per cell.
func RunAdversarial(cfg AdversarialConfig) (*Report, error) {
	if cfg.Queries <= 0 || cfg.Pool <= 0 {
		return nil, fmt.Errorf("bench: Queries and Pool must be positive")
	}
	if cfg.Users < 1 || cfg.Principals < 1 {
		return nil, fmt.Errorf("bench: Users and Principals must be at least 1")
	}
	if err := checkMaxAtoms(cfg.MaxAtoms); err != nil {
		return nil, err
	}
	if cfg.ZipfS <= 1 {
		return nil, fmt.Errorf("bench: ZipfS must be > 1, got %g", cfg.ZipfS)
	}
	if cfg.CacheCapacity < 1 {
		return nil, fmt.Errorf("bench: CacheCapacity must be at least 1")
	}
	r := newReport("adversarial", cfg)
	for _, mode := range AdversarialModes {
		s := Series{Name: mode, XLabel: "goroutines"}
		for _, g := range cfg.Goroutines {
			if g < 1 {
				return nil, fmt.Errorf("bench: goroutine count %d must be at least 1", g)
			}
			p, err := runAdversarialCell(cfg, mode, g)
			if err != nil {
				return nil, fmt.Errorf("bench: adversarial (%s, g=%d): %w", mode, g, err)
			}
			s.Points = append(s.Points, p)
		}
		r.Series = append(r.Series, s)
	}
	return r, nil
}

// runAdversarialCell measures one (mode, goroutines) cell on a fresh system.
func runAdversarialCell(cfg AdversarialConfig, mode string, g int) (Point, error) {
	f, err := newFixture(nil, cfg.Users, cfg.Seed, cfg.Principals)
	if err != nil {
		return Point{}, err
	}
	defer f.close()
	sys := f.sys

	// The hostile mode shrinks both canonical-form caches and gives every
	// submission a distinct template, so lookups thrash instead of warming.
	pool := cfg.Pool
	if mode == "hostile" {
		sys.SetCacheCapacity(cfg.CacheCapacity)
		sys.SetPlanCacheCapacity(cfg.CacheCapacity)
		pool = cfg.Queries
	}
	queries, err := queryPool(workloadOptions(cfg.Seed, cfg.MaxAtoms), pool)
	if err != nil {
		return Point{}, err
	}

	// Pre-draw the per-submission principal (Zipf over rank: principal 0
	// hottest) and template indices, so the measured loop does no random
	// number generation and the draw sequence is independent of g.
	rng := rand.New(rand.NewSource(cfg.Seed))
	zipf := rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.Principals-1))
	who := make([]uint16, cfg.Queries)
	for i := range who {
		who[i] = uint16(zipf.Uint64())
	}
	principals := make([]string, cfg.Principals)
	for i := range principals {
		principals[i] = principal(i)
	}

	before := sys.Stats()
	lat := make([]time.Duration, cfg.Queries)
	elapsed, err := timeConcurrent(cfg.Queries, g, func(i int) error {
		t0 := time.Now()
		_, _, err := sys.Submit(principals[who[i]], queries[i%len(queries)])
		lat[i] = time.Since(t0)
		return err
	})
	if err != nil {
		return Point{}, err
	}
	after := sys.Stats()

	v := map[string]float64{
		"queries":         float64(cfg.Queries),
		"elapsed_seconds": elapsed,
		"throughput_qps":  float64(cfg.Queries) / elapsed,
		"admitted":        float64(after.Admitted - before.Admitted),
		"refused":         float64(after.Refused - before.Refused),
		"errored":         float64(after.Errored - before.Errored),
		"label_hit_rate":  after.Cache.HitRate(),
		"plan_hit_rate":   after.Plans.HitRate(),
	}
	addLatencies(v, lat, "us")
	return Point{X: g, Values: v}, nil
}
