package bench

import (
	"fmt"

	"repro/internal/fb"
	"repro/internal/label"
)

// CachedConfig configures the memoized-labeling throughput experiment: the
// Figure-5 workload replayed from a bounded template pool (the app-ecosystem
// regime: many users, few query templates), labeled with and without the
// canonical-fingerprint cache at several goroutine counts.
type CachedConfig struct {
	// Queries per measurement point.
	Queries int
	// Pool is the number of distinct queries pre-generated per point and
	// replayed round-robin; it bounds the template space.
	Pool int
	// MaxAtoms is the x-axis, as in Figure 5.
	MaxAtoms []int
	// Goroutines lists the submission concurrency levels to measure.
	Goroutines []int
	// CacheCapacity bounds the label cache. Non-positive sizes it to hold
	// the whole template pool (2×Pool), so the default run measures the
	// warm repetitive-traffic regime; set it below Pool to study eviction
	// thrash instead.
	CacheCapacity int
	// Seed makes workloads reproducible.
	Seed int64
}

// DefaultCachedConfig returns a configuration sized like the unit-scale
// Figure-5 runs.
func DefaultCachedConfig() CachedConfig {
	return CachedConfig{
		Queries:    200_000,
		Pool:       5_000,
		MaxAtoms:   []int{3, 9, 15},
		Goroutines: []int{1, 4, 16},
		Seed:       2013,
	}
}

// RunCached runs the cached-vs-uncached labeling experiment and returns one
// series per (variant, goroutine count) pair.
func RunCached(cfg CachedConfig) (*Report, error) {
	if cfg.Queries <= 0 || cfg.Pool <= 0 {
		return nil, fmt.Errorf("bench: Queries and Pool must be positive")
	}
	cat, err := fb.Catalog()
	if err != nil {
		return nil, err
	}
	capacity := cfg.CacheCapacity
	if capacity <= 0 {
		capacity = 2 * cfg.Pool
	}
	variants := []struct {
		name string
		mk   func() label.Labeler
	}{
		{"uncached bitvec+hashing", func() label.Labeler { return label.NewLabeler(cat) }},
		{"cached bitvec+hashing", func() label.Labeler {
			return label.NewCachedLabeler(label.NewLabeler(cat), capacity)
		}},
	}
	r := newReport("cached", cfg)
	for _, v := range variants {
		for _, g := range cfg.Goroutines {
			if g <= 0 {
				return nil, fmt.Errorf("bench: goroutine count must be positive, got %d", g)
			}
			s := Series{Name: fmt.Sprintf("%s g=%d", v.name, g), XLabel: "max_atoms"}
			for _, ma := range cfg.MaxAtoms {
				if err := checkMaxAtoms(ma); err != nil {
					return nil, err
				}
				pool, err := queryPool(workloadOptions(cfg.Seed, ma), cfg.Pool)
				if err != nil {
					return nil, err
				}
				l := v.mk() // fresh labeler (and cache) per point
				elapsed, err := timeConcurrent(cfg.Queries, g, func(i int) error {
					_, err := l.Label(pool[i%len(pool)])
					return err
				})
				if err != nil {
					return nil, fmt.Errorf("bench: labeling failed: %w", err)
				}
				s.Points = append(s.Points, timedPoint(ma, cfg.Queries, elapsed))
			}
			r.Series = append(r.Series, s)
		}
	}
	return r, nil
}
