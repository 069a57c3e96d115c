package bench

import (
	"fmt"

	"repro/internal/cq"
	"repro/internal/engine"
	"repro/internal/fb"
)

// EngineConfig configures the evaluation-engine throughput experiment: the
// Figure-5 workload replayed from a bounded template pool against synthetic
// social graphs of increasing size, evaluated by the compiled-plan executor
// (dictionary-encoded columns, plan cache, lock-free snapshot reads) and by
// the retained pre-refactor backtracking evaluator on the same data.
type EngineConfig struct {
	// Queries per measurement point.
	Queries int
	// Users is the x-axis: the number of users in the generated graph
	// (every relation grows roughly linearly with it).
	Users []int
	// MaxAtoms bounds query size, as in Figure 5 (a multiple of 3).
	MaxAtoms int
	// Pool is the number of distinct queries pre-generated per point and
	// replayed round-robin; it bounds the template space.
	Pool int
	// Goroutines lists the evaluation concurrency levels to measure.
	Goroutines []int
	// Seed makes workloads and graphs reproducible.
	Seed int64
}

// DefaultEngineConfig returns a unit-scale configuration.
func DefaultEngineConfig() EngineConfig {
	return EngineConfig{
		Queries:    20_000,
		Users:      []int{100, 300, 1000},
		MaxAtoms:   9,
		Pool:       2_000,
		Goroutines: []int{1, 4},
		Seed:       2013,
	}
}

// RunEngine runs the engine experiment and returns one series per
// (variant, goroutine count) pair, with X = users in the graph. Each cell
// starts cold (fresh database, empty plan cache, unmaterialized reference
// state) and warms up within the measured run, mirroring RunCached. The
// summary holds the planned speedup over the reference evaluator per
// goroutine count and point.
func RunEngine(cfg EngineConfig) (*Report, error) {
	if cfg.Queries <= 0 || cfg.Pool <= 0 {
		return nil, fmt.Errorf("bench: Queries and Pool must be positive")
	}
	if err := checkMaxAtoms(cfg.MaxAtoms); err != nil {
		return nil, err
	}
	for _, g := range cfg.Goroutines {
		if g <= 0 {
			return nil, fmt.Errorf("bench: goroutine count must be positive, got %d", g)
		}
	}
	variants := []struct {
		name string
		eval func(db *engine.Database, q *cq.Query) ([]engine.Tuple, error)
	}{
		{"planned", func(db *engine.Database, q *cq.Query) ([]engine.Tuple, error) { return db.Eval(q) }},
		{"reference", func(db *engine.Database, q *cq.Query) ([]engine.Tuple, error) { return db.EvalReference(q) }},
	}
	r := newReport("engine", cfg)
	for _, v := range variants {
		for _, g := range cfg.Goroutines {
			s := Series{Name: fmt.Sprintf("%s g=%d", v.name, g), XLabel: "users"}
			for _, users := range cfg.Users {
				if users < 1 {
					return nil, fmt.Errorf("bench: Users value %d must be at least 1", users)
				}
				pool, err := queryPool(workloadOptions(cfg.Seed, cfg.MaxAtoms), cfg.Pool)
				if err != nil {
					return nil, err
				}
				db := engine.NewDatabase(fb.Schema())
				if err := fb.GenerateGraph(db, users, cfg.Seed); err != nil {
					return nil, err
				}
				elapsed, err := timeConcurrent(cfg.Queries, g, func(i int) error {
					_, err := v.eval(db, pool[i%len(pool)])
					return err
				})
				if err != nil {
					return nil, fmt.Errorf("bench: engine %s (users=%d): %w", v.name, users, err)
				}
				s.Points = append(s.Points, timedPoint(users, cfg.Queries, elapsed))
			}
			r.Series = append(r.Series, s)
		}
	}
	for _, g := range cfg.Goroutines {
		r.speedup(fmt.Sprintf("speedup_planned_vs_reference_g%d", g),
			fmt.Sprintf("reference g=%d", g), fmt.Sprintf("planned g=%d", g))
	}
	return r, nil
}
