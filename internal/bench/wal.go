package bench

import (
	"fmt"
	"time"

	disclosure "repro"
	"repro/internal/fb"
)

// WALConfig configures the durability experiment: the cost of write-ahead
// logging every state-changing operation, measured on the two write paths
// — Submit (one logged decision per query) and LoadBatch (one logged
// record per batch) — against the in-memory System as the baseline. Three
// variants run: "memory" (no WAL), "wal" (fsync per operation, the
// default durability contract) and "wal-nosync" (OS-buffered appends,
// surviving process crashes but not power loss).
type WALConfig struct {
	// Queries per submit measurement point.
	Queries int
	// Pool is the number of distinct queries pre-generated and replayed
	// round-robin.
	Pool int
	// Users sizes the populated graph the submit workload runs over.
	Users int
	// LoadUsers is the x-axis of the load series: synthetic social graphs
	// of these sizes are bulk-loaded, timed per row.
	LoadUsers []int
	// Goroutines is the x-axis of the submit series: submission
	// concurrency levels (the WAL serializes decisions, so this measures
	// how much of the logging cost concurrency hides).
	Goroutines []int
	// MaxAtoms bounds query size, as in Figure 5 (a multiple of 3).
	MaxAtoms int
	// Seed makes workloads and graphs reproducible.
	Seed int64
}

// DefaultWALConfig returns a unit-scale configuration.
func DefaultWALConfig() WALConfig {
	return WALConfig{
		Queries:    10_000,
		Pool:       1_000,
		Users:      200,
		LoadUsers:  []int{100, 300},
		Goroutines: []int{1, 4},
		MaxAtoms:   9,
		Seed:       2013,
	}
}

// walVariants lists the three durability modes: nil opens in memory.
var walVariants = []struct {
	name    string
	durable *disclosure.DurabilityOptions
}{
	{"memory", nil},
	{"wal", &disclosure.DurabilityOptions{}},
	{"wal-nosync", &disclosure.DurabilityOptions{NoSync: true}},
}

// RunWAL runs the durability experiment and returns one "submit <variant>"
// series (X = goroutines, normalized per million queries) and one
// "load <variant>" series (X = users in the loaded graph, normalized per
// million rows) per durability mode. The summary holds the slowdown of
// the fsync-per-operation submit path over the in-memory one per point.
func RunWAL(cfg WALConfig) (*Report, error) {
	if cfg.Queries <= 0 || cfg.Pool <= 0 {
		return nil, fmt.Errorf("bench: Queries and Pool must be positive")
	}
	if err := checkMaxAtoms(cfg.MaxAtoms); err != nil {
		return nil, err
	}
	if cfg.Users < 1 {
		return nil, fmt.Errorf("bench: Users must be at least 1")
	}
	pool, err := queryPool(workloadOptions(cfg.Seed, cfg.MaxAtoms), cfg.Pool)
	if err != nil {
		return nil, err
	}

	r := newReport("wal", cfg)
	for _, v := range walVariants {
		// Submit path: populated graph, one permissive principal, timed
		// submissions (decisions logged per query on the durable modes).
		s := Series{Name: "submit " + v.name, XLabel: "goroutines"}
		for _, g := range cfg.Goroutines {
			if g <= 0 {
				return nil, fmt.Errorf("bench: goroutine count must be positive, got %d", g)
			}
			f, err := newFixture(v.durable, cfg.Users, cfg.Seed, 1)
			if err != nil {
				return nil, fmt.Errorf("bench: wal %s: %w", v.name, err)
			}
			elapsed, err := timeConcurrent(cfg.Queries, g, func(i int) error {
				_, _, err := f.sys.Submit(principal(0), pool[i%len(pool)])
				return err
			})
			f.close()
			if err != nil {
				return nil, fmt.Errorf("bench: wal %s submit: %w", v.name, err)
			}
			s.Points = append(s.Points, timedPoint(g, cfg.Queries, elapsed))
		}
		r.Series = append(r.Series, s)
	}
	for _, v := range walVariants {
		// Load path: one bulk LoadBatch of a synthetic graph, timed per
		// inserted row (one logged record per batch on the durable modes).
		s := Series{Name: "load " + v.name, XLabel: "users"}
		for _, users := range cfg.LoadUsers {
			if users < 1 {
				return nil, fmt.Errorf("bench: LoadUsers value %d must be at least 1", users)
			}
			f, err := openFixture(v.durable)
			if err != nil {
				return nil, fmt.Errorf("bench: wal %s: %w", v.name, err)
			}
			start := time.Now()
			err = f.sys.LoadBatch(func(ld *disclosure.Loader) error {
				return fb.GenerateGraph(ld, users, cfg.Seed)
			})
			elapsed := time.Since(start).Seconds()
			if err != nil {
				f.close()
				return nil, fmt.Errorf("bench: wal %s load: %w", v.name, err)
			}
			rows := 0
			for _, rel := range fb.Schema().Relations() {
				rows += f.sys.Table(rel.Name()).Len()
			}
			f.close()
			s.Points = append(s.Points, timedPoint(users, rows, elapsed))
		}
		r.Series = append(r.Series, s)
	}
	r.speedup("slowdown_wal_vs_memory", "submit wal", "submit memory")
	return r, nil
}
