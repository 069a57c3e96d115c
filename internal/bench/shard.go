package bench

import (
	"fmt"

	disclosure "repro"
)

// ShardConfig configures the sharded-durability experiment: submit
// throughput of a durable System swept over data-shard count ×
// submission concurrency, with and without group commit. The baseline
// point — one shard, group commit off — is the pre-sharding pipeline
// (one log, one lock, one fsync per decision); the headline point —
// many shards, group commit on — shows what shard-local locks plus
// coalesced fsyncs buy once enough concurrent submitters exist to fill
// commit windows. Each concurrency level runs one principal per
// submitter, so the consistent-hash router actually spreads the load
// across shards (a single hot principal would serialize on its monitor
// no matter the layout).
type ShardConfig struct {
	// Queries per measurement point.
	Queries int
	// Pool is the number of distinct queries pre-generated and replayed
	// round-robin.
	Pool int
	// Users sizes the populated graph the workload runs over.
	Users int
	// Shards lists the data-shard counts to sweep.
	Shards []int
	// Goroutines is the x-axis: concurrent submitters (= principals).
	Goroutines []int
	// MaxAtoms bounds query size, as in Figure 5 (a multiple of 3).
	MaxAtoms int
	// Seed makes workloads and graphs reproducible.
	Seed int64
}

// DefaultShardConfig returns a unit-scale configuration covering the
// baseline (1 shard, no group commit) and the headline (8 shards, group
// commit) at 1 and 8 concurrent submitters.
func DefaultShardConfig() ShardConfig {
	return ShardConfig{
		Queries:    6_000,
		Pool:       500,
		Users:      200,
		Shards:     []int{1, 8},
		Goroutines: []int{1, 8},
		MaxAtoms:   9,
		Seed:       2013,
	}
}

// RunShard runs the sharded-durability experiment and returns one
// "submit s=<shards> gc=<on|off>" series per (shard count, group-commit
// mode) pair, X = concurrent submitters, normalized per million queries.
// The summary holds each group-commit series' speedup over the 1-shard
// per-operation-fsync baseline per point.
func RunShard(cfg ShardConfig) (*Report, error) {
	if cfg.Queries <= 0 || cfg.Pool <= 0 {
		return nil, fmt.Errorf("bench: Queries and Pool must be positive")
	}
	if err := checkMaxAtoms(cfg.MaxAtoms); err != nil {
		return nil, err
	}
	if cfg.Users < 1 {
		return nil, fmt.Errorf("bench: Users must be at least 1")
	}
	if len(cfg.Shards) == 0 || len(cfg.Goroutines) == 0 {
		return nil, fmt.Errorf("bench: Shards and Goroutines must be non-empty")
	}
	pool, err := queryPool(workloadOptions(cfg.Seed, cfg.MaxAtoms), cfg.Pool)
	if err != nil {
		return nil, err
	}

	r := newReport("shard", cfg)
	for _, shards := range cfg.Shards {
		if shards < 1 {
			return nil, fmt.Errorf("bench: shard count must be positive, got %d", shards)
		}
		for _, groupCommit := range []bool{false, true} {
			mode := "off"
			if groupCommit {
				mode = "on"
			}
			series := Series{Name: fmt.Sprintf("submit s=%d gc=%s", shards, mode), XLabel: "goroutines"}
			for _, g := range cfg.Goroutines {
				if g <= 0 {
					return nil, fmt.Errorf("bench: goroutine count must be positive, got %d", g)
				}
				elapsed, err := runShardPoint(cfg, pool, shards, groupCommit, g)
				if err != nil {
					return nil, fmt.Errorf("bench: %s g=%d: %w", series.Name, g, err)
				}
				series.Points = append(series.Points, timedPoint(g, cfg.Queries, elapsed))
			}
			r.Series = append(r.Series, series)
		}
	}
	for _, s := range cfg.Shards {
		r.speedup(fmt.Sprintf("speedup_s%d_gc_on_vs_s1_gc_off", s), "submit s=1 gc=off", fmt.Sprintf("submit s=%d gc=on", s))
	}
	return r, nil
}

// runShardPoint measures one (shards, group commit, concurrency) point on
// a freshly initialized durable deployment with one principal per
// submitter.
func runShardPoint(cfg ShardConfig, pool []*disclosure.Query, shards int, groupCommit bool, g int) (float64, error) {
	f, err := newFixture(&disclosure.DurabilityOptions{Shards: shards, NoGroupCommit: !groupCommit}, cfg.Users, cfg.Seed, g)
	if err != nil {
		return 0, err
	}
	defer f.close()
	principals := make([]string, g)
	for i := range principals {
		principals[i] = principal(i)
	}
	return timeConcurrent(cfg.Queries, g, func(i int) error {
		_, _, err := f.sys.Submit(principals[i%g], pool[i%len(pool)])
		return err
	})
}
