// Package bench implements the paper's evaluation harness (Section 7.2)
// and its systems experiments: the disclosure-labeler throughput
// experiment of Figure 5 (RunFigure5), the policy-checker throughput
// experiment of Figure 6 (RunFigure6), the schema-scaling experiment of
// footnote 3 (RunFootnote3), and the label-cache, engine, HTTP serving,
// durability, adversarial, sharding, replication, observability and
// failover experiments. Every runner returns one Report; Experiments is
// the registry cmd/disclosurebench runs them from.
package bench

import (
	"fmt"
	"time"

	"repro/internal/fb"
	"repro/internal/label"
	"repro/internal/workload"
)

// Figure5Config configures the labeler-throughput experiment.
type Figure5Config struct {
	// Queries per measurement point. The paper uses 1,000,000; smaller
	// values keep unit tests fast and scale linearly.
	Queries int
	// MaxAtoms is the x-axis: the maximum number of atoms per query.
	// Values must be multiples of 3 (each subquery contributes up to three
	// atoms); the paper plots {3, 6, 9, 12, 15}.
	MaxAtoms []int
	// Seed makes workloads reproducible.
	Seed int64
}

// DefaultFigure5Config returns the paper's configuration.
func DefaultFigure5Config() Figure5Config {
	return Figure5Config{Queries: 1_000_000, MaxAtoms: []int{3, 6, 9, 12, 15}, Seed: 2013}
}

// Figure5Variants lists the measured labeler variants in the paper's legend
// order (top to bottom in the figure legend: generation only, bitvec +
// hashing, hashing only, baseline).
var Figure5Variants = []string{"query generation only", "bit vectors + hashing", "hashing only", "baseline"}

// RunFigure5 runs the labeler-throughput experiment and returns one series
// per variant, with the bit-vector+hashing speedup over the baseline per
// point in the summary.
func RunFigure5(cfg Figure5Config) (*Report, error) {
	if cfg.Queries <= 0 {
		return nil, fmt.Errorf("bench: Queries must be positive")
	}
	cat, err := fb.Catalog()
	if err != nil {
		return nil, err
	}
	variants := map[string]label.Labeler{
		"bit vectors + hashing": label.NewLabeler(cat),
		"hashing only":          label.NewHashedLabeler(cat),
		"baseline":              label.NewBaselineLabeler(cat),
	}
	r := newReport("figure5", cfg)
	for _, name := range Figure5Variants {
		s := Series{Name: name, XLabel: "max_atoms"}
		for _, ma := range cfg.MaxAtoms {
			if err := checkMaxAtoms(ma); err != nil {
				return nil, err
			}
			gen := workload.MustNew(fb.Schema(), workloadOptions(cfg.Seed, ma))
			start := time.Now()
			if name == "query generation only" {
				for i := 0; i < cfg.Queries; i++ {
					_ = gen.Next()
				}
			} else {
				l := variants[name]
				for i := 0; i < cfg.Queries; i++ {
					if _, err := l.Label(gen.Next()); err != nil {
						return nil, fmt.Errorf("bench: labeling failed: %w", err)
					}
				}
			}
			s.Points = append(s.Points, timedPoint(ma, cfg.Queries, time.Since(start).Seconds()))
		}
		r.Series = append(r.Series, s)
	}
	r.speedup("speedup_bitvec_hashing_vs_baseline", "baseline", "bit vectors + hashing")
	return r, nil
}
