package bench

import (
	"fmt"
	"time"

	"repro/internal/cq"
	"repro/internal/label"
	"repro/internal/schema"
	"repro/internal/workload"
)

// Footnote3Config configures the schema-size experiment from the paper's
// footnote 3: "In preliminary tests on synthetic data, we tried increasing
// the total number of relations to 1,000 while keeping the number of
// security views per relation constant; the total number of relations did
// not have any appreciable impact on the hash-based disclosure labelers'
// throughput."
type Footnote3Config struct {
	// Queries per measurement point.
	Queries int
	// Relations is the x-axis: total relations in the synthetic schema.
	Relations []int
	// ViewsPerRelation stays constant as the schema grows (3, like most of
	// the paper's non-User relations).
	ViewsPerRelation int
	Seed             int64
}

// DefaultFootnote3Config returns the footnote's parameters at a laptop
// scale.
func DefaultFootnote3Config() Footnote3Config {
	return Footnote3Config{
		Queries:          100_000,
		Relations:        []int{8, 100, 1000},
		ViewsPerRelation: 3,
		Seed:             2013,
	}
}

// syntheticSchema builds n five-attribute relations, each with uid and
// is_friend columns so the workload generator applies.
func syntheticSchema(n int) (*schema.Schema, error) {
	rels := make([]*schema.Relation, 0, n+1)
	// The friend relation backs the workload generator's scope joins.
	rels = append(rels, schema.MustRelation("friend", "uid", "uid2", "since"))
	for i := 0; i < n; i++ {
		r, err := schema.NewRelation(fmt.Sprintf("rel%d", i),
			"uid", "a", "b", "c", "is_friend")
		if err != nil {
			return nil, err
		}
		rels = append(rels, r)
	}
	return schema.New(rels...)
}

// syntheticViews builds k projection views per relation: self-scoped all
// attributes, friends-scoped all attributes, and a public projection —
// mirroring the Facebook catalog's per-relation pattern.
func syntheticViews(s *schema.Schema, k int) ([]*cq.Query, error) {
	var out []*cq.Query
	for _, r := range s.Relations() {
		if r.Name() == "friend" {
			// The friend list is available to every app (as in the paper).
			fl, err := cq.ParseQuery("friend_list(u, s) :- friend('me', u, s)")
			if err != nil {
				return nil, err
			}
			out = append(out, fl)
			continue
		}
		for v := 0; v < k; v++ {
			args := make([]cq.Term, r.Arity())
			var head []cq.Term
			for i := 0; i < r.Arity(); i++ {
				args[i] = cq.V(fmt.Sprintf("x%d", i))
			}
			switch v % 3 {
			case 0: // self: uid = me, expose the rest
				args[0] = cq.C("me")
				head = []cq.Term{args[1], args[2], args[3]}
			case 1: // friends: is_friend = 1, expose uid + attrs
				args[4] = cq.C("1")
				head = []cq.Term{args[0], args[1], args[2]}
			default: // public projection
				head = []cq.Term{args[0], args[1]}
			}
			q, err := cq.NewQuery(fmt.Sprintf("%s_v%d", r.Name(), v), head,
				[]cq.Atom{{Rel: r.Name(), Args: args}})
			if err != nil {
				return nil, err
			}
			out = append(out, q)
		}
	}
	return out, nil
}

// RunFootnote3 measures labeler throughput as the relation count grows,
// for the hashed+bitvec labeler and the baseline.
func RunFootnote3(cfg Footnote3Config) (*Report, error) {
	if cfg.Queries <= 0 {
		return nil, fmt.Errorf("bench: Queries must be positive")
	}
	if cfg.ViewsPerRelation <= 0 {
		cfg.ViewsPerRelation = 3
	}
	hashed := Series{Name: "bit vectors + hashing", XLabel: "relations"}
	baseline := Series{Name: "baseline", XLabel: "relations"}
	for _, n := range cfg.Relations {
		s, err := syntheticSchema(n)
		if err != nil {
			return nil, err
		}
		views, err := syntheticViews(s, cfg.ViewsPerRelation)
		if err != nil {
			return nil, err
		}
		cat, err := label.NewCatalog(s, views...)
		if err != nil {
			return nil, err
		}
		for _, variant := range []struct {
			l      label.Labeler
			series *Series
		}{
			{label.NewLabeler(cat), &hashed},
			{label.NewBaselineLabeler(cat), &baseline},
		} {
			gen, err := workload.New(s, workloadOptions(cfg.Seed, 3))
			if err != nil {
				return nil, err
			}
			start := time.Now()
			for i := 0; i < cfg.Queries; i++ {
				if _, err := variant.l.Label(gen.Next()); err != nil {
					return nil, err
				}
			}
			variant.series.Points = append(variant.series.Points, timedPoint(n, cfg.Queries, time.Since(start).Seconds()))
		}
	}
	r := newReport("footnote3", cfg)
	r.Series = []Series{hashed, baseline}
	return r, nil
}
