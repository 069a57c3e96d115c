package bench

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/fb"
	"repro/internal/label"
	"repro/internal/workload"
)

// Figure6Config configures the policy-checker throughput experiment
// (Section 7.2, Figure 6): randomly generated per-principal policies,
// disclosure labels randomly assigned to principals, and the per-partition
// consistency bit vectors of Section 6.2 doing the bookkeeping.
type Figure6Config struct {
	// Labels per measurement point (the paper analyzes one million labels
	// drawn from a pool of ten million).
	Labels int
	// LabelPool is the number of distinct pre-labeled queries to draw
	// from; labels are reused round-robin beyond this. The paper's pool is
	// 10M labels of 1–3 atom queries; a pool of ~100k is statistically
	// indistinguishable for throughput and fits small machines.
	LabelPool int
	// Principals is one curve parameter: {1_000, 50_000, 1_000_000}.
	Principals []int
	// MaxPartitions is the other: 1 (stateless) or 5 (Chinese Wall).
	MaxPartitions []int
	// MaxElems is the x-axis: maximum security views per partition,
	// {5, 10, ..., 50} in the paper.
	MaxElems []int
	// Seed makes runs reproducible.
	Seed int64
}

// DefaultFigure6Config returns the paper's configuration (with a bounded
// label pool; see LabelPool).
func DefaultFigure6Config() Figure6Config {
	return Figure6Config{
		Labels:        1_000_000,
		LabelPool:     200_000,
		Principals:    []int{1_000, 50_000, 1_000_000},
		MaxPartitions: []int{1, 5},
		MaxElems:      []int{5, 10, 15, 20, 25, 30, 35, 40, 45, 50},
		Seed:          2013,
	}
}

// compactPolicies is the benchmark's flat policy store: every partition is
// a contiguous run of packed atom labels, principals index into it, and
// liveness is one byte per principal (at most 8 partitions). This mirrors
// the memory layout of the paper's C policy checker.
type compactPolicies struct {
	masks      []uint64 // all partition elements, concatenated
	partEnd    []int32  // end offset (into masks) of each partition
	prinPart   []int32  // per principal: first partition index
	prinNPart  []uint8  // per principal: partition count
	live       []uint8  // per principal: liveness bits
	initialLiv []uint8
}

// buildPolicies generates random policies: each principal gets between 1
// and maxPartitions partitions, each holding between 1 and maxElems
// security views drawn from the catalog (with their precomputed ℓ⁺ packed
// labels).
func buildPolicies(cat *label.Catalog, rng *rand.Rand, principals, maxPartitions, maxElems int) (*compactPolicies, error) {
	if maxPartitions > 8 {
		return nil, fmt.Errorf("bench: compact store supports at most 8 partitions, got %d", maxPartitions)
	}
	// Precompute the packed ℓ⁺ label of every security view once.
	viewMasks := make([]uint64, cat.Len())
	views := cat.Views()
	for i, v := range views {
		lbl, err := label.LabelViews(cat, views[i:i+1])
		if err != nil {
			return nil, err
		}
		if len(lbl.Atoms) != 1 || len(lbl.Atoms[0].Spill) != 0 {
			return nil, fmt.Errorf("bench: view %s does not have a packed single-atom label", v.Name)
		}
		viewMasks[i] = lbl.Atoms[0].Packed
	}
	cp := &compactPolicies{
		prinPart:  make([]int32, principals),
		prinNPart: make([]uint8, principals),
		live:      make([]uint8, principals),
	}
	for p := 0; p < principals; p++ {
		nPart := 1 + rng.Intn(maxPartitions)
		cp.prinPart[p] = int32(len(cp.partEnd))
		cp.prinNPart[p] = uint8(nPart)
		cp.live[p] = uint8(1<<uint(nPart)) - 1
		for k := 0; k < nPart; k++ {
			nElem := 1 + rng.Intn(maxElems)
			for e := 0; e < nElem; e++ {
				cp.masks = append(cp.masks, viewMasks[rng.Intn(len(viewMasks))])
			}
			cp.partEnd = append(cp.partEnd, int32(len(cp.masks)))
		}
	}
	cp.initialLiv = append([]uint8(nil), cp.live...)
	return cp, nil
}

// reset restores all liveness bits.
func (cp *compactPolicies) reset() { copy(cp.live, cp.initialLiv) }

// check decides one label for one principal, updating liveness exactly as
// policy.Monitor.Submit does. Labels are passed as packed atom slices; an
// empty slice is ⊥ (always allowed).
func (cp *compactPolicies) check(principal int32, atoms []uint64) bool {
	liv := cp.live[principal]
	if liv == 0 {
		return false
	}
	first := cp.prinPart[principal]
	n := int(cp.prinNPart[principal])
	var next uint8
	for k := 0; k < n; k++ {
		bit := uint8(1) << uint(k)
		if liv&bit == 0 {
			continue
		}
		pi := first + int32(k)
		start := int32(0)
		if pi > 0 {
			start = cp.partEnd[pi-1]
		}
		end := cp.partEnd[pi]
		// label ≼ partition: every atom has a dominating partition element.
		ok := true
		for _, a := range atoms {
			found := false
			for i := start; i < end; i++ {
				w := cp.masks[i]
				// Same relation id and ℓ⁺(w) ⊆ ℓ⁺(a).
				if uint32(w) == uint32(a) && (w>>32)&^(a>>32) == 0 {
					found = true
					break
				}
			}
			if !found {
				ok = false
				break
			}
		}
		if ok {
			next |= bit
		}
	}
	if next == 0 {
		return false
	}
	cp.live[principal] = next
	return true
}

// RunFigure6 runs the policy-checker experiment and returns one series per
// (partitions, principals) combination, named as in the paper's legend,
// e.g. "5-way, 1M users".
func RunFigure6(cfg Figure6Config) (*Report, error) {
	if cfg.Labels <= 0 {
		return nil, fmt.Errorf("bench: Labels must be positive")
	}
	if cfg.LabelPool <= 0 {
		cfg.LabelPool = 100_000
	}
	cat, err := fb.Catalog()
	if err != nil {
		return nil, err
	}
	// Pre-label a pool of 1–3 atom queries (the paper reuses the labels
	// produced by the Figure-5 experiment).
	gen := workload.MustNew(fb.Schema(), workloadOptions(cfg.Seed, 3))
	labeler := label.NewLabeler(cat)
	pool := make([][]uint64, cfg.LabelPool)
	for i := range pool {
		lbl, err := labeler.Label(gen.Next())
		if err != nil {
			return nil, err
		}
		atoms := make([]uint64, 0, len(lbl.Atoms))
		for _, a := range lbl.Atoms {
			atoms = append(atoms, a.Packed)
		}
		pool[i] = atoms
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	r := newReport("figure6", cfg)
	for _, maxPart := range cfg.MaxPartitions {
		for _, principals := range cfg.Principals {
			s := Series{Name: fmt.Sprintf("%d-way, %s users", maxPart, humanCount(principals)), XLabel: "max_elems"}
			for _, maxElems := range cfg.MaxElems {
				cp, err := buildPolicies(cat, rng, principals, maxPart, maxElems)
				if err != nil {
					return nil, err
				}
				// Pre-assign labels to principals so assignment cost stays
				// out of the timed loop.
				assign := make([]int32, cfg.Labels)
				labelIdx := make([]int32, cfg.Labels)
				for i := range assign {
					assign[i] = int32(rng.Intn(principals))
					labelIdx[i] = int32(rng.Intn(len(pool)))
				}
				start := time.Now()
				allowed := 0
				for i := 0; i < cfg.Labels; i++ {
					if cp.check(assign[i], pool[labelIdx[i]]) {
						allowed++
					}
				}
				s.Points = append(s.Points, timedPoint(maxElems, cfg.Labels, time.Since(start).Seconds()))
			}
			r.Series = append(r.Series, s)
		}
	}
	return r, nil
}

func humanCount(n int) string {
	switch {
	case n >= 1_000_000 && n%1_000_000 == 0:
		return fmt.Sprintf("%dM", n/1_000_000)
	case n >= 1_000 && n%1_000 == 0:
		return fmt.Sprintf("%dK", n/1_000)
	default:
		return fmt.Sprint(n)
	}
}
