package bench

import (
	"flag"
	"fmt"
	"strconv"
	"strings"
)

// Experiment is one entry of the registry cmd/disclosurebench runs.
type Experiment struct {
	Name string
	// Doc is a one-line description.
	Doc string
	// Flags registers on fs the flags the experiment reads, with its
	// defaults, and returns the run to call once fs is parsed.
	Flags func(fs *flag.FlagSet) func() (*Report, error)
}

// Experiments lists every experiment, the paper's figures first.
var Experiments = []Experiment{
	{"figure5", "Figure 5: disclosure-labeler throughput by max atoms per query", figure5Flags},
	{"figure6", "Figure 6: policy-checker throughput by max elements per partition", figure6Flags},
	{"footnote3", "footnote 3: labeler throughput as the schema grows to 1,000 relations", footnote3Flags},
	{"cached", "canonical-fingerprint label cache vs the uncached labeler over a bounded template pool", cachedFlags},
	{"engine", "compiled-plan executor vs the reference evaluator over growing social graphs", engineFlags},
	{"serve", "closed-loop HTTP load over disclosured: throughput and latency percentiles", serveFlags},
	{"wal", "durability tax: submit and bulk-load throughput in memory, with per-op fsync and without", walFlags},
	{"adversarial", "tail latency under Zipf-skewed principals and cache-hostile traffic", adversarialFlags},
	{"shard", "durable submit throughput over data shards × concurrency, group commit on and off", shardFlags},
	{"repl", "follower read scaling and the decision-RPC overhead of submitting through a follower", replFlags},
	{"obs", "observability tax: instrumented vs disabled submit throughput, worst-case overhead", obsFlags},
	{"failover", "SIGKILLed primary, promoted follower: time to the first admitted write", failoverFlags},
}

// intsVar registers a comma-separated integer list flag; a set value
// replaces the default list.
func intsVar(fs *flag.FlagSet, dst *[]int, name, usage string) {
	def := make([]string, len(*dst))
	for i, n := range *dst {
		def[i] = strconv.Itoa(n)
	}
	fs.Func(name, fmt.Sprintf("%s, comma-separated (default %s)", usage, strings.Join(def, ",")), func(s string) error {
		v, err := parseInts(s)
		*dst = v
		return err
	})
}

// parseInts parses a non-empty comma-separated integer list.
func parseInts(csv string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(csv, ",") {
		if part = strings.TrimSpace(part); part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list %q", csv)
	}
	return out, nil
}

func seedVar(fs *flag.FlagSet, dst *int64) {
	fs.Int64Var(dst, "seed", *dst, "seed of workloads, graphs and draws")
}

func figure5Flags(fs *flag.FlagSet) func() (*Report, error) {
	cfg := DefaultFigure5Config()
	fs.IntVar(&cfg.Queries, "queries", cfg.Queries, "queries per measurement point")
	intsVar(fs, &cfg.MaxAtoms, "max-atoms", "max atoms per query (multiples of 3)")
	seedVar(fs, &cfg.Seed)
	return func() (*Report, error) { return RunFigure5(cfg) }
}

func figure6Flags(fs *flag.FlagSet) func() (*Report, error) {
	cfg := DefaultFigure6Config()
	fs.IntVar(&cfg.Labels, "labels", cfg.Labels, "labels per measurement point")
	fs.IntVar(&cfg.LabelPool, "label-pool", cfg.LabelPool, "distinct pre-labeled queries to draw from")
	intsVar(fs, &cfg.Principals, "principals", "principal counts")
	intsVar(fs, &cfg.MaxPartitions, "partitions", "max partition counts")
	intsVar(fs, &cfg.MaxElems, "max-elems", "max elements per partition")
	seedVar(fs, &cfg.Seed)
	return func() (*Report, error) { return RunFigure6(cfg) }
}

func footnote3Flags(fs *flag.FlagSet) func() (*Report, error) {
	cfg := DefaultFootnote3Config()
	fs.IntVar(&cfg.Queries, "queries", cfg.Queries, "queries per measurement point")
	seedVar(fs, &cfg.Seed)
	return func() (*Report, error) { return RunFootnote3(cfg) }
}

func cachedFlags(fs *flag.FlagSet) func() (*Report, error) {
	cfg := DefaultCachedConfig()
	fs.IntVar(&cfg.Queries, "queries", cfg.Queries, "queries per measurement point")
	fs.IntVar(&cfg.Pool, "pool", cfg.Pool, "distinct queries per point")
	intsVar(fs, &cfg.MaxAtoms, "max-atoms", "max atoms per query (multiples of 3)")
	intsVar(fs, &cfg.Goroutines, "goroutines", "goroutine counts")
	fs.IntVar(&cfg.CacheCapacity, "cache-capacity", cfg.CacheCapacity, "label-cache entry bound (0 = 2×pool, the warm regime; below pool studies eviction)")
	seedVar(fs, &cfg.Seed)
	return func() (*Report, error) { return RunCached(cfg) }
}

func engineFlags(fs *flag.FlagSet) func() (*Report, error) {
	cfg := DefaultEngineConfig()
	fs.IntVar(&cfg.Queries, "queries", cfg.Queries, "queries per measurement point")
	intsVar(fs, &cfg.Users, "users", "social-graph sizes")
	intsVar(fs, &cfg.Goroutines, "goroutines", "goroutine counts")
	fs.IntVar(&cfg.Pool, "pool", cfg.Pool, "distinct queries per point")
	seedVar(fs, &cfg.Seed)
	return func() (*Report, error) { return RunEngine(cfg) }
}

func walFlags(fs *flag.FlagSet) func() (*Report, error) {
	cfg := DefaultWALConfig()
	fs.IntVar(&cfg.Queries, "queries", cfg.Queries, "queries per submit point")
	fs.IntVar(&cfg.Pool, "pool", cfg.Pool, "distinct queries replayed")
	intsVar(fs, &cfg.Goroutines, "goroutines", "submit goroutine counts")
	fs.Func("users", "comma-separated graph sizes of the load series; the submit series runs over the first (default 100,300 and 200)", func(s string) error {
		us, err := parseInts(s)
		if err == nil {
			cfg.LoadUsers, cfg.Users = us, us[0]
		}
		return err
	})
	seedVar(fs, &cfg.Seed)
	return func() (*Report, error) { return RunWAL(cfg) }
}

func serveFlags(fs *flag.FlagSet) func() (*Report, error) {
	cfg := DefaultServeConfig()
	fs.IntVar(&cfg.Requests, "requests", cfg.Requests, "requests per client")
	intsVar(fs, &cfg.Clients, "clients", "concurrent-client counts")
	fs.IntVar(&cfg.Batch, "batch", cfg.Batch, "queries per submit request")
	fs.IntVar(&cfg.Users, "users", cfg.Users, "social-graph size")
	fs.IntVar(&cfg.Pool, "pool", cfg.Pool, "templates per client")
	seedVar(fs, &cfg.Seed)
	return func() (*Report, error) { return RunServe(cfg) }
}

func adversarialFlags(fs *flag.FlagSet) func() (*Report, error) {
	cfg := DefaultAdversarialConfig()
	fs.IntVar(&cfg.Queries, "queries", cfg.Queries, "submissions per cell")
	fs.IntVar(&cfg.Users, "users", cfg.Users, "social-graph size")
	fs.IntVar(&cfg.Principals, "principals", cfg.Principals, "installed principals")
	fs.Float64Var(&cfg.ZipfS, "zipf-s", cfg.ZipfS, "Zipf exponent of the principal draw (>1, larger = more skew)")
	fs.IntVar(&cfg.Pool, "pool", cfg.Pool, "template pool of the repetitive mode")
	fs.IntVar(&cfg.CacheCapacity, "cache-capacity", cfg.CacheCapacity, "label- and plan-cache bound of the hostile mode")
	intsVar(fs, &cfg.Goroutines, "goroutines", "goroutine counts")
	seedVar(fs, &cfg.Seed)
	return func() (*Report, error) { return RunAdversarial(cfg) }
}

func shardFlags(fs *flag.FlagSet) func() (*Report, error) {
	cfg := DefaultShardConfig()
	fs.IntVar(&cfg.Queries, "queries", cfg.Queries, "queries per measurement point")
	fs.IntVar(&cfg.Pool, "pool", cfg.Pool, "distinct queries replayed")
	fs.IntVar(&cfg.Users, "users", cfg.Users, "social-graph size")
	intsVar(fs, &cfg.Shards, "shards", "data-shard counts")
	intsVar(fs, &cfg.Goroutines, "goroutines", "concurrent submitters (= principals)")
	seedVar(fs, &cfg.Seed)
	return func() (*Report, error) { return RunShard(cfg) }
}

func replFlags(fs *flag.FlagSet) func() (*Report, error) {
	cfg := DefaultReplConfig()
	fs.Func("requests", fmt.Sprintf("read and submit requests per client and cell (default %d and %d)", cfg.Requests, cfg.SubmitRequests), func(s string) error {
		n, err := strconv.Atoi(s)
		cfg.Requests, cfg.SubmitRequests = n, n
		return err
	})
	fs.IntVar(&cfg.Clients, "clients", cfg.Clients, "concurrent clients per cell")
	intsVar(fs, &cfg.Followers, "followers", "follower counts (0 = primary-only baseline)")
	fs.IntVar(&cfg.Users, "users", cfg.Users, "social-graph size")
	fs.IntVar(&cfg.Pool, "pool", cfg.Pool, "templates per client")
	seedVar(fs, &cfg.Seed)
	return func() (*Report, error) { return RunRepl(cfg) }
}

func obsFlags(fs *flag.FlagSet) func() (*Report, error) {
	cfg := DefaultObsConfig()
	fs.IntVar(&cfg.Queries, "queries", cfg.Queries, "queries per cell")
	fs.IntVar(&cfg.Pool, "pool", cfg.Pool, "distinct queries replayed")
	fs.IntVar(&cfg.Users, "users", cfg.Users, "social-graph size")
	intsVar(fs, &cfg.Goroutines, "goroutines", "goroutine counts")
	seedVar(fs, &cfg.Seed)
	return func() (*Report, error) { return RunObs(cfg) }
}

func failoverFlags(fs *flag.FlagSet) func() (*Report, error) {
	cfg := DefaultFailoverConfig()
	fs.IntVar(&cfg.Trials, "trials", cfg.Trials, "kill-promote cycles, each over a fresh cluster")
	seedVar(fs, &cfg.Seed)
	return func() (*Report, error) { return RunFailover(cfg) }
}
