package bench

import (
	"fmt"
	"net/http"
	"time"

	disclosure "repro"
	"repro/internal/repl"
	"repro/internal/server"
)

// ReplConfig configures the replication experiment: one durable primary
// plus a sweep of in-process follower counts, measured on two axes. The
// read axis drives closed-loop explain traffic round-robin across all
// serving nodes — explains never leave the node they hit, so throughput
// should scale with node count against the primary-only baseline. The
// submit axis measures the decision-RPC tax: the same submission stream
// sent once directly to the primary and once through a follower, whose
// every admit/refuse decision is one extra HTTP round trip to the primary.
type ReplConfig struct {
	// Requests is the number of read requests each client issues per cell.
	Requests int `json:"requests"`
	// SubmitRequests is the number of submissions each client issues in the
	// decision-overhead cells.
	SubmitRequests int `json:"submit_requests"`
	// Clients is the number of concurrent closed-loop clients per cell.
	Clients int `json:"clients"`
	// Followers is the x-axis of the read sweep: follower counts (0 = the
	// single-node baseline, only the primary serves).
	Followers []int `json:"followers"`
	// Users is the size of the synthetic social graph served.
	Users int `json:"users"`
	// MaxAtoms bounds query size, as in Figure 5 (a multiple of 3).
	MaxAtoms int `json:"max_atoms"`
	// Pool is the number of distinct query templates per client.
	Pool int `json:"pool"`
	// Seed makes graphs and all per-client streams reproducible.
	Seed int64 `json:"seed"`
}

// DefaultReplConfig returns a laptop-scale configuration: 32 clients over
// a 300-user graph, follower counts 0 (baseline), 1, 2 and 4.
func DefaultReplConfig() ReplConfig {
	return ReplConfig{
		Requests:       200,
		SubmitRequests: 100,
		Clients:        32,
		Followers:      []int{0, 1, 2, 4},
		Users:          300,
		MaxAtoms:       9,
		Pool:           500,
		Seed:           2013,
	}
}

// replCluster is the shared fixture of all cells: one durable primary and
// a set of synced in-process followers.
type replCluster struct {
	primary  string   // primary base URL
	fols     []string // follower base URLs
	syncs    []*repl.Follower
	shutdown []func()
	httpc    *http.Client
}

func (c *replCluster) close() {
	for i := len(c.shutdown) - 1; i >= 0; i-- {
		c.shutdown[i]()
	}
}

// RunRepl runs the replication experiment over one shared cluster sized
// for the largest follower count. The report has a "read" series (X =
// followers serving beside the primary) and the decision-overhead pair:
// the same submission stream against the primary directly ("submit
// primary", X = 0) and through one follower ("submit follower", X = 1),
// whose p50 difference is the summary's decision_overhead_p50_ms.
func RunRepl(cfg ReplConfig) (*Report, error) {
	if cfg.Requests <= 0 || cfg.SubmitRequests <= 0 || cfg.Pool <= 0 || cfg.Clients <= 0 {
		return nil, fmt.Errorf("bench: Requests, SubmitRequests, Clients and Pool must be positive")
	}
	if cfg.Users < 1 {
		return nil, fmt.Errorf("bench: Users must be at least 1")
	}
	if err := checkMaxAtoms(cfg.MaxAtoms); err != nil {
		return nil, err
	}
	if len(cfg.Followers) == 0 {
		return nil, fmt.Errorf("bench: at least one follower count is required")
	}
	maxFollowers := 1 // the submit-overhead pair always needs one
	for _, f := range cfg.Followers {
		if f < 0 {
			return nil, fmt.Errorf("bench: negative follower count %d", f)
		}
		maxFollowers = max(maxFollowers, f)
	}

	cluster, err := buildReplCluster(cfg, maxFollowers)
	if err != nil {
		return nil, err
	}
	defer cluster.close()
	pools, err := clientPools(workloadOptions(cfg.Seed, cfg.MaxAtoms), cfg.Clients, cfg.Pool)
	if err != nil {
		return nil, err
	}
	clients := func(nodes []string) []*server.Client {
		cs := make([]*server.Client, cfg.Clients)
		for c := range cs {
			cs[c] = &server.Client{BaseURL: nodes[c%len(nodes)], Token: fmt.Sprintf("tok-%d", c), HTTP: cluster.httpc}
		}
		return cs
	}

	r := newReport("repl", cfg)
	reads := Series{Name: "read", XLabel: "followers"}
	for _, followers := range cfg.Followers {
		// Explains never leave the node they hit: clients spread
		// round-robin across the serving nodes.
		cs := clients(append([]string{cluster.primary}, cluster.fols[:followers]...))
		p, err := replCell(cfg.Clients, cfg.Requests, followers, func(c, i int) error {
			_, err := cs[c].Explain(pools[c][i%len(pools[c])])
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("bench: repl read (followers=%d): %w", followers, err)
		}
		reads.Points = append(reads.Points, p)
	}
	r.Series = append(r.Series, reads)

	var p50 [2]float64
	for x, cell := range []struct{ name, node string }{
		{"submit primary", cluster.primary},
		{"submit follower", cluster.fols[0]},
	} {
		if x == 1 {
			// Re-sync so follower evaluation runs against the post-submit
			// state.
			for _, f := range cluster.syncs {
				if err := f.SyncOnce(); err != nil {
					return nil, fmt.Errorf("bench: repl re-sync: %w", err)
				}
			}
		}
		cs := clients([]string{cell.node})
		p, err := replCell(cfg.Clients, cfg.SubmitRequests, x, func(c, i int) error {
			res, err := cs[c].Submit(pools[c][i%len(pools[c])])
			if err == nil && res.Error != "" {
				err = fmt.Errorf("submission error: %s", res.Error)
			}
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("bench: repl %s: %w", cell.name, err)
		}
		p50[x] = p.Values["latency_p50_ms"]
		r.Series = append(r.Series, Series{Name: cell.name, XLabel: "followers", Points: []Point{p}})
	}
	r.Summary["decision_overhead_p50_ms"] = p50[1] - p50[0]
	return r, nil
}

// replCell drives one closed-loop cell of requests per client through fn.
func replCell(clients, requests, x int, fn func(client, r int) error) (Point, error) {
	elapsed, lat, err := closedLoop(clients, requests, fn)
	if err != nil {
		return Point{}, err
	}
	total := clients * requests
	v := map[string]float64{
		"requests":        float64(total),
		"elapsed_seconds": elapsed,
		"throughput_qps":  float64(total) / elapsed,
	}
	addLatencies(v, lat, "ms")
	return Point{X: x, Values: v}, nil
}

// buildReplCluster opens a durable primary over a populated graph, installs
// one principal per client with its token, starts the primary server with
// its replication surface, and brings up maxFollowers synced followers.
func buildReplCluster(cfg ReplConfig, maxFollowers int) (*replCluster, error) {
	// NoSync: the experiment measures serving and the decision RPC, not
	// fsync (the wal and shard experiments own that axis).
	f, err := newFixture(&disclosure.DurabilityOptions{NoSync: true}, cfg.Users, cfg.Seed, cfg.Clients)
	if err != nil {
		return nil, err
	}
	cluster := &replCluster{shutdown: []func(){f.close}}
	ok := false
	defer func() {
		if !ok {
			cluster.close()
		}
	}()
	for i := 0; i < cfg.Clients; i++ {
		if err := f.dur.LogToken(principal(i), fmt.Sprintf("tok-%d", i)); err != nil {
			return nil, err
		}
	}

	const adminToken = "bench-admin"
	prim, err := repl.NewPrimary(f.dur, adminToken)
	if err != nil {
		return nil, err
	}
	srv, err := server.New(f.sys, server.Options{
		AdminToken: adminToken,
		Journal:    f.dur,
		Tokens:     f.dur.Tokens(),
		Repl:       prim.Handler(),
	})
	if err != nil {
		return nil, err
	}
	cluster.primary, err = serveOn(&cluster.shutdown, srv.Serve, srv.Shutdown)
	if err != nil {
		return nil, err
	}

	transport := &http.Transport{MaxIdleConns: 4 * cfg.Clients, MaxIdleConnsPerHost: 4 * cfg.Clients}
	cluster.shutdown = append(cluster.shutdown, transport.CloseIdleConnections)
	cluster.httpc = &http.Client{Transport: transport, Timeout: 60 * time.Second}

	for i := 0; i < maxFollowers; i++ {
		fol, err := repl.NewFollower(repl.FollowerOptions{
			Primary:  cluster.primary,
			Token:    adminToken,
			HTTP:     cluster.httpc,
			Interval: time.Hour, // synced explicitly between phases
		})
		if err != nil {
			return nil, err
		}
		if err := fol.SyncOnce(); err != nil {
			return nil, err
		}
		fsrv := server.NewFollower(fol, server.FollowerOptions{})
		base, err := serveOn(&cluster.shutdown, fsrv.Serve, fsrv.Shutdown)
		if err != nil {
			return nil, err
		}
		cluster.fols = append(cluster.fols, base)
		cluster.syncs = append(cluster.syncs, fol)
	}
	ok = true
	return cluster, nil
}
