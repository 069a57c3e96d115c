package bench

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/server"
)

// ServeConfig configures the service-level experiment: a closed-loop load
// driver replaying the Section-7.2 workload over N concurrent HTTP clients
// — each impersonating a distinct principal with its own deterministic
// query stream and auth token — against a disclosured server over a
// populated Facebook graph. Unlike the engine experiment, the measured
// request path is the whole service: HTTP, auth, labeling, policy
// decision, evaluation, JSON marshaling.
type ServeConfig struct {
	// Requests is the number of requests each client issues.
	Requests int `json:"requests"`
	// Clients is the x-axis: concurrent closed-loop client counts.
	Clients []int `json:"clients"`
	// Users is the size of the synthetic social graph served.
	Users int `json:"users"`
	// MaxAtoms bounds query size, as in Figure 5 (a multiple of 3).
	MaxAtoms int `json:"max_atoms"`
	// Pool is the number of distinct query templates per client.
	Pool int `json:"pool"`
	// Batch is the number of queries per submit request (1 = single
	// submissions; >1 exercises the snapshot-pinned batch path).
	Batch int `json:"batch"`
	// Seed makes graphs and all per-client streams reproducible.
	Seed int64 `json:"seed"`
}

// DefaultServeConfig returns a configuration sized for a laptop-scale run:
// 64 concurrent clients, a 300-user graph.
func DefaultServeConfig() ServeConfig {
	return ServeConfig{
		Requests: 200,
		Clients:  []int{64},
		Users:    300,
		MaxAtoms: 9,
		Pool:     500,
		Batch:    1,
		Seed:     2013,
	}
}

// RunServe runs the serve experiment: for each client count a fresh system
// (cold caches), a fresh server on an ephemeral loopback port, and one
// principal per client installed over the HTTP API, then a closed-loop
// measured run. The server is shut down gracefully between cells. The
// report has one series, X = concurrent clients, with throughput, latency
// percentiles in milliseconds and the server's outcome counters per cell.
func RunServe(cfg ServeConfig) (*Report, error) {
	if cfg.Requests <= 0 || cfg.Pool <= 0 || cfg.Batch <= 0 {
		return nil, fmt.Errorf("bench: Requests, Pool and Batch must be positive")
	}
	if cfg.Users < 1 {
		return nil, fmt.Errorf("bench: Users must be at least 1")
	}
	if err := checkMaxAtoms(cfg.MaxAtoms); err != nil {
		return nil, err
	}
	r := newReport("serve", cfg)
	s := Series{Name: fmt.Sprintf("submit batch=%d", cfg.Batch), XLabel: "clients"}
	for _, clients := range cfg.Clients {
		if clients < 1 {
			return nil, fmt.Errorf("bench: client count %d must be at least 1", clients)
		}
		p, err := runServeCell(cfg, clients)
		if err != nil {
			return nil, fmt.Errorf("bench: serve (clients=%d): %w", clients, err)
		}
		s.Points = append(s.Points, p)
	}
	r.Series = append(r.Series, s)
	return r, nil
}

// runServeCell measures one (clients) cell against a fresh server.
func runServeCell(cfg ServeConfig, clients int) (Point, error) {
	f, err := newFixture(nil, cfg.Users, cfg.Seed, 0)
	if err != nil {
		return Point{}, err
	}
	defer f.close()
	const adminToken = "bench-admin"
	srv, err := server.New(f.sys, server.Options{AdminToken: adminToken})
	if err != nil {
		return Point{}, err
	}
	var shutdown []func()
	defer func() {
		for _, stop := range shutdown {
			stop()
		}
	}()
	base, err := serveOn(&shutdown, srv.Serve, srv.Shutdown)
	if err != nil {
		return Point{}, err
	}

	// One shared transport sized for the client count, so the measurement
	// reflects request handling rather than connection churn.
	transport := &http.Transport{MaxIdleConns: 2 * clients, MaxIdleConnsPerHost: 2 * clients}
	defer transport.CloseIdleConnections()
	httpClient := &http.Client{Transport: transport, Timeout: 60 * time.Second}

	admin := &server.Client{BaseURL: base, Token: adminToken, HTTP: httpClient}
	principals := make([]*server.Client, clients)
	for i := range principals {
		token := fmt.Sprintf("tok-%d", i)
		if err := admin.SetPolicy(principal(i), token, f.policy); err != nil {
			return Point{}, err
		}
		principals[i] = &server.Client{BaseURL: base, Token: token, HTTP: httpClient}
	}
	pools, err := clientPools(workloadOptions(cfg.Seed, cfg.MaxAtoms), clients, cfg.Pool)
	if err != nil {
		return Point{}, err
	}

	before := f.sys.Stats()
	elapsed, lat, err := closedLoop(clients, cfg.Requests, func(c, r int) error {
		pool := pools[c]
		if cfg.Batch == 1 {
			_, err := principals[c].Submit(pool[r%len(pool)])
			return err
		}
		batch := make([]string, cfg.Batch)
		for b := range batch {
			batch[b] = pool[(r*cfg.Batch+b)%len(pool)]
		}
		_, err := principals[c].SubmitBatch(batch)
		return err
	})
	if err != nil {
		return Point{}, err
	}
	after := f.sys.Stats()

	requests := clients * cfg.Requests
	queries := requests * cfg.Batch
	v := map[string]float64{
		"requests":        float64(requests),
		"queries":         float64(queries),
		"elapsed_seconds": elapsed,
		"throughput_qps":  float64(queries) / elapsed,
		"admitted":        float64(after.Admitted - before.Admitted),
		"refused":         float64(after.Refused - before.Refused),
		"errored":         float64(after.Errored - before.Errored),
	}
	addLatencies(v, lat, "ms")
	return Point{X: clients, Values: v}, nil
}

// serveOn starts one server on an ephemeral loopback port, appends its
// graceful shutdown to shutdown, and returns the base URL.
func serveOn(shutdown *[]func(), serve func(net.Listener) error, stop func(context.Context) error) (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	done := make(chan error, 1)
	go func() { done <- serve(l) }()
	*shutdown = append(*shutdown, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = stop(ctx)
		<-done
	})
	return "http://" + l.Addr().String(), nil
}
