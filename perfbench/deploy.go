package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	disclosure "repro"
	"repro/internal/fb"
	"repro/internal/obs"
	"repro/internal/repl"
	"repro/internal/server"
)

// adminToken authenticates the benchmark's administrative requests and
// the /metrics scrapes.
const adminToken = "bench-admin"

// Durability settings of the durable workloads, as cmd/disclosured runs
// with -data-dir -shards 2 -wal-no-sync: group commit on, per-shard
// checkpoints every 50000 logged operations, and no fsync. Every logged
// operation still reaches the operating system before its answer, so the
// log survives the process crash the benchmark simulates; fsync is off
// because the latency of a shared virtual disk's fsync swings by 2-3x
// between runs minutes apart, which would drown any change of the code.
var durability = disclosure.DurabilityOptions{NoSync: true, Shards: 2, CheckpointOps: 50000}

// deployment is one running reference monitor: a primary System (durable
// or in-memory) behind server.New on a loopback port, wired as
// cmd/disclosured wires it.
type deployment struct {
	dir  string
	dur  *disclosure.Durable // nil for an in-memory primary
	sys  *disclosure.System
	base string // the primary's URL
	// reg is the instance registry behind the primary's /metrics.
	reg *obs.Registry
	// installs are the latencies of the set-up policy installs.
	installs []time.Duration

	stops []func() // run in reverse order by close or crash
}

// hostedServer serves h on a fresh loopback port and returns its base URL
// and a function that shuts the server down and waits for it to stop.
func hostedServer(h http.Handler) (string, func(), error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		<-done
	}
	return "http://" + l.Addr().String(), stop, nil
}

// newHTTPClient returns a client with its own connection pool, so each
// benchmark client holds exactly one keep-alive connection.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}, Timeout: 60 * time.Second}
}

// deploy builds the workload's deployment from nothing to serving: open
// the store, load the fb graph, start the server, onboard the stream's
// initial apps over PUT /v1/policy, and checkpoint. Its duration is one
// set-up sample.
func deploy(cfg config, st *stream, dir string) (d *deployment, err error) {
	d = &deployment{dir: dir, reg: obs.NewRegistry()}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	s := fb.Schema()
	views, err := fb.SecurityViews(s)
	if err != nil {
		return d, err
	}
	if cfg.spec.durable {
		d.dur, err = disclosure.OpenDurable(dir, durability, s, views...)
		if err != nil {
			return d, err
		}
		d.stops = append(d.stops, func() { _ = d.dur.Close() })
		d.sys = d.dur.System()
	} else if d.sys, err = disclosure.NewSystem(s, views...); err != nil {
		return d, err
	}
	if err := d.sys.LoadBatch(func(ld *disclosure.Loader) error {
		return fb.GenerateGraph(ld, cfg.users, cfg.seed)
	}); err != nil {
		return d, err
	}
	if d.dur != nil {
		if err := d.dur.Checkpoint(); err != nil {
			return d, err
		}
	}
	if err := d.startPrimary(); err != nil {
		return d, err
	}
	admin := &server.Client{BaseURL: d.base, Token: adminToken, HTTP: newHTTPClient()}
	defer admin.HTTP.CloseIdleConnections()
	for _, a := range st.apps[:st.initial] {
		t0 := time.Now()
		if err := admin.SetPolicy(a.name, a.token, a.initial); err != nil {
			return d, fmt.Errorf("onboarding %s: %w", a.name, err)
		}
		d.installs = append(d.installs, time.Since(t0))
	}
	if d.dur != nil {
		// The periodic checkpoint after onboarding: the run's log then
		// holds only the run's own operations.
		if err := d.dur.Checkpoint(); err != nil {
			return d, err
		}
	}
	return d, nil
}

// startPrimary serves d.sys with server.New, wired as disclosured does:
// a durable primary journals tokens, recovers them, and exposes the
// replication surface.
func (d *deployment) startPrimary() error {
	opts := server.Options{AdminToken: adminToken, Metrics: d.reg}
	if d.dur != nil {
		opts.Journal = d.dur
		opts.Tokens = d.dur.Tokens()
		p, err := repl.NewPrimary(d.dur, adminToken)
		if err != nil {
			return err
		}
		p.RegisterMetrics(d.reg)
		opts.Repl = p.Handler()
	}
	srv, err := server.New(d.sys, opts)
	if err != nil {
		return err
	}
	base, stop, err := hostedServer(srv.Handler())
	if err != nil {
		return err
	}
	d.base = base
	d.stops = append(d.stops, stop)
	return nil
}

// close stops every server and closes the durable store.
func (d *deployment) close() {
	for i := len(d.stops) - 1; i >= 0; i-- {
		d.stops[i]()
	}
	d.stops = nil
}

// crash stops serving a durable deployment without closing its store:
// the log is left exactly as a killed process leaves it (every
// acknowledged operation was written to the operating system before its
// answer). The abandoned store's file handles are returned for release
// once recovery has been measured.
func (d *deployment) crash() (release func()) {
	release, d.stops = d.stops[0], d.stops[1:] // the store's Close comes first
	d.close()
	return release
}

// reopen recovers a crashed durable deployment from its directory and
// serves it again; its duration is one recovery sample.
func reopen(dir string) (d *deployment, err error) {
	d = &deployment{dir: dir, reg: obs.NewRegistry()}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	s := fb.Schema()
	views, err := fb.SecurityViews(s)
	if err != nil {
		return d, err
	}
	d.dur, err = disclosure.OpenDurable(dir, durability, s, views...)
	if err != nil {
		return d, err
	}
	d.stops = append(d.stops, func() { _ = d.dur.Close() })
	if !d.dur.Recovered() {
		return d, fmt.Errorf("reopen of %s did not recover", dir)
	}
	d.sys = d.dur.System()
	if err := d.startPrimary(); err != nil {
		return d, err
	}
	return d, nil
}
