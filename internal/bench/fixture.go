package bench

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	disclosure "repro"
	"repro/internal/fb"
	"repro/internal/workload"
)

// fixture is the deployment the system-level experiments measure: a
// System over the Facebook schema and security-view catalog (in memory,
// or durable in a temporary directory), with principals app-0..app-(n-1)
// that may each learn every security view.
type fixture struct {
	sys *disclosure.System
	dur *disclosure.Durable // nil for an in-memory System
	// policy holds every security view in one partition, so refusals are
	// exactly the queries whose labels exceed the whole catalog (⊤-labeled
	// subqueries, e.g. non-friend scopes) — the paper's "as little more as
	// possible" boundary.
	policy map[string][]string
	// close releases the System and removes its directory.
	close func()
}

// openFixture opens an empty deployment: in memory when durable is nil,
// otherwise under *durable in a fresh temporary directory that close
// removes.
func openFixture(durable *disclosure.DurabilityOptions) (*fixture, error) {
	s := fb.Schema()
	views, err := fb.SecurityViews(s)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(views))
	for i, v := range views {
		names[i] = v.Name
	}
	f := &fixture{policy: map[string][]string{"all": names}, close: func() {}}
	if durable == nil {
		f.sys, err = disclosure.NewSystem(s, views...)
		return f, err
	}
	dir, err := os.MkdirTemp("", "disclosure-bench-")
	if err != nil {
		return nil, err
	}
	if f.dur, err = disclosure.OpenDurable(dir, *durable, s, views...); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	f.sys = f.dur.System()
	f.close = func() {
		f.dur.Close()
		os.RemoveAll(dir)
	}
	return f, nil
}

// newFixture opens a deployment as openFixture does, loads the generated
// graph of users users and installs the all-views policy for principals
// app-0..app-(principals-1).
func newFixture(durable *disclosure.DurabilityOptions, users int, seed int64, principals int) (*fixture, error) {
	f, err := openFixture(durable)
	if err != nil {
		return nil, err
	}
	err = f.sys.LoadBatch(func(ld *disclosure.Loader) error {
		return fb.GenerateGraph(ld, users, seed)
	})
	for i := 0; i < principals && err == nil; i++ {
		err = f.sys.SetPolicy(principal(i), f.policy)
	}
	if err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// principal names the i-th fixture principal.
func principal(i int) string { return fmt.Sprintf("app-%d", i) }

// workloadOptions is the Section-7.2 query workload with subqueries of up
// to maxAtoms atoms in total.
func workloadOptions(seed int64, maxAtoms int) workload.Options {
	return workload.Options{Seed: seed, MaxSubqueries: maxAtoms / 3, FriendScopesMarkIsFriend: true}
}

// queryPool draws n queries over the Facebook schema.
func queryPool(opts workload.Options, n int) ([]*disclosure.Query, error) {
	g, err := workload.New(fb.Schema(), opts)
	if err != nil {
		return nil, err
	}
	return g.Batch(n), nil
}

// clientPools renders one deterministic pool of n datalog templates per
// client, each from the client's own stream (workload.Options.ForClient),
// so generation and rendering stay outside the measured loop.
func clientPools(opts workload.Options, clients, n int) ([][]string, error) {
	pools := make([][]string, clients)
	for i := range pools {
		qs, err := queryPool(opts.ForClient(i), n)
		if err != nil {
			return nil, err
		}
		pools[i] = make([]string, n)
		for j, q := range qs {
			pools[i][j] = q.String()
		}
	}
	return pools, nil
}

// checkMaxAtoms rejects a query-size bound that is not a positive multiple
// of 3 (each subquery contributes up to three atoms).
func checkMaxAtoms(maxAtoms int) error {
	if maxAtoms < 3 || maxAtoms%3 != 0 {
		return fmt.Errorf("bench: MaxAtoms %d is not a positive multiple of 3", maxAtoms)
	}
	return nil
}

// timeConcurrent runs f(0..n-1) across g goroutines and returns the elapsed
// wall time in seconds, or the first error any worker hit.
func timeConcurrent(n, g int, f func(i int) error) (float64, error) {
	var mu sync.Mutex
	var firstErr error
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := f(i); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	if firstErr != nil {
		return 0, firstErr
	}
	return elapsed, nil
}

// closedLoop runs clients concurrent closed-loop clients, each issuing
// requests calls of fn in turn, and returns the wall time in seconds and
// every request's latency, or the first error a client hit.
func closedLoop(clients, requests int, fn func(client, r int) error) (float64, []time.Duration, error) {
	latencies := make([][]time.Duration, clients)
	errs := make([]error, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lat := make([]time.Duration, 0, requests)
			for r := 0; r < requests; r++ {
				t0 := time.Now()
				if err := fn(c, r); err != nil {
					errs[c] = err
					return
				}
				lat = append(lat, time.Since(t0))
			}
			latencies[c] = lat
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	var all []time.Duration
	for c, lat := range latencies {
		if errs[c] != nil {
			return 0, nil, errs[c]
		}
		all = append(all, lat...)
	}
	return elapsed, all, nil
}
