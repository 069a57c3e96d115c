package main

import (
	"fmt"
	"sync"

	disclosure "repro"
	"repro/internal/fb"
	"repro/internal/obs"
)

// opRef locates one sent op: client c's i-th op.
type opRef struct{ c, i int }

// perApp groups the sent ops of a run by app, each app's in send order.
func perApp(st *stream, logs []*clientLog) [][]opRef {
	out := make([][]opRef, len(st.apps))
	for c, lg := range logs {
		for i := 0; i < len(lg.out); i++ {
			a := st.ops[c][i].app
			out[a] = append(out[a], opRef{c, i})
		}
	}
	return out
}

// failures collects check failures; the run reports at most a few of them.
type failures struct {
	mu   sync.Mutex
	n    int
	msgs []string
}

func (f *failures) add(format string, args ...any) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.n++
	if len(f.msgs) < 8 {
		f.msgs = append(f.msgs, fmt.Sprintf(format, args...))
	}
}

// checkIdentity fails on a broken Stats identity of a quiescent System or
// on any errored submission (the workloads are built so none errors).
func checkIdentity(f *failures, who string, sys *disclosure.System) {
	s := sys.Stats()
	if s.Queries != s.Admitted+s.Refused+s.Errored {
		f.add("%s: Stats identity broken: queries %d != admitted %d + refused %d + errored %d",
			who, s.Queries, s.Admitted, s.Refused, s.Errored)
	}
	if s.Errored != 0 {
		f.add("%s: %d submissions errored", who, s.Errored)
	}
}

// oracleSystem builds a fresh in-memory System over the same graph.
func oracleSystem(cfg config) (*disclosure.System, error) {
	s := fb.Schema()
	views, err := fb.SecurityViews(s)
	if err != nil {
		return nil, err
	}
	sys, err := disclosure.NewSystem(s, views...)
	if err != nil {
		return nil, err
	}
	sys.SetMetricsRegistry(obs.Disabled) // keep the served system's families clean
	err = sys.LoadBatch(func(ld *disclosure.Loader) error { return fb.GenerateGraph(ld, cfg.users, cfg.seed) })
	return sys, err
}

// runOracle replays each app's sent ops in order against a fresh
// in-memory System with the same graph and policies and compares every
// answer: the decision, the live partitions, and the admitted rows.
// Apps are independent (session state is per principal), so they are
// replayed on cfg.clients workers. It returns the oracle's counters.
func runOracle(cfg config, st *stream, logs []*clientLog, f *failures) (disclosure.SystemStats, error) {
	sys, err := oracleSystem(cfg)
	if err != nil {
		return disclosure.SystemStats{}, err
	}
	byApp := perApp(st, logs)
	var wg sync.WaitGroup
	for w := 0; w < cfg.clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for a := w; a < len(st.apps); a += cfg.clients {
				replayApp(sys, st, logs, a, byApp[a], f)
			}
		}(w)
	}
	wg.Wait()
	checkIdentity(f, "oracle", sys)
	return sys.Stats(), nil
}

func replayApp(sys *disclosure.System, st *stream, logs []*clientLog, a int, refs []opRef, f *failures) {
	ap := st.apps[a]
	if ap.initial != nil {
		if err := sys.SetPolicy(ap.name, ap.initial); err != nil {
			f.add("oracle: %s: initial policy: %v", ap.name, err)
			return
		}
	}
	for _, r := range refs {
		o := st.ops[r.c][r.i]
		got := logs[r.c].out[r.i]
		if o.kind == opInstall {
			if err := sys.SetPolicy(ap.name, o.parts); err != nil {
				f.add("oracle: %s: policy install: %v", ap.name, err)
			}
			continue
		}
		want, err := oracleSubmit(sys, ap.name, o.query)
		if err != nil {
			f.add("oracle: %s: %v", ap.name, err)
			continue
		}
		if got.err != "" {
			continue // counted as failed by the client already
		}
		if got.allowed != want.allowed || got.live != want.live || got.rows != want.rows || got.hash != want.hash {
			f.add("oracle: %s op %d (%s): served allowed=%v live=[%s] rows=%d, oracle allowed=%v live=[%s] rows=%d",
				ap.name, r.i, o.query, got.allowed, got.live, got.rows, want.allowed, want.live, want.rows)
		}
	}
}

func oracleSubmit(sys *disclosure.System, principal, src string) (outcome, error) {
	q, err := disclosure.ParseQuery(src)
	if err != nil {
		return outcome{}, err
	}
	dec, rows, err := sys.Submit(principal, q)
	if err != nil {
		return outcome{}, err
	}
	return outcome{allowed: dec.Allowed, live: liveKey(dec.Live), rows: len(rows), hash: rowHash(rows)}, nil
}

// session is one app's reference-monitor state.
type session struct {
	live              string
	accepted, refused int
}

// sessions reads every installed app's session from sys.
func sessions(sys *disclosure.System, st *stream) map[string]session {
	out := make(map[string]session)
	for _, a := range st.apps {
		live, acc, ref, err := sys.Session(a.name)
		if err == nil {
			out[a.name] = session{liveKey(live), acc, ref}
		}
	}
	return out
}

// compareSessions fails on any app whose session differs between the
// state before the crash and the recovered state.
func compareSessions(f *failures, who string, before, after map[string]session) {
	if len(before) != len(after) {
		f.add("%s: %d sessions before the crash, %d after", who, len(before), len(after))
	}
	for name, b := range before {
		if a, ok := after[name]; !ok || a != b {
			f.add("%s: %s session before the crash %+v, after %+v", who, name, b, a)
		}
	}
}

// lastRefusals returns, per app, the last query refused since the app's
// last policy install: the monitor must still refuse it after recovery.
func lastRefusals(st *stream, logs []*clientLog) map[int32]string {
	out := make(map[int32]string)
	for c, lg := range logs {
		for i := 0; i < len(lg.out); i++ {
			o := st.ops[c][i]
			switch {
			case o.kind == opInstall:
				delete(out, o.app)
			case lg.out[i].err == "" && !lg.out[i].allowed:
				out[o.app] = o.query
			}
		}
	}
	return out
}

// checkStillRefused submits every app's last refused query through decide
// and fails on any admission.
func checkStillRefused(f *failures, who string, st *stream, refused map[int32]string, decide decider) {
	for a, src := range refused {
		q, err := disclosure.ParseQuery(src)
		if err != nil {
			f.add("%s: %v", who, err)
			continue
		}
		dec, err := decide(st.apps[a].name, q)
		if err != nil {
			f.add("%s: %s: %v", who, st.apps[a].name, err)
		} else if dec.Allowed {
			f.add("%s: %s: query refused before the crash was admitted after it: %s", who, st.apps[a].name, src)
		}
	}
}

// checkCounts holds the run's exact counts to values derived
// independently: the served admitted and refused counts to a reference
// run's (the oracle, or the traced replay), label misses to the number of
// distinct templates submitted (every template is distinct up to
// isomorphism; checked on cold-templates, where each template is submitted
// once so evictions cause no second miss, and elsewhere while the cache
// has evicted nothing), and the
// operations a recovery replayed to the frames the tail logged past the
// last checkpoint (one per submission, two per install: the policy and
// the token).
func checkCounts(f *failures, cfg config, st *stream, logs []*clientLog, served, ref disclosure.SystemStats, replayed int) {
	if served.Admitted != ref.Admitted || served.Refused != ref.Refused {
		f.add("counts: served admitted %d refused %d, reference admitted %d refused %d",
			served.Admitted, served.Refused, ref.Admitted, ref.Refused)
	}
	distinct := make(map[string]bool)
	wantReplayed := 0
	for c, lg := range logs {
		for i := 0; i < len(lg.out); i++ {
			o := st.ops[c][i]
			if o.kind == opSubmit {
				distinct[o.query] = true
			}
			if cfg.spec.durable && i >= lg.timedEnd {
				wantReplayed++
				if o.kind == opInstall {
					wantReplayed++
				}
			}
		}
	}
	if (served.Cache.Evictions == 0 || cfg.spec.cold) && served.Cache.Misses != uint64(len(distinct)) {
		f.add("counts: %d label-cache misses for %d distinct templates", served.Cache.Misses, len(distinct))
	}
	if replayed != wantReplayed {
		f.add("counts: recovery replayed %d operations, the tail logged %d", replayed, wantReplayed)
	}
}
