package bench

import "testing"

// TestRunReplSmoke drives the replication harness at unit scale: a durable
// primary with its replication surface, two in-process followers serving
// reads, and the decision-overhead submit pair.
func TestRunReplSmoke(t *testing.T) {
	cfg := ReplConfig{
		Requests:       5,
		SubmitRequests: 5,
		Clients:        3,
		Followers:      []int{0, 2},
		Users:          30,
		MaxAtoms:       9,
		Pool:           20,
		Seed:           7,
	}
	report, err := RunRepl(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reads := report.series("read")
	if reads == nil || len(reads.Points) != 2 {
		t.Fatalf("read series %+v, want 2 points", reads)
	}
	for _, p := range reads.Points {
		if p.Values["requests"] != float64(cfg.Clients*cfg.Requests) {
			t.Errorf("read f=%d: requests %v, want %d", p.X, p.Values["requests"], cfg.Clients*cfg.Requests)
		}
		if p.Values["throughput_qps"] <= 0 || p.Values["latency_p50_ms"] <= 0 {
			t.Errorf("read f=%d: degenerate measurements: %v", p.X, p.Values)
		}
	}
	wantSubs := float64(cfg.Clients * cfg.SubmitRequests)
	for _, name := range []string{"submit primary", "submit follower"} {
		s := report.series(name)
		if s == nil || len(s.Points) != 1 || s.Points[0].Values["requests"] != wantSubs || s.Points[0].Values["throughput_qps"] <= 0 {
			t.Errorf("%s: %+v, want one point of %v requests with positive throughput", name, s, wantSubs)
		}
	}
	if _, ok := report.Summary["decision_overhead_p50_ms"]; !ok {
		t.Errorf("summary %v lacks decision_overhead_p50_ms", report.Summary)
	}
}

// TestRunReplValidation exercises the config checks.
func TestRunReplValidation(t *testing.T) {
	bad := []ReplConfig{
		{Requests: 0, SubmitRequests: 1, Clients: 1, Followers: []int{0}, Users: 10, MaxAtoms: 9, Pool: 5},
		{Requests: 1, SubmitRequests: 1, Clients: 0, Followers: []int{0}, Users: 10, MaxAtoms: 9, Pool: 5},
		{Requests: 1, SubmitRequests: 1, Clients: 1, Followers: nil, Users: 10, MaxAtoms: 9, Pool: 5},
		{Requests: 1, SubmitRequests: 1, Clients: 1, Followers: []int{-1}, Users: 10, MaxAtoms: 9, Pool: 5},
		{Requests: 1, SubmitRequests: 1, Clients: 1, Followers: []int{0}, Users: 10, MaxAtoms: 7, Pool: 5},
	}
	for i, cfg := range bad {
		if _, err := RunRepl(cfg); err == nil {
			t.Errorf("config %d should be rejected: %+v", i, cfg)
		}
	}
}
