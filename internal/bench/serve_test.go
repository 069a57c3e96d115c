package bench

import "testing"

// TestRunServeSmoke drives the whole service-level harness at unit scale:
// a real server on a loopback port, four authenticated clients with
// deterministic per-client streams, single and batch requests.
func TestRunServeSmoke(t *testing.T) {
	for _, batch := range []int{1, 4} {
		cfg := ServeConfig{
			Requests: 5,
			Clients:  []int{1, 4},
			Users:    30,
			MaxAtoms: 9,
			Pool:     20,
			Batch:    batch,
			Seed:     7,
		}
		report, err := RunServe(cfg)
		if err != nil {
			t.Fatalf("batch=%d: %v", batch, err)
		}
		if len(report.Series) != 1 || len(report.Series[0].Points) != 2 {
			t.Fatalf("batch=%d: %+v, want one series of 2 points", batch, report.Series)
		}
		for _, p := range report.Series[0].Points {
			v := p.Values
			wantQueries := float64(p.X * cfg.Requests * batch)
			if v["queries"] != wantQueries {
				t.Errorf("batch=%d clients=%d: queries %v, want %v", batch, p.X, v["queries"], wantQueries)
			}
			if got := v["admitted"] + v["refused"] + v["errored"]; got != wantQueries {
				t.Errorf("batch=%d clients=%d: outcomes %v, want %v", batch, p.X, got, wantQueries)
			}
			if v["throughput_qps"] <= 0 || v["latency_p50_ms"] <= 0 || v["latency_p99_ms"] < v["latency_p50_ms"] {
				t.Errorf("batch=%d clients=%d: degenerate measurements: %v", batch, p.X, v)
			}
		}
	}
}

// TestRunServeValidation exercises the config checks.
func TestRunServeValidation(t *testing.T) {
	bad := []ServeConfig{
		{Requests: 0, Clients: []int{1}, Users: 10, MaxAtoms: 9, Pool: 5, Batch: 1},
		{Requests: 1, Clients: []int{0}, Users: 10, MaxAtoms: 9, Pool: 5, Batch: 1},
		{Requests: 1, Clients: []int{1}, Users: 0, MaxAtoms: 9, Pool: 5, Batch: 1},
		{Requests: 1, Clients: []int{1}, Users: 10, MaxAtoms: 7, Pool: 5, Batch: 1},
		{Requests: 1, Clients: []int{1}, Users: 10, MaxAtoms: 9, Pool: 5, Batch: 0},
	}
	for i, cfg := range bad {
		if _, err := RunServe(cfg); err == nil {
			t.Errorf("config %d should be rejected: %+v", i, cfg)
		}
	}
}
