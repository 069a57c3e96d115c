package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/server"
)

// FailoverConfig configures the failover experiment: real disclosured
// child processes — a durable primary and a promotable follower — with the
// primary SIGKILLed under load and the follower promoted over HTTP. The
// measured quantity is recovery time: from the promotion request to the
// first write the promoted node admits under the successor epoch.
type FailoverConfig struct {
	// Trials is the number of independent kill→promote cycles, each over a
	// fresh cluster.
	Trials int `json:"trials"`
	// Loaders is the number of concurrent background load workers keeping
	// the replication stream busy when the primary dies.
	Loaders int `json:"loaders"`
	// WarmRows is the number of acknowledged background loads before the
	// SIGKILL lands, so the kill interrupts a busy stream, not an idle
	// poll loop.
	WarmRows int `json:"warm_rows"`
	// Seed is carried for report provenance (the fixture is deterministic).
	Seed int64 `json:"seed"`
}

// DefaultFailoverConfig returns a laptop-scale configuration: three
// trials, two loaders, 200 rows of pre-kill load pressure.
func DefaultFailoverConfig() FailoverConfig {
	return FailoverConfig{Trials: 3, Loaders: 2, WarmRows: 200, Seed: 2013}
}

// failoverDeployment is the -config file of the failover fixture: the
// Chinese-Wall pair of relations from the replication test suite.
const failoverDeployment = `{
  "schema": [
    {"name": "M", "attrs": ["time", "person"]},
    {"name": "C", "attrs": ["person", "email", "position"]}
  ],
  "views": [
    "V1(t, p) :- M(t, p)",
    "V3(p, e, r) :- C(p, e, r)"
  ]
}`

// failoverDaemon is one disclosured child process.
type failoverDaemon struct {
	cmd  *exec.Cmd
	base string
}

// startFailoverDaemon launches the built disclosured with the given flags
// and waits for its "serving on" log line to learn the address.
func startFailoverDaemon(bin string, args ...string) (*failoverDaemon, error) {
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "serving on "); i >= 0 {
				rest := line[i+len("serving on "):]
				if j := strings.IndexByte(rest, ' '); j >= 0 {
					rest = rest[:j]
				}
				select {
				case addrCh <- rest:
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return &failoverDaemon{cmd: cmd, base: "http://" + addr}, nil
	case <-time.After(30 * time.Second):
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		return nil, fmt.Errorf("disclosured did not report its address within 30s")
	}
}

func (d *failoverDaemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	_ = d.cmd.Wait()
}

// RunFailover builds disclosured and runs Trials kill→promote cycles. The
// report has one "trials" series, X = trial index, with each trial's
// acked_loads (background loads the dead primary had acknowledged),
// applied_ops (the replicated prefix the follower had applied at
// promotion), epoch (the successor decision epoch), promote_ms (the round
// trip of POST /v1/repl/promote: drain, durable epoch record, role flip)
// and first_write_ms (promotion request to the first write the promoted
// node admits). The summary holds the median and worst first_write_ms.
func RunFailover(cfg FailoverConfig) (*Report, error) {
	if cfg.Trials <= 0 || cfg.Loaders <= 0 || cfg.WarmRows <= 0 {
		return nil, fmt.Errorf("bench: Trials, Loaders and WarmRows must be positive")
	}
	scratch, err := os.MkdirTemp("", "disclosure-failover-bench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	bin := filepath.Join(scratch, "disclosured")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/disclosured").CombinedOutput(); err != nil {
		return nil, fmt.Errorf("bench: building disclosured: %w\n%s", err, out)
	}
	cfgPath := filepath.Join(scratch, "deployment.json")
	if err := os.WriteFile(cfgPath, []byte(failoverDeployment), 0o644); err != nil {
		return nil, err
	}

	r := newReport("failover", cfg)
	s := Series{Name: "trials", XLabel: "trial"}
	firsts := make([]float64, cfg.Trials)
	for trial := range firsts {
		v, err := failoverTrial(cfg, bin, cfgPath, filepath.Join(scratch, fmt.Sprintf("trial-%d", trial)))
		if err != nil {
			return nil, fmt.Errorf("bench: failover trial %d: %w", trial, err)
		}
		s.Points = append(s.Points, Point{X: trial, Values: v})
		firsts[trial] = v["first_write_ms"]
	}
	r.Series = append(r.Series, s)
	sort.Float64s(firsts)
	r.Summary["first_write_p50_ms"] = firsts[len(firsts)/2]
	r.Summary["first_write_max_ms"] = firsts[len(firsts)-1]
	return r, nil
}

// failoverTrial runs one cycle: cluster up, wall replicated, loaders on,
// SIGKILL, promote, first admitted write.
func failoverTrial(cfg FailoverConfig, bin, cfgPath, dir string) (map[string]float64, error) {
	prim, err := startFailoverDaemon(bin,
		"-admin-token", "root",
		"-config", cfgPath,
		"-data-dir", filepath.Join(dir, "data"),
		"-addr", "127.0.0.1:0",
		"-checkpoint-interval", "0")
	if err != nil {
		return nil, err
	}
	primUp := true
	defer func() {
		if primUp {
			prim.stop()
		}
	}()
	admin := &server.Client{BaseURL: prim.base, Token: "root"}
	if err := admin.SetPolicy("app", "tok", map[string][]string{"W1": {"V1"}, "W2": {"V3"}}); err != nil {
		return nil, err
	}
	if err := admin.Load([]server.LoadRow{
		{Rel: "M", Values: []string{"10", "Cathy"}},
		{Rel: "C", Values: []string{"Cathy", "c@example.com", "Boss"}},
	}); err != nil {
		return nil, err
	}

	promoteDir := filepath.Join(dir, "promoted")
	fol, err := startFailoverDaemon(bin,
		"-addr", "127.0.0.1:0",
		"-admin-token", "root",
		"-follow", prim.base,
		"-data-dir", promoteDir,
		"-repl-poll", "25ms")
	if err != nil {
		return nil, err
	}
	defer fol.stop()

	// Establish the wall on the primary and wait until the follower's
	// replica refuses the walled query too: the safety property measured
	// alongside the recovery time needs a replicated refusal to preserve.
	app := &server.Client{BaseURL: prim.base, Token: "tok"}
	if res, err := app.Submit("QC(p, e) :- C(p, e, r)"); err != nil || !res.Allowed {
		return nil, fmt.Errorf("contacts query on primary: allowed=%v err=%v", res.Allowed, err)
	}
	if res, err := app.Submit("QM(t) :- M(t, p)"); err != nil || res.Allowed {
		return nil, fmt.Errorf("meetings query on primary: allowed=%v err=%v", res.Allowed, err)
	}
	folApp := &server.Client{BaseURL: fol.base, Token: "tok"}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if ex, err := folApp.Explain("QM(t) :- M(t, p)"); err == nil && !ex.Admissible {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("follower did not replicate the wall within 30s")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Background load pressure; the kill lands after WarmRows acks.
	var acked atomic.Int64
	stop := make(chan struct{})
	var stopOnce sync.Once
	var wg sync.WaitGroup
	for w := 0; w < cfg.Loaders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				row := server.LoadRow{Rel: "C", Values: []string{
					fmt.Sprintf("P%d-%d", w, i), fmt.Sprintf("p%d-%d@example.com", w, i), "Peer",
				}}
				if err := admin.Load([]server.LoadRow{row}); err != nil {
					return
				}
				acked.Add(1)
			}
		}(w)
	}
	killDeadline := time.Now().Add(30 * time.Second)
	for acked.Load() < int64(cfg.WarmRows) && time.Now().Before(killDeadline) {
		time.Sleep(time.Millisecond)
	}
	if err := prim.cmd.Process.Kill(); err != nil {
		return nil, fmt.Errorf("SIGKILL primary: %w", err)
	}
	_ = prim.cmd.Wait()
	primUp = false
	stopOnce.Do(func() { close(stop) })
	wg.Wait()

	// Promote and race to the first admitted write.
	tr := map[string]float64{"acked_loads": float64(acked.Load())}
	promoteStart := time.Now()
	req, err := http.NewRequest(http.MethodPost, fol.base+"/v1/repl/promote", nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Authorization", "Bearer root")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("promote: %w", err)
	}
	var pr struct {
		Epoch      uint64 `json:"epoch"`
		AppliedOps uint64 `json:"applied_ops"`
	}
	err = json.NewDecoder(resp.Body).Decode(&pr)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || err != nil {
		return nil, fmt.Errorf("promote status %d (%v)", resp.StatusCode, err)
	}
	tr["promote_ms"] = float64(time.Since(promoteStart)) / float64(time.Millisecond)
	tr["epoch"] = float64(pr.Epoch)
	tr["applied_ops"] = float64(pr.AppliedOps)

	res, err := folApp.Submit("QC(p, e) :- C(p, e, r)")
	if err != nil || !res.Allowed {
		return nil, fmt.Errorf("first post-failover write: allowed=%v err=%v", res.Allowed, err)
	}
	tr["first_write_ms"] = float64(time.Since(promoteStart)) / float64(time.Millisecond)

	// Safety gate: the recovery time above only counts if the promoted
	// node still refuses the pre-failover walled query.
	if res, err := folApp.Submit("QM(t) :- M(t, p)"); err != nil || res.Allowed || res.Error != "" {
		return nil, fmt.Errorf("promoted node did not cleanly refuse the walled query (allowed=%v, error=%q, err=%v)", res.Allowed, res.Error, err)
	}
	return tr, nil
}
