// Command perfbench is the end-to-end benchmark of the reference monitor.
// It runs one workload against the real serving stack in-process — the
// primary served by server.New over disclosure.OpenDurable (or an
// in-memory System), wired as cmd/disclosured wires it — under a closed
// loop of two clients, each an app backend on its own connection that
// waits for every answer before it sends the next request. It checks
// every answer against an in-memory oracle, crashes and recovers the
// deployment with a recovery check, and prints the end-to-end metrics,
// scaled to a reference machine speed by a calibration kernel (see
// calib.go); with --trace 1 it instead makes a separate traced run and
// prints the per-layer table.
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload steady-warm --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit status is non-zero when
// any request fails or any oracle, recovery, exact-count or identity check
// fails. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

func main() {
	if os.Getenv(calibrationEnv) != "" {
		os.Exit(calibrationKernel())
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: steady-warm, cold-templates or app-onboarding")
	seed := fs.Int64("seed", 1, "seed of the graph, the policies and the request stream")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1: make the traced run and print the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := specNamed(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	dir, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res, err := execute(defaultConfig(sp, *seed, *seconds, dir), *trace == 1, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !res.correct() {
		return 1
	}
	return 0
}

// execute makes one run and prints its report and result line.
func execute(cfg config, traced bool, w io.Writer) (*result, error) {
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.dir)
	views, err := viewNames()
	if err != nil {
		return nil, err
	}
	env := stampEnvironment(cfg)
	t0 := time.Now()
	st := buildStream(cfg, views, streamPerClient(cfg))
	progress("%s seed %d: stream of %d apps generated in %.2f s", cfg.spec.name, cfg.seed, len(st.apps), time.Since(t0).Seconds())
	var res *result
	if traced {
		res, err = runTraced(cfg, st)
	} else {
		res, err = runEndToEnd(cfg, st)
	}
	if err != nil {
		return nil, err
	}
	res.print(w, cfg, env)
	return res, nil
}

// progress reports a step of the run on standard error.
func progress(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func (r *result) correct() bool { return r.checks.n == 0 && r.failed == 0 }

// print writes the human-readable report, the environment stamp and the
// exact counts, then the result object as the last line.
func (r *result) print(w io.Writer, cfg config, env environment) {
	mode := "end-to-end"
	if r.traced {
		mode = "traced, per-layer"
	}
	fmt.Fprintf(w, "perfbench %s seed %d (%s)\n", cfg.spec.name, cfg.seed, mode)
	for _, line := range r.report {
		fmt.Fprintln(w, "  "+line)
	}
	for _, name := range r.order {
		m := r.metrics[name]
		if m.n > 0 {
			fmt.Fprintf(w, "  %-32s %14.4f %-6s (n=%d)\n", name, m.Value, m.Unit, m.n)
		} else {
			fmt.Fprintf(w, "  %-32s %14.4f %s\n", name, m.Value, m.Unit)
		}
	}
	for _, msg := range r.checks.msgs {
		fmt.Fprintln(w, "  CHECK FAILED:", msg)
	}
	if r.checks.n > len(r.checks.msgs) {
		fmt.Fprintf(w, "  ... %d check failures in all\n", r.checks.n)
	}
	line, _ := json.Marshal(map[string]any{"env": env, "counts": r.counts})
	fmt.Fprintln(w, string(line))
	metrics := make(map[string]metric, len(r.metrics))
	for k, v := range r.metrics {
		metrics[k] = v
	}
	line, _ = json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, metrics})
	fmt.Fprintln(w, string(line))
}
