package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	disclosure "repro"
	"repro/internal/cq"
)

// Span names of the traced replay, one per layer boundary the benchmark
// calls across, in path order.
const (
	spRequest   = iota // one replayed request (the root span)
	spParse            // disclosure.ParseQuery
	spCanon            // cq.CanonicalKey
	spLabel            // CachedLabeler.LabelCanonical
	spDecide           // System.Decide
	spEval             // System.Evaluate
	spPolicyNew        // disclosure.NewPolicy
	spSetPolicy        // System.SetPolicy (validates and installs; logs on a durable primary)
	numSpans
)

var spanNames = [numSpans]string{"request", "cq.parse", "cq.canon", "label.label", "disclosure.decide", "engine.eval", "policy.install", "disclosure.set_policy"}

// span is one timed call. Spans of one request share req; parent indexes
// the caller's span in the same buffer (-1 for a root).
type span struct {
	req        int32
	name       uint8
	parent     int32
	start, end int64 // nanoseconds since the tracer's epoch
}

// tracer keeps one client's spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	spans []span
}

func (t *tracer) begin(req int32, name uint8, parent int32) int32 {
	t.spans = append(t.spans, span{req: req, name: name, parent: parent, start: int64(time.Since(t.epoch))})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) { t.spans[i].end = int64(time.Since(t.epoch)) }

// replayer is the in-process path of one deployment: the primary System's
// labeler and policy install, and the decide and evaluate calls of the
// node clients submit to.
type replayer struct {
	sys     *disclosure.System
	labeler interface {
		LabelCanonical(key string, q *disclosure.Query) (disclosure.Label, error)
	}
	decide   decider
	evaluate func(q *disclosure.Query) ([]disclosure.Tuple, error)
	// submit is the untraced one-call path, System.Submit.
	submit func(principal string, q *disclosure.Query) (disclosure.Decision, []disclosure.Tuple, error)
}

func newReplayer(d *deployment) (*replayer, error) {
	lab, ok := d.sys.Labeler().(interface {
		LabelCanonical(key string, q *disclosure.Query) (disclosure.Label, error)
	})
	if !ok {
		return nil, fmt.Errorf("the system's labeler %T has no LabelCanonical", d.sys.Labeler())
	}
	return &replayer{sys: d.sys, labeler: lab, decide: d.sys.Decide, evaluate: d.sys.Evaluate, submit: d.sys.Submit}, nil
}

// replayClients replays every client's sent ops on its own goroutine, in
// send order, so each app sees the same sequence it saw over HTTP.
func replayClients(st *stream, logs []*clientLog, each func(c int, lg *clientLog)) {
	done := make(chan struct{}, len(logs))
	for c, lg := range logs {
		go func(c int, lg *clientLog) {
			defer func() { done <- struct{}{} }()
			each(c, lg)
		}(c, lg)
	}
	for range logs {
		<-done
	}
}

// tracedReplay replays the stream through the public functions in path
// order — parse, canonicalize, label, decide, evaluate if admitted —
// with one span per call, and checks each answer against the HTTP run's.
func tracedReplay(rp *replayer, st *stream, logs []*clientLog, f *failures) []*tracer {
	tracers := make([]*tracer, len(logs))
	epoch := time.Now()
	for c := range tracers {
		tracers[c] = &tracer{epoch: epoch}
	}
	cat := rp.sys.Catalog()
	replayClients(st, logs, func(c int, lg *clientLog) {
		tr := tracers[c]
		tr.spans = make([]span, 0, 6*len(lg.out))
		for i := 0; i < len(lg.out); i++ {
			o, req := st.ops[c][i], int32(i)
			name := st.apps[o.app].name
			root := tr.begin(req, spRequest, -1)
			if o.kind == opInstall {
				s := tr.begin(req, spPolicyNew, root)
				_, err := disclosure.NewPolicy(cat, o.parts)
				tr.end(s)
				s = tr.begin(req, spSetPolicy, root)
				if err == nil {
					err = rp.sys.SetPolicy(name, o.parts)
				}
				tr.end(s)
				tr.end(root)
				if err != nil {
					f.add("traced replay: %s: policy install: %v", name, err)
				}
				continue
			}
			s := tr.begin(req, spParse, root)
			q, err := disclosure.ParseQuery(o.query)
			tr.end(s)
			if err != nil {
				tr.end(root)
				f.add("traced replay: %s: %v", name, err)
				continue
			}
			s = tr.begin(req, spCanon, root)
			key := cq.CanonicalKey(q)
			tr.end(s)
			s = tr.begin(req, spLabel, root)
			_, err = rp.labeler.LabelCanonical(key, q)
			tr.end(s)
			var dec disclosure.Decision
			if err == nil {
				s = tr.begin(req, spDecide, root)
				dec, err = rp.decide(name, q)
				tr.end(s)
			}
			var rows []disclosure.Tuple
			if err == nil && dec.Allowed {
				s = tr.begin(req, spEval, root)
				rows, err = rp.evaluate(q)
				tr.end(s)
			}
			tr.end(root)
			if err != nil {
				f.add("traced replay: %s: %v", name, err)
				continue
			}
			want := outcome{allowed: dec.Allowed, live: liveKey(dec.Live), rows: len(rows), hash: rowHash(rows)}
			if got := lg.out[i]; got.err == "" && (got.allowed != want.allowed || got.live != want.live || got.rows != want.rows || got.hash != want.hash) {
				f.add("traced replay: %s op %d: served allowed=%v rows=%d, replay allowed=%v rows=%d", name, i, got.allowed, got.rows, want.allowed, want.rows)
			}
		}
	})
	return tracers
}

// plainReplay replays the same ops untraced through the one-call submit
// path and returns the mean time of a timed submission in microseconds.
func plainReplay(rp *replayer, st *stream, logs []*clientLog, f *failures) float64 {
	sums := make([]time.Duration, len(logs))
	ns := make([]int, len(logs))
	replayClients(st, logs, func(c int, lg *clientLog) {
		for i := 0; i < len(lg.out); i++ {
			o := st.ops[c][i]
			name := st.apps[o.app].name
			if o.kind == opInstall {
				if err := rp.sys.SetPolicy(name, o.parts); err != nil {
					f.add("untraced replay: %s: %v", name, err)
				}
				continue
			}
			t0 := time.Now()
			q, err := disclosure.ParseQuery(o.query)
			if err == nil {
				_, _, err = rp.submit(name, q)
			}
			if i >= st.warmup && i < lg.timedEnd {
				sums[c] += time.Since(t0)
				ns[c]++
			}
			if err != nil {
				f.add("untraced replay: %s: %v", name, err)
			}
		}
	})
	var sum time.Duration
	n := 0
	for c := range sums {
		sum += sums[c]
		n += ns[c]
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n) / 1e3
}

// layerTime is one span name's reduced self time over timed requests.
type layerTime struct {
	self  []float64 // microseconds
	total float64   // sum of self time, microseconds
}

// reduce computes every span's self time — its duration minus the part
// its child spans cover — and groups it by span name, over the requests
// of the timed phase only (warm-up requests are replayed but not counted).
// It also returns the mean duration of a timed submission's root span.
func reduce(tracers []*tracer, st *stream, logs []*clientLog) (layers [numSpans]layerTime, submitMeanUs float64) {
	var rootSum float64
	var roots int
	for c, tr := range tracers {
		timedEnd := logs[c].timedEnd
		child := make([]int64, len(tr.spans))
		for _, s := range tr.spans {
			if s.parent >= 0 {
				child[s.parent] += s.end - s.start
			}
		}
		for i, s := range tr.spans {
			if int(s.req) < st.warmup || int(s.req) >= timedEnd {
				continue
			}
			self := float64(s.end-s.start-child[i]) / 1e3
			layers[s.name].self = append(layers[s.name].self, self)
			layers[s.name].total += self
			if s.name == spRequest && i+1 < len(tr.spans) && tr.spans[i+1].name == spParse {
				rootSum += float64(s.end-s.start) / 1e3
				roots++
			}
		}
	}
	if roots > 0 {
		submitMeanUs = rootSum / float64(roots)
	}
	return layers, submitMeanUs
}

// writeSpans writes every span as CSV (client, request, name, parent,
// start and end in nanoseconds) to path.
func writeSpans(path string, tracers []*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(fh)
	fmt.Fprintln(w, "client,request,span,name,parent,start_ns,end_ns")
	for c, tr := range tracers {
		for i, s := range tr.spans {
			fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d,%d\n", c, s.req, i, spanNames[s.name], s.parent, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		fh.Close()
		return err
	}
	return fh.Close()
}

// runTraced is the traced run on fresh deployments with the same seed
// and stream: an HTTP run that diffs the program's /metrics families
// around the timed phase, one crash recovery, then an in-process traced
// replay of exactly the requests the HTTP run sent, and an untraced
// in-process replay of the same requests that prices the tracing and
// attributes the HTTP gap. It reports the per-layer metrics.
func runTraced(cfg config, st *stream) (*result, error) {
	r := newResult()
	r.traced = true
	d, err := deploy(cfg, st, filepath.Join(cfg.dir, "http"))
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	ph, err := drive(cfg, d, st, newClientLogs(st), nil)
	if err != nil {
		d.close()
		return nil, err
	}
	r.account(ph)
	checkIdentity(r.checks, "served system", d.sys)
	served := d.sys.Stats()
	submits, installs := ph.timedOps()
	var httpSum time.Duration
	for _, lg := range ph.logs {
		for _, l := range lg.submits {
			httpSum += l
		}
	}
	httpMeanUs := float64(httpSum) / float64(max(submits, 1)) / 1e3
	rowsAdmitted, admits := 0, 0
	for c, lg := range ph.logs {
		for i := st.warmup; i < lg.timedEnd; i++ {
			if o := lg.out[i]; st.ops[c][i].kind == opSubmit && o.allowed {
				rowsAdmitted += o.rows
				admits++
			}
		}
	}
	m := metricsFromScrapes(ph, submits+installs)
	installLat := installLatencies(cfg, d.installs, ph)
	cfgOnce := cfg
	cfgOnce.recoveryReps = 1
	rec, replayed, err := measureRecovery(cfgOnce, st, d, ph.logs, r.checks, nil)
	if err != nil {
		return nil, fmt.Errorf("recovery: %w", err)
	}
	recoveryPerOp := 0.0
	if replayed > 0 {
		recoveryPerOp = rec[0] * 1e6 / float64(replayed)
	}
	r.counts.ReplayedOps = replayed

	traced, err := deploy(cfg, st, filepath.Join(cfg.dir, "traced"))
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	rp, err := newReplayer(traced)
	if err != nil {
		traced.close()
		return nil, err
	}
	t0 := time.Now()
	tracers := tracedReplay(rp, st, ph.logs, r.checks)
	progress("traced replay: %.2f s", time.Since(t0).Seconds())
	checkIdentity(r.checks, "traced replay", traced.sys)
	checkCounts(r.checks, cfg, st, ph.logs, served, traced.sys.Stats(), replayed)
	traced.close()
	layers, tracedMeanUs := reduce(tracers, st, ph.logs)
	spansPath := filepath.Join(filepath.Dir(cfg.dir), "traces", cfg.spec.name+".csv")
	if err := writeSpans(spansPath, tracers); err != nil {
		return nil, err
	}

	plain, err := deploy(cfg, st, filepath.Join(cfg.dir, "plain"))
	if err != nil {
		return nil, fmt.Errorf("untraced set-up: %w", err)
	}
	rp, err = newReplayer(plain)
	if err != nil {
		plain.close()
		return nil, err
	}
	t0 = time.Now()
	plainMeanUs := plainReplay(rp, st, ph.logs, r.checks)
	progress("untraced replay: %.2f s", time.Since(t0).Seconds())
	plain.close()

	r.note("HTTP run: %.2f s, %d submits, %d policy installs; spans written to %s", ph.elapsed.Seconds(), submits, installs, spansPath)
	r.note("per-layer self time over the %d timed requests (in-process traced replay):", submits+installs)
	r.note("  %-24s %10s %12s %10s", "span", "count", "self p50 us", "share")
	var all float64
	for _, l := range layers {
		all += l.total
	}
	for i, l := range layers {
		if len(l.self) > 0 {
			r.note("  %-24s %10d %12.2f %9.1f%%", spanNames[i], len(l.self), median(l.self), 100*l.total/all)
		}
	}
	r.note("submission mean: HTTP %.1f us, traced in-process %.1f us, untraced in-process %.1f us", httpMeanUs, tracedMeanUs, plainMeanUs)
	r.note("tracing overhead: %.1f us per submission (traced minus untraced in-process)", tracedMeanUs-plainMeanUs)
	r.note("HTTP gap: %.1f us per submission (HTTP minus untraced in-process)", httpMeanUs-plainMeanUs)
	r.note("label hit ratio base: %.0f lookups; plan hit ratio base: %.0f lookups", m.labelLookups, m.planLookups)

	r.set("submit_p99_ms", median(ph.windows().p99), "ms", submits)
	r.set("policy_install_p99_ms", percentile(installLat, 0.99), "ms", len(installLat))
	r.set("server.self_us", m.serverSelf, "us", m.submitRequests)
	r.set("server.http_gap_us", httpMeanUs-plainMeanUs, "us", submits)
	r.set("cq.parse_us", median(layers[spParse].self), "us", len(layers[spParse].self))
	r.set("cq.canon_us", median(layers[spCanon].self), "us", len(layers[spCanon].self))
	r.set("label.label_us", median(layers[spLabel].self), "us", len(layers[spLabel].self))
	r.set("label.hit_ratio", m.labelHitRatio, "ratio", int(m.labelLookups))
	r.set("label.misses", m.labelMisses, "count", 0)
	r.set("policy.install_us", median(layers[spPolicyNew].self), "us", len(layers[spPolicyNew].self))
	r.set("disclosure.decide_us", median(layers[spDecide].self), "us", len(layers[spDecide].self))
	r.set("disclosure.stage_label_us", m.stageLabel, "us", m.stageN)
	r.set("disclosure.stage_decide_us", m.stageDecide, "us", m.stageN)
	r.set("disclosure.stage_eval_us", m.stageEval, "us", m.stageEvalN)
	r.set("disclosure.recovery_us_per_op", recoveryPerOp, "us", replayed)
	r.set("disclosure.replayed_ops", float64(replayed), "count", 0)
	r.set("wal.commit_windows", m.walWindows, "count", 0)
	r.set("wal.frames_per_window", m.walFramesPerWindow, "frames", int(m.walWindows))
	r.set("wal.fsync_wait_us", m.walFsyncWait, "us", m.walFsyncN)
	r.set("wal.commit_us", m.walCommit, "us", int(m.walWindows))
	r.set("wal.disk_bytes_per_op", m.diskPerOp, "B", submits+installs)
	r.set("engine.eval_us", median(layers[spEval].self), "us", len(layers[spEval].self))
	r.set("engine.plan_hit_ratio", m.planHitRatio, "ratio", int(m.planLookups))
	r.set("engine.rows_per_admit", float64(rowsAdmitted)/float64(max(admits, 1)), "rows", admits)
	r.set("trace.overhead_us", tracedMeanUs-plainMeanUs, "us", submits)
	r.set("client.error_frac", float64(r.failed)/float64(max(r.attempted, 1)), "ratio", r.attempted)
	return r, nil
}

// scraped holds the per-layer values derived from the /metrics diffs of
// an HTTP run.
type scraped struct {
	submitRequests                           int
	serverSelf                               float64
	stageLabel, stageDecide, stageEval       float64
	stageN, stageEvalN                       int
	labelHitRatio, labelLookups, labelMisses float64
	planHitRatio, planLookups                float64
	walWindows, walFramesPerWindow           float64
	walFsyncWait, walCommit                  float64
	walFsyncN                                int
	diskPerOp                                float64
}

func ratio(hits, misses float64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return hits / (hits + misses)
}

// metricsFromScrapes reduces the before/after scrapes of the timed phase.
// The server's own time per submission is the HTTP submit route's mean
// minus what the layers below it account for, the three submit-pipeline
// stages (SubmitBatch, which the server calls, records the stages but not
// disclosure_submit_seconds).
func metricsFromScrapes(ph *phase, ops int) scraped {
	var m scraped
	b, a := ph.before, ph.after
	const submitRoute = `route="POST /v1/submit"`
	httpUs, httpN := histMean(b, a, "disclosure_http_request_seconds", submitRoute)
	m.submitRequests = int(httpN)
	var labelN, decideN float64
	m.stageLabel, labelN = histMean(b, a, "disclosure_submit_stage_seconds", `stage="label"`)
	m.stageDecide, decideN = histMean(b, a, "disclosure_submit_stage_seconds", `stage="decide"`)
	evalUs, evalN := histMean(b, a, "disclosure_submit_stage_seconds", `stage="eval"`)
	m.stageEval, m.stageN, m.stageEvalN = evalUs, int(labelN), int(evalN)
	if httpN > 0 {
		m.serverSelf = httpUs - (m.stageLabel*labelN+m.stageDecide*decideN+evalUs*evalN)/httpN
	}
	hits := diff(b, a, "disclosure_label_cache_hits_total")
	m.labelMisses = diff(b, a, "disclosure_label_cache_misses_total")
	m.labelHitRatio, m.labelLookups = ratio(hits, m.labelMisses), hits+m.labelMisses
	ph1, pm := diff(b, a, "disclosure_plan_cache_hits_total"), diff(b, a, "disclosure_plan_cache_misses_total")
	m.planHitRatio, m.planLookups = ratio(ph1, pm), ph1+pm
	m.walWindows = diff(b, a, "disclosure_wal_commit_windows_total")
	if fw, n := histMean(b, a, "disclosure_wal_commit_window_frames", ""); n > 0 {
		m.walFramesPerWindow = fw / 1e6 // histMean scales to microseconds
	}
	var fsN float64
	m.walFsyncWait, fsN = histMean(b, a, "disclosure_wal_fsync_wait_seconds", "")
	m.walFsyncN = int(fsN)
	m.walCommit, _ = histMean(b, a, "disclosure_wal_commit_seconds", "")
	if ops > 0 {
		m.diskPerOp = float64(ph.diskAfter-ph.diskBefore) / float64(ops)
	}
	return m
}
