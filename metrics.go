package disclosure

import (
	"strconv"
	"time"

	"repro/internal/cq"
	"repro/internal/obs"
)

// This file is the observability seam of the root package: the
// submit-pipeline metrics a System maintains (per-stage latency
// histograms and outcome counters, see ARCHITECTURE.md "Observability"),
// the checkpoint metrics of the durable layer, and the structured
// decision audit hook. All hot-path updates go through internal/obs
// collectors, which are allocation-free; the audit path allocates only
// for the records it actually writes (refusals, errors, slow
// submissions).

// Submission outcome indices — array positions into systemMetrics so
// the hot path never builds a label string.
const (
	outcomeAdmitted = iota
	outcomeRefused
	outcomeErrored
)

// outcomeNames maps outcome indices to their metric label and audit
// rendering.
var outcomeNames = [3]string{"admitted", "refused", "errored"}

// systemMetrics holds one System's submit-pipeline collectors. A nil
// *systemMetrics (registry obs.Disabled) disables instrumentation; the
// collectors themselves are nil-safe, so a partially built value is
// never observed.
type systemMetrics struct {
	// outcomes counts submissions by reference-monitor outcome; e2e is
	// the end-to-end Submit/Decide latency by the same outcome.
	outcomes [3]*obs.Counter
	e2e      [3]*obs.Histogram
	// stageLabel, stageDecide and stageEval split a submission by
	// pipeline stage: canonicalization+labeling, the reference-monitor
	// decision (including the WAL group-commit wait on a durable
	// System), and evaluation of admitted queries.
	stageLabel  *obs.Histogram
	stageDecide *obs.Histogram
	stageEval   *obs.Histogram
	// auditDrops counts audit records lost to write failures.
	auditDrops *obs.Counter
}

// newSystemMetrics registers (get-or-create) the submit-pipeline
// families in r; a nil registry returns nil, turning instrumentation
// off.
func newSystemMetrics(r *obs.Registry) *systemMetrics {
	if r == nil {
		return nil
	}
	m := &systemMetrics{}
	for i, name := range outcomeNames {
		m.outcomes[i] = r.Counter("disclosure_submissions_total",
			"Submissions by reference-monitor outcome.", "outcome", name)
		m.e2e[i] = r.Histogram("disclosure_submit_seconds",
			"End-to-end Submit/Decide latency by outcome.", obs.LatencyBuckets, "outcome", name)
	}
	m.stageLabel = r.Histogram("disclosure_submit_stage_seconds",
		"Submit-pipeline stage latency: canonicalize+label, monitor decide (including WAL wait), evaluate.",
		obs.LatencyBuckets, "stage", "label")
	m.stageDecide = r.Histogram("disclosure_submit_stage_seconds",
		"Submit-pipeline stage latency: canonicalize+label, monitor decide (including WAL wait), evaluate.",
		obs.LatencyBuckets, "stage", "decide")
	m.stageEval = r.Histogram("disclosure_submit_stage_seconds",
		"Submit-pipeline stage latency: canonicalize+label, monitor decide (including WAL wait), evaluate.",
		obs.LatencyBuckets, "stage", "eval")
	m.auditDrops = r.Counter("disclosure_audit_drops_total",
		"Audit records lost to write failures.")
	return m
}

// Checkpoint metrics live on the process-wide registry: every Durable in
// the process shares them, and they exist (at zero) from process start,
// so a scrape sees the families before the first rotation.
var (
	checkpointSeconds = obs.Default.Histogram("disclosure_checkpoint_seconds",
		"Duration of one shard checkpoint rotation (capture, flush, snapshot write, prune).",
		obs.DurationBuckets)
	checkpointFailures = obs.Default.Counter("disclosure_checkpoint_failures_total",
		"Shard checkpoint rotations that failed (the previous generation stays current).")
)

// SetMetricsRegistry re-registers the System's submit-pipeline metrics
// in r — obs.Default is the construction-time default, a fresh registry
// isolates an instance (benchmarks, multi-node tests), and obs.Disabled
// turns instrumentation off entirely. Call it before the System is
// shared: the swap is not synchronized with in-flight submissions.
func (sys *System) SetMetricsRegistry(r *obs.Registry) {
	sys.mets = newSystemMetrics(r)
}

// SetAudit attaches a structured decision audit log (see
// obs.AuditRecord): every refused and errored submission is recorded,
// and — when slowQuery is positive — every submission whose end-to-end
// time reaches the threshold. Call it before the System is shared. A
// nil log detaches auditing.
func (sys *System) SetAudit(log *obs.AuditLog, slowQuery time.Duration) {
	sys.audit = log
	sys.slowQuery = slowQuery
}

// stageTrace carries a submission's stage-boundary timestamps through
// Submit and Decide on the stack: one clock read per boundary actually
// crossed when timed, none otherwise, and no timestamp for the finish
// (times derives total from the last boundary, so a fully traced
// submission costs exactly boundaries+1 clock reads). Boundaries the
// submission never reached stay zero.
type stageTrace struct {
	timed   bool // metrics or audit attached
	start   time.Time
	tLabel  time.Time // after canonicalize+label
	tDecide time.Time // after the reference-monitor decision
	tEval   time.Time // after evaluation
}

// now reads the clock for a timed trace and returns the zero time
// otherwise.
func (tr *stageTrace) now() time.Time {
	if !tr.timed {
		return time.Time{}
	}
	return time.Now()
}

// stageTimes is one submission's stage split, as its metrics and audit
// record report it.
type stageTimes struct {
	label, decide, eval, total time.Duration
}

// times derives the stage split from the trace's boundaries.
func (tr *stageTrace) times() stageTimes {
	var st stageTimes
	end := tr.start
	if !tr.tLabel.IsZero() {
		st.label = tr.tLabel.Sub(tr.start)
		end = tr.tLabel
	}
	if !tr.tDecide.IsZero() {
		st.decide = tr.tDecide.Sub(end)
		end = tr.tDecide
	}
	if !tr.tEval.IsZero() {
		st.eval = tr.tEval.Sub(end)
		end = tr.tEval
	}
	if end == tr.start {
		// Failed before the first boundary (unknown principal): the only
		// path that pays an extra clock read, off the common case.
		st.total = time.Since(tr.start)
	} else {
		st.total = end.Sub(tr.start)
	}
	return st
}

// finishSubmit lands a Submit or Decide submission: the stage histograms
// its trace reached, then its outcome. dec and err describe the outcome;
// key is empty when the submission failed before canonicalization.
func (sys *System) finishSubmit(tr *stageTrace, outcome int, principal string, q *Query, key string, dec Decision, err error) {
	var st stageTimes
	if tr.timed {
		st = tr.times()
		if m := sys.mets; m != nil {
			if st.label > 0 {
				m.stageLabel.Observe(st.label.Seconds())
			}
			if st.decide > 0 {
				m.stageDecide.Observe(st.decide.Seconds())
			}
			if st.eval > 0 {
				m.stageEval.Observe(st.eval.Seconds())
			}
		}
	}
	sys.recordOutcome(outcome, principal, q, key, dec, err, st)
}

// recordOutcome lands one submission's outcome — of Submit, Decide or one
// SubmitBatch item — exactly once: its Stats counter and, when
// instrumented, its outcome counter, one end-to-end latency observation
// and its audit record.
func (sys *System) recordOutcome(outcome int, principal string, q *Query, key string, dec Decision, err error, st stageTimes) {
	sys.outcomes[outcome].Add(1)
	if m := sys.mets; m != nil {
		m.outcomes[outcome].Inc()
		m.e2e[outcome].Observe(st.total.Seconds())
	}
	sys.auditSubmission(outcome, principal, q, key, dec, err, st)
}

// auditSubmission writes one decision audit record if the attached log
// and the outcome warrant it: refusals and errors always, admissions
// only past the slow-query threshold.
func (sys *System) auditSubmission(outcome int, principal string, q *Query, key string, dec Decision, err error, st stageTimes) {
	al := sys.audit
	if al == nil {
		return
	}
	slow := sys.slowQuery > 0 && st.total >= sys.slowQuery
	if outcome == outcomeAdmitted && !slow {
		return
	}
	rec := &obs.AuditRecord{
		Node:      "primary",
		Principal: principal,
		Outcome:   outcomeNames[outcome],
		Slow:      slow,
		Live:      dec.Live,
		LabelMs:   float64(st.label) / float64(time.Millisecond),
		DecideMs:  float64(st.decide) / float64(time.Millisecond),
		EvalMs:    float64(st.eval) / float64(time.Millisecond),
		TotalMs:   float64(st.total) / float64(time.Millisecond),
	}
	if q != nil {
		rec.Query = q.Name
	}
	if key != "" {
		rec.Fingerprint = strconv.FormatUint(cq.FingerprintKey(key), 16)
	}
	if err != nil {
		rec.Error = err.Error()
	}
	if outcome == outcomeRefused {
		if e, eerr := sys.ExplainDecision(principal, q); eerr == nil {
			rec.Offending = e.Offending()
		}
	}
	if lerr := al.Log(rec); lerr != nil {
		if m := sys.mets; m != nil {
			m.auditDrops.Inc()
		}
	}
}
