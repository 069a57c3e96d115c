package server

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	disclosure "repro"
	"repro/internal/cq"
	"repro/internal/obs"
	"repro/internal/repl"
)

// ReplicaBackend is what a follower server serves from: a replicated,
// bounded-stale copy of the primary's deployment plus the decision RPC
// that keeps admission primary-consistent. repl.Follower implements it.
type ReplicaBackend interface {
	// System returns the replica's System — the local read surface
	// (evaluation, explains, sessions). Its write surface is never used.
	System() *disclosure.System
	// TokenOwner resolves a replicated submission token to its principal.
	TokenOwner(token string) (string, bool)
	// Decide delegates one submission's admit/refuse decision to the
	// primary. An error means the decision could not be made — the caller
	// fails the submission closed; it never admits locally.
	Decide(principal string, q *disclosure.Query) (disclosure.Decision, error)
	// Staleness reports how long ago the replica last fully matched the
	// primary, and false if it never has.
	Staleness() (time.Duration, bool)
	// Applied returns the log operations applied over the follower's
	// lifetime; Resyncs how often it rebuilt from fresh checkpoints.
	Applied() uint64
	// Resyncs returns the number of checkpoint re-bootstraps.
	Resyncs() uint64
	// Primary returns the primary's base URL, for monitoring output.
	Primary() string
	// Epoch returns the decision epoch this node is at: the replicated
	// epoch while following, the successor epoch once promoted.
	Epoch() uint64
}

// PromotableBackend is the optional failover surface of a replica backend:
// a backend that can take over as primary. repl.Follower implements it.
type PromotableBackend interface {
	// Promote drains replication as far as the old primary is reachable,
	// materializes the replica into a fresh durable deployment at dir
	// under the successor decision epoch, and returns that deployment with
	// its replication handler (to mount under /v1/repl/). Repeated calls
	// fail with repl.ErrAlreadyPromoted.
	Promote(dir string, opts disclosure.DurabilityOptions) (*disclosure.Durable, http.Handler, error)
}

// FollowerOptions configures a follower Server.
type FollowerOptions struct {
	// MaxRequestBytes bounds request-body size (default
	// DefaultMaxRequestBytes).
	MaxRequestBytes int64
	// MaxBatch bounds the number of queries in one submit request (default
	// DefaultMaxBatch).
	MaxBatch int
	// MaxLag, when positive, gates reads on replica freshness: submit and
	// explain requests are refused with 503 while the replica's staleness
	// exceeds it (or before the first completed sync). Stats is never
	// gated — it is how lag is monitored.
	MaxLag time.Duration
	// Metrics, when non-nil, is the instance registry for this server's
	// collectors (HTTP middleware, fail-closed and lag-gate counters,
	// sampled gauges); GET /metrics exposes it after obs.Default. The
	// daemon passes the same registry to repl.FollowerOptions.Metrics so
	// one scrape covers the sync loop and the serving layer. Nil creates
	// a fresh registry.
	Metrics *obs.Registry
	// Audit, when non-nil, receives a structured record (node
	// "follower") for every refused and errored submission and — with
	// SlowQuery positive — every submission at least that slow.
	Audit *obs.AuditLog
	// SlowQuery is the audit threshold for admitted submissions.
	SlowQuery time.Duration
	// AdminToken, when non-empty, authenticates GET /metrics and POST
	// /v1/repl/promote, and becomes the promoted node's admin token.
	// Empty leaves /metrics open and disables promotion (403) — a
	// follower with no admin surface cannot be made a primary.
	AdminToken string
	// PromoteDir is the data directory a promotion materializes the
	// replica into; it must be empty or absent on disk. Empty disables
	// promotion (412) — a promoted primary must be durable.
	PromoteDir string
	// PromoteDurability configures the promoted deployment (shard count,
	// group commit, checkpoint cadence).
	PromoteDurability disclosure.DurabilityOptions
}

// follower is the read-path role of a node serving a replicated
// deployment: it serves /v1/submit, /v1/explain and /v1/stats and refuses
// everything else — administrative and write endpoints belong to the
// primary.
//
// The disclosure split is the replication design's core (see package
// repl): answer rows, explanations and stats come from the local replica
// (bounded-stale, staleness declared in the X-Disclosure-Staleness header
// of every data response), while each submission's admit/refuse decision
// is delegated to the primary, so cumulative disclosure is enforced
// against complete history no matter how far this follower lags. When the
// primary is unreachable the follower fails submissions closed: an error,
// never a local admission.
type follower struct {
	s      *Server
	back   ReplicaBackend
	opts   FollowerOptions
	routes *http.ServeMux

	// failClosed counts submissions failed closed because the decision
	// RPC errored; lagRejects counts requests refused 503 by the MaxLag
	// gate. Both also surface as instance metrics.
	failClosed *obs.Counter
	lagRejects *obs.Counter
	// promotions counts completed takeovers — 0 or 1 per process, but a
	// counter so fleet-wide failover rates aggregate in one query.
	promotions *obs.Counter

	// promoteMu single-flights POST /v1/repl/promote; promoted is the
	// durable deployment a promotion swapped in, closed on Shutdown.
	promoteMu sync.Mutex
	promoted  atomic.Pointer[disclosure.Durable]

	// Counter identity, local to this node (see SystemStats): queries is
	// incremented when a submission enters, exactly one of the other three
	// before it returns. Delegated decisions also count on the primary.
	queries  atomic.Uint64
	admitted atomic.Uint64
	refused  atomic.Uint64
	errored  atomic.Uint64
}

// StalenessHeader declares a follower data response's replica staleness in
// seconds (decimal). It is the serving half of the staleness contract:
// every answer a follower returns is correct as of a primary state at most
// that far in the past — except admit/refuse outcomes, which are always
// primary-current.
const StalenessHeader = "X-Disclosure-Staleness"

// NewFollower wires a follower Server over a replica backend.
func NewFollower(back ReplicaBackend, opts FollowerOptions) *Server {
	s := newServer(Options{
		AdminToken:      opts.AdminToken,
		MaxRequestBytes: opts.MaxRequestBytes,
		MaxBatch:        opts.MaxBatch,
		Metrics:         opts.Metrics,
	})
	reg := s.opts.Metrics
	f := &follower{
		s:    s,
		back: back,
		opts: opts,
		failClosed: reg.Counter("disclosure_follower_fail_closed_total",
			"Submissions failed closed because the primary decision RPC errored."),
		lagRejects: reg.Counter("disclosure_follower_lag_rejections_total",
			"Requests refused 503 because replica staleness exceeded the max-lag bound."),
		promotions: reg.Counter("disclosure_promotions_total",
			"Completed promotions of this node from follower to primary."),
	}
	f.routes = s.newMux(f.fresh)
	f.routes.HandleFunc("POST /v1/repl/promote", f.handlePromote)
	f.routes.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusForbidden, "read-only follower: administrative and write endpoints are served by the primary "+back.Primary())
	})
	s.fol = f
	return s.begin(f)
}

func (f *follower) mux() *http.ServeMux                   { return f.routes }
func (f *follower) system() *disclosure.System            { return f.back.System() }
func (f *follower) principal(token string) (string, bool) { return f.back.TokenOwner(token) }
func (f *follower) epoch() uint64                         { return f.back.Epoch() }

// gate admits every authenticated submission: a follower's freshness
// check runs before authentication (fresh), and its decisions are the
// primary's, which fails them closed one by one.
func (f *follower) gate(http.ResponseWriter) bool { return true }

// stats returns the node-local submission counters with the replica's
// cache statistics.
func (f *follower) stats() disclosure.SystemStats {
	rep := f.back.System().Stats()
	return disclosure.SystemStats{
		Queries:  f.queries.Load(),
		Admitted: f.admitted.Load(),
		Refused:  f.refused.Load(),
		Errored:  f.errored.Load(),
		Cache:    rep.Cache,
		Plans:    rep.Plans,
	}
}

// staleness stamps the staleness header on w and returns the replica's
// staleness, false before the first completed sync.
func (f *follower) staleness(w http.ResponseWriter) (time.Duration, bool) {
	age, ok := f.back.Staleness()
	if ok {
		w.Header().Set(StalenessHeader, strconv.FormatFloat(age.Seconds(), 'f', 3, 64))
	} else {
		w.Header().Set(StalenessHeader, "unsynced")
	}
	return age, ok
}

// fresh stamps the staleness header and enforces MaxLag before a data
// handler authenticates the request.
func (f *follower) fresh(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if age, ok := f.staleness(w); f.opts.MaxLag > 0 && (!ok || age > f.opts.MaxLag) {
			f.lagRejects.Inc()
			writeError(w, http.StatusServiceUnavailable,
				fmt.Sprintf("follower replica staleness exceeds the %s bound; retry or use the primary %s", f.opts.MaxLag, f.back.Primary()))
			return
		}
		h(w, r)
	}
}

// status builds the follower block of GET /v1/stats — the lag metrics
// docs/OPERATIONS.md tells operators to watch — and stamps the staleness
// header.
func (f *follower) status(w http.ResponseWriter, promoted bool) FollowerStatus {
	age, ok := f.staleness(w)
	st := FollowerStatus{
		Primary:          f.back.Primary(),
		Synced:           ok,
		StalenessSeconds: -1,
		AppliedOps:       f.back.Applied(),
		Resyncs:          f.back.Resyncs(),
		Epoch:            f.back.Epoch(),
		Promoted:         promoted,
	}
	if ok {
		st.StalenessSeconds = age.Seconds()
	}
	return st
}

// submit decides each query with the primary and evaluates admitted ones
// on the replica. Queries of a batch are decided sequentially in slice
// order — each decision advances the primary's session before the next is
// made, exactly like a batch submitted to the primary itself.
func (f *follower) submit(principal string, qs []*disclosure.Query) []SubmitResult {
	sys := f.back.System()
	results := make([]SubmitResult, len(qs))
	for i, q := range qs {
		f.queries.Add(1)
		t0 := time.Now()
		dec, err := f.back.Decide(principal, q)
		decideDur := time.Since(t0)
		var rows []disclosure.Tuple
		var evalDur time.Duration
		outcome := "admitted"
		switch {
		case err != nil:
			// Fail closed: an unreachable or refusing primary is an error,
			// never a locally improvised admission.
			f.errored.Add(1)
			f.failClosed.Inc()
			outcome = "errored"
		case !dec.Allowed:
			// The refusal explanation is built from the replica's session
			// copy: structurally primary-shaped, numerically bounded-stale
			// (the decision itself came from the primary).
			f.refused.Add(1)
			outcome = "refused"
		default:
			f.admitted.Add(1)
			te := time.Now()
			rows, err = sys.Evaluate(q)
			evalDur = time.Since(te)
		}
		out := newResult(sys, principal, q, dec, rows, err)
		if f.opts.Audit != nil {
			f.auditSubmission(principal, q, out, outcome, decideDur, evalDur)
		}
		results[i] = out
	}
	return results
}

// auditSubmission writes the follower-side audit record for one decided
// submission: refusals and errors always, admitted queries when at least
// SlowQuery slow. DecideMs is the primary decision RPC (the follower's
// analogue of the monitor stage); EvalMs is the local evaluation;
// staleness is stamped so an audit line is interpretable without joining
// against the scrape history.
func (f *follower) auditSubmission(principal string, q *disclosure.Query, out SubmitResult, outcome string, decideDur, evalDur time.Duration) {
	total := decideDur + evalDur
	slow := f.opts.SlowQuery > 0 && total >= f.opts.SlowQuery
	if outcome == "admitted" && out.Error == "" && !slow {
		return
	}
	rec := obs.AuditRecord{
		Node:             "follower",
		Principal:        principal,
		Query:            q.Name,
		Outcome:          outcome,
		Slow:             slow,
		Error:            out.Error,
		Live:             out.Live,
		DecideMs:         decideDur.Seconds() * 1e3,
		EvalMs:           evalDur.Seconds() * 1e3,
		TotalMs:          total.Seconds() * 1e3,
		StalenessSeconds: -1,
	}
	rec.Fingerprint = strconv.FormatUint(cq.FingerprintKey(cq.CanonicalKey(q)), 16)
	if age, ok := f.back.Staleness(); ok {
		rec.StalenessSeconds = age.Seconds()
	}
	if out.Refusal != nil {
		rec.Offending = out.Refusal.Offending()
	}
	_ = f.opts.Audit.Log(&rec)
}

// handlePromote serves POST /v1/repl/promote (admin token): the fenced
// failover. The backend drains what it can still reach of the old
// primary, materializes its replica into PromoteDir under the successor
// decision epoch, and the server swaps in a primary role over the new
// deployment — local durable decisions, administrative endpoints, and the
// replication surface for the next generation of followers — on the same
// listener. From the first replication message it sends or answers, the
// successor epoch fences the old primary.
func (f *follower) handlePromote(w http.ResponseWriter, r *http.Request) {
	if f.opts.AdminToken == "" {
		writeError(w, http.StatusForbidden, "promotion disabled: follower started without an admin token")
		return
	}
	if !f.s.authAdmin(w, r) {
		return
	}
	pb, ok := f.back.(PromotableBackend)
	if !ok {
		writeError(w, http.StatusNotImplemented, "this backend cannot be promoted")
		return
	}
	if f.opts.PromoteDir == "" {
		writeError(w, http.StatusPreconditionFailed,
			"promotion needs a data directory: start the follower with -data-dir")
		return
	}
	f.promoteMu.Lock()
	defer f.promoteMu.Unlock()
	applied := f.back.Applied()
	dur, replH, err := pb.Promote(f.opts.PromoteDir, f.opts.PromoteDurability)
	if err != nil {
		if errors.Is(err, repl.ErrAlreadyPromoted) {
			f.promoteConflict(w, r)
			return
		}
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	p, err := f.s.newPrimary(dur.System(), dur, dur.Tokens(), replH)
	if err != nil {
		// The successor epoch is already durably recorded; a node that
		// cannot build its serving surface must not keep the deployment
		// open and half-alive.
		_ = dur.Close()
		writeError(w, http.StatusInternalServerError, "promotion succeeded but the primary service failed to start: "+err.Error())
		return
	}
	f.promoted.Store(dur)
	f.s.setRole(p)
	f.promotions.Inc()
	writeJSON(w, http.StatusOK, repl.PromoteResponse{
		Epoch:      dur.Epoch(),
		Dir:        f.opts.PromoteDir,
		AppliedOps: applied,
	})
}

// promoteConflict answers a promotion request on an already-promoted node.
func (f *follower) promoteConflict(w http.ResponseWriter, _ *http.Request) {
	epoch := f.back.Epoch()
	writeJSON(w, http.StatusConflict, ErrorResponse{
		Error: fmt.Sprintf("node is already promoted and decides under epoch %d", epoch),
		Code:  repl.CodeAlreadyPromoted,
		Epoch: epoch,
	})
}
