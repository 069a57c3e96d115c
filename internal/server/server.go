// Package server implements disclosured, the networked reference-monitor
// service: an HTTP/JSON front end exposing the full disclosure.System
// surface — the deployment model of the paper's Figure 2, where a platform
// mediates queries from many third-party apps on behalf of its users.
//
// Endpoints (all bodies JSON, wire types in api.go):
//
//	POST   /v1/submit              submit one query or a batch (principal token)
//	GET    /v1/explain?q=...       structured admissibility explanation (principal token)
//	PUT    /v1/policy/{principal}  install a policy + submission token (admin token)
//	DELETE /v1/policy/{principal}  remove a principal (admin token)
//	POST   /v1/load                bulk-load rows in one snapshot (admin token)
//	GET    /v1/stats               system counters and server gauges (no auth)
//	GET    /metrics                Prometheus text exposition (admin token)
//
// Authentication is bearer-token: administrative endpoints require the
// admin token the server was created with, and each principal submits with
// the per-principal token installed alongside its policy (the token
// identifies the principal, so a request cannot impersonate another app).
// Request bodies are size-limited, refusals carry structured explanation
// bodies, and shutdown is graceful: in-flight requests complete, new
// connections are refused.
//
// One Server type serves both node roles. New starts a primary, which
// decides locally; NewFollower starts a read follower over a replica,
// which delegates every decision to its primary (follower.go). Promoting
// a follower swaps its role in place: the listener, the metrics and the
// start time carry over.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	disclosure "repro"
	"repro/internal/obs"
)

// Options configures a Server.
type Options struct {
	// AdminToken authenticates the administrative endpoints (policy
	// installation and bulk loading). It must be non-empty.
	AdminToken string
	// MaxRequestBytes bounds request-body size (default 1 MiB). Larger
	// requests are refused with 413 before any work is done.
	MaxRequestBytes int64
	// MaxBatch bounds the number of queries in one submit request
	// (default 1024).
	MaxBatch int
	// Journal, when non-nil, write-ahead logs every submission-token
	// installation before the token becomes active, so a recovered
	// deployment keeps its principals' credentials. disclosure.Durable
	// implements it; see cmd/disclosured's -data-dir mode.
	Journal TokenJournal
	// Tokens seeds the token table at construction without journaling —
	// the recovery path, fed from disclosure.Durable.Tokens(). A seed
	// token that collides with another principal's is an error.
	Tokens map[string]string
	// Repl, when non-nil, is mounted under /v1/repl/ — the replication
	// surface (repl.Primary.Handler()) a durable primary exposes to its
	// followers. The handler does its own bearer-token authentication.
	Repl http.Handler
	// Metrics, when non-nil, is the instance registry for this server's
	// per-route HTTP collectors and sampled gauges; GET /metrics exposes
	// it after the process-wide obs.Default registry. Nil creates a
	// fresh one, which keeps multiple servers in one process apart.
	Metrics *obs.Registry
}

// TokenJournal durably records submission tokens; the server calls it
// under its token lock, before a new token becomes active.
type TokenJournal interface {
	// LogToken records that principal's submission token is (about to be)
	// token. An error aborts the installation.
	LogToken(principal, token string) error
}

// DefaultMaxRequestBytes is the request-body bound applied when
// Options.MaxRequestBytes is zero.
const DefaultMaxRequestBytes = 1 << 20

// DefaultMaxBatch is the per-request query bound applied when
// Options.MaxBatch is zero.
const DefaultMaxBatch = 1024

// Server is the reference-monitor HTTP service of one node, primary or
// follower. Create it with New or NewFollower, mount Handler (or call
// Serve), and stop it with Shutdown. All methods are safe for concurrent
// use.
type Server struct {
	opts  Options
	start time.Time
	hm    *httpMetrics
	build obs.BuildInfo

	// cur is the node's current role; a promotion stores a primary over
	// the follower in one step.
	cur atomic.Pointer[role]
	// fol is the follower state of a node born a follower (nil for New).
	// It outlives a promotion: stats keep the follower block and a second
	// promote is answered from it.
	fol *follower

	httpMu sync.Mutex
	http   *http.Server
}

// role is what differs between a primary and a follower node. The HTTP
// edge — decoding, limits, parsing, auth, stats, metrics — is the
// Server's, written once for both.
type role interface {
	// mux routes the role's endpoints (see Server.newMux).
	mux() *http.ServeMux
	// system is the System explains, stats and the instance gauges read.
	system() *disclosure.System
	// principal resolves a submission token to its principal.
	principal(token string) (string, bool)
	// gate runs after authentication, before the body is read: it answers
	// and returns false when the node can make no decision at all.
	gate(w http.ResponseWriter) bool
	// submit decides and evaluates an authenticated principal's queries.
	submit(principal string, qs []*disclosure.Query) []SubmitResult
	// stats returns the node's submission counters and cache statistics.
	stats() disclosure.SystemStats
	// epoch returns the decision epoch the node is at.
	epoch() uint64
}

// newServer builds the role-independent half of a node; the caller
// completes it with begin.
func newServer(opts Options) *Server {
	if opts.MaxRequestBytes <= 0 {
		opts.MaxRequestBytes = DefaultMaxRequestBytes
	}
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = DefaultMaxBatch
	}
	if opts.Metrics == nil {
		opts.Metrics = obs.NewRegistry()
	}
	return &Server{
		opts:  opts,
		start: time.Now(),
		hm:    newHTTPMetrics(opts.Metrics),
		build: obs.ReadBuildInfo(),
	}
}

// begin stores the node's first role and registers the sampled gauges,
// which read the current role's system.
func (s *Server) begin(r role) *Server {
	s.setRole(r)
	registerInstanceGauges(s.opts.Metrics, s.System, s.start)
	return s
}

// New wires a primary Server over the given system. The system may
// already hold data and policies; principals installed out of band can be
// given submission tokens with RegisterToken.
func New(sys *disclosure.System, opts Options) (*Server, error) {
	if opts.AdminToken == "" {
		return nil, fmt.Errorf("server: AdminToken must be non-empty")
	}
	s := newServer(opts)
	p, err := s.newPrimary(sys, opts.Journal, opts.Tokens, opts.Repl)
	if err != nil {
		return nil, err
	}
	return s.begin(p), nil
}

func (s *Server) current() role  { return *s.cur.Load() }
func (s *Server) setRole(r role) { s.cur.Store(&r) }

// System returns the served system — the replica's on a follower (tests
// and embedders reach through to it, e.g. to pre-load data without going
// over HTTP).
func (s *Server) System() *disclosure.System { return s.current().system() }

// RegisterToken installs (or rotates) the submission token of a principal
// whose policy was set outside the HTTP API. It fails if the token already
// authenticates a different principal, and on a follower, whose tokens
// replicate from its primary.
func (s *Server) RegisterToken(principal, token string) error {
	p, ok := s.current().(*primary)
	if !ok {
		return fmt.Errorf("server: a follower's tokens replicate from its primary")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.setTokenLocked(principal, token)
}

// newMux routes the endpoints every role serves; fresh wraps the data
// endpoints with the role's pre-authentication check. The role adds its
// own routes to the result.
func (s *Server) newMux(fresh func(http.HandlerFunc) http.HandlerFunc) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/submit", fresh(s.handleSubmit))
	mux.HandleFunc("GET /v1/explain", fresh(s.handleExplain))
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// Handler returns the service's HTTP handler with the request-size limit
// and metrics middleware applied, for mounting under a custom http.Server
// or test server. Each request is routed by the node's current role.
func (s *Server) Handler() http.Handler {
	return s.hm.wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxRequestBytes)
		s.current().mux().ServeHTTP(w, r)
	}))
}

// Serve accepts connections on l until Shutdown. It returns
// http.ErrServerClosed after a clean shutdown, like net/http.
func (s *Server) Serve(l net.Listener) error {
	srv := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second}
	s.httpMu.Lock()
	s.http = srv
	s.httpMu.Unlock()
	return srv.Serve(l)
}

// ListenAndServe listens on addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// Shutdown gracefully stops a server started with Serve or ListenAndServe:
// the listener closes immediately, in-flight requests run to completion (or
// until ctx expires), and Serve returns http.ErrServerClosed. A promoted
// follower then checkpoints and closes the deployment it was promoted
// into, so a restart recovers it promptly.
func (s *Server) Shutdown(ctx context.Context) error {
	s.httpMu.Lock()
	srv := s.http
	s.httpMu.Unlock()
	var err error
	if srv != nil {
		err = srv.Shutdown(ctx)
	}
	if s.fol == nil {
		return err
	}
	if d := s.fol.promoted.Swap(nil); d != nil {
		_ = d.Checkpoint()
		if cerr := d.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// bearer extracts the request's bearer token, or "".
func bearer(r *http.Request) string {
	h := r.Header.Get("Authorization")
	const prefix = "Bearer "
	if len(h) > len(prefix) && strings.EqualFold(h[:len(prefix)], prefix) {
		return h[len(prefix):]
	}
	return ""
}

// authPrincipal authenticates a submission request against the role's
// tokens, writing 401 and returning ok=false on failure.
func authPrincipal(ro role, w http.ResponseWriter, r *http.Request) (string, bool) {
	tok := bearer(r)
	if tok == "" {
		writeError(w, http.StatusUnauthorized, "missing bearer token")
		return "", false
	}
	principal, ok := ro.principal(tok)
	if !ok {
		writeError(w, http.StatusUnauthorized, "unknown token")
		return "", false
	}
	return principal, true
}

// authAdmin authenticates an administrative request, writing 401 and
// returning false on failure.
func (s *Server) authAdmin(w http.ResponseWriter, r *http.Request) bool {
	if bearer(r) != s.opts.AdminToken {
		writeError(w, http.StatusUnauthorized, "admin token required")
		return false
	}
	return true
}

// writeJSON writes v as a JSON response with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError writes an ErrorResponse with the given status.
func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, ErrorResponse{Error: msg})
}

// decode parses a JSON request body into v, writing 400 (or 413 for
// oversized bodies) and returning false on failure.
func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit))
			return false
		}
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return false
	}
	return true
}

// handleSubmit serves POST /v1/submit: one query or a batch on behalf of
// the authenticated principal. Refusals are 200 responses with structured
// refusal bodies — refusal is a policy outcome, not a transport error.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	ro := s.current()
	principal, ok := authPrincipal(ro, w, r)
	// Refuse the whole batch up front when this node cannot decide at all
	// — a transport-level status, not N per-query errors, so clients and
	// load balancers see the node's state.
	if !ok || !ro.gate(w) {
		return
	}
	var req SubmitRequest
	if !decode(w, r, &req) {
		return
	}
	single := req.Query != ""
	if single == (len(req.Queries) > 0) {
		writeError(w, http.StatusBadRequest, "set exactly one of query or queries")
		return
	}
	srcs := req.Queries
	if single {
		srcs = []string{req.Query}
	}
	if len(srcs) > s.opts.MaxBatch {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("batch of %d exceeds the %d-query bound", len(srcs), s.opts.MaxBatch))
		return
	}
	qs := make([]*disclosure.Query, len(srcs))
	for i, src := range srcs {
		q, err := disclosure.ParseQuery(src)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("query %d: %v", i, err))
			return
		}
		qs[i] = q
	}
	writeJSON(w, http.StatusOK, SubmitResponse{Principal: principal, Results: ro.submit(principal, qs)})
}

// newResult is the wire form of one decided query: the error, or the
// refusal explained against sys's session state, or the admitted rows.
func newResult(sys *disclosure.System, principal string, q *disclosure.Query, dec disclosure.Decision, rows []disclosure.Tuple, err error) SubmitResult {
	out := SubmitResult{Query: q.Name, Allowed: dec.Allowed, Live: dec.Live}
	switch {
	case err != nil:
		out.Error = err.Error()
	case !dec.Allowed:
		if e, eerr := sys.ExplainDecision(principal, q); eerr == nil {
			out.Refusal = &e
		}
	default:
		out.Rows = make([][]string, len(rows))
		for j, row := range rows {
			out.Rows[j] = row
		}
	}
	return out
}

// handleExplain serves GET /v1/explain?q=...: the structured admissibility
// account of a query for the authenticated principal, without submitting
// it — session state is not advanced, and a follower answers from its
// replica without contacting the primary. Labeling does go through the
// shared label cache, so explain traffic warms (and competes for) the same
// canonical-form entries submissions use.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	ro := s.current()
	principal, ok := authPrincipal(ro, w, r)
	if !ok {
		return
	}
	src := r.URL.Query().Get("q")
	if src == "" {
		writeError(w, http.StatusBadRequest, "missing q parameter")
		return
	}
	q, err := disclosure.ParseQuery(src)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	e, err := ro.system().ExplainDecision(principal, q)
	if err != nil {
		if errors.Is(err, disclosure.ErrNoPolicy) {
			writeError(w, http.StatusUnauthorized, err.Error())
			return
		}
		writeError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, e)
}

// handleStats serves GET /v1/stats: the node's counters (the SystemStats
// identity holds per node; a follower's delegated decisions also count on
// its primary) and gauges. A node born a follower adds the follower
// block, before and after promotion. Never gated on replica lag — it is
// how lag is monitored.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	ro := s.current()
	st := StatsResponse{
		SystemStats:   ro.stats(),
		Principals:    ro.system().Principals(),
		UptimeSeconds: time.Since(s.start).Seconds(),
		Build:         s.build,
		Epoch:         ro.epoch(),
	}
	if s.fol == nil {
		writeJSON(w, http.StatusOK, st)
		return
	}
	_, promoted := ro.(*primary)
	writeJSON(w, http.StatusOK, FollowerStatsResponse{StatsResponse: st, Follower: s.fol.status(w, promoted)})
}

// handleMetrics serves GET /metrics: the process-wide obs.Default registry
// — submit-pipeline stages, WAL, checkpoints — followed by this instance's
// HTTP and sampled gauges (on a follower also the sync loop's staleness
// and resync families), in the Prometheus text exposition format. It is
// authenticated with the admin token; a follower without one serves it
// open.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if s.opts.AdminToken != "" && !s.authAdmin(w, r) {
		return
	}
	w.Header().Set("Content-Type", obs.ExpositionContentType)
	_ = obs.ExposeAll(w, obs.Default, s.opts.Metrics)
}
