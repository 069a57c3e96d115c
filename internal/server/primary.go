package server

import (
	"errors"
	"fmt"
	"net/http"
	"sync"

	disclosure "repro"
	"repro/internal/repl"
)

// primary is the role of a node that decides locally: submissions go
// straight to System.SubmitBatch, principals authenticate against the
// server's own token table, and the administrative endpoints and the
// replication surface are served here.
type primary struct {
	s       *Server
	sys     *disclosure.System
	journal TokenJournal
	routes  *http.ServeMux

	mu     sync.RWMutex
	tokens map[string]string // submission token → principal
	byName map[string]string // principal → its current token
}

// newPrimary builds the primary role over sys, seeding the token table
// from tokens without journaling (the recovery path) and mounting replH,
// when non-nil, under /v1/repl/.
func (s *Server) newPrimary(sys *disclosure.System, journal TokenJournal, tokens map[string]string, replH http.Handler) (*primary, error) {
	p := &primary{
		s:       s,
		sys:     sys,
		journal: journal,
		routes:  s.newMux(func(h http.HandlerFunc) http.HandlerFunc { return h }),
		tokens:  make(map[string]string),
		byName:  make(map[string]string),
	}
	p.routes.HandleFunc("PUT /v1/policy/{principal}", p.handleSetPolicy)
	p.routes.HandleFunc("DELETE /v1/policy/{principal}", p.handleRemovePolicy)
	p.routes.HandleFunc("POST /v1/load", p.handleLoad)
	if replH != nil {
		p.routes.Handle("/v1/repl/", replH)
	}
	if s.fol != nil {
		// A promoted follower answers a repeated promotion itself.
		p.routes.HandleFunc("/v1/repl/promote", s.fol.promoteConflict)
	}
	for principal, token := range tokens {
		if err := p.installTokenLocked(principal, token); err != nil {
			return nil, fmt.Errorf("server: seeding token for %q: %w", principal, err)
		}
	}
	return p, nil
}

func (p *primary) mux() *http.ServeMux        { return p.routes }
func (p *primary) system() *disclosure.System { return p.sys }
func (p *primary) epoch() uint64              { return p.sys.Epoch() }

func (p *primary) stats() disclosure.SystemStats { return p.sys.Stats() }

func (p *primary) principal(token string) (string, bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	principal, ok := p.tokens[token]
	return principal, ok
}

// gate refuses a submission up front when the node can make no decisions
// at all: a fenced node (superseded by a completed failover) answers a
// structured 409 so epoch-aware clients repoint, and an expired decision
// lease answers 503 (retryable once a follower reconnects or the operator
// resolves the partition).
func (p *primary) gate(w http.ResponseWriter) bool {
	err := p.sys.DecisionErr()
	switch {
	case err == nil:
		return true
	case errors.Is(err, disclosure.ErrLeaseExpired):
		writeError(w, http.StatusServiceUnavailable, err.Error())
	default:
		p.writeErr(w, http.StatusInternalServerError, err)
	}
	return false
}

// writeErr answers a failed decision or write: the structured 409 of a
// fenced node, otherwise status with the error text.
func (p *primary) writeErr(w http.ResponseWriter, status int, err error) {
	if errors.Is(err, disclosure.ErrFenced) {
		writeJSON(w, http.StatusConflict, ErrorResponse{
			Error:    err.Error(),
			Code:     repl.CodeFenced,
			Epoch:    p.sys.Epoch(),
			FencedBy: p.sys.FencedBy(),
		})
		return
	}
	writeError(w, status, err.Error())
}

// submit runs single and batch requests through SubmitBatch alike: a
// one-element batch is decided and evaluated exactly like Submit, and
// every multi-query request pins one database snapshot.
func (p *primary) submit(principal string, qs []*disclosure.Query) []SubmitResult {
	results := p.sys.SubmitBatch(principal, qs)
	out := make([]SubmitResult, len(results))
	for i, res := range results {
		out[i] = newResult(p.sys, principal, qs[i], res.Decision, res.Rows, res.Err)
	}
	return out
}

// errJournal marks token-journal failures so handlers answer 500 (the
// server's durability layer is in trouble) rather than 400.
var errJournal = errors.New("server: token journal failure")

// errTokenTaken refuses a token another principal already holds.
var errTokenTaken = errors.New("server: token already assigned to another principal")

// setTokenLocked rotates principal's token to token; the previous token, if
// any, stops authenticating. A token held by a different principal is
// refused — accepting it would let that principal's requests silently act
// as this one, and the eventual rotation would revoke the other principal's
// only credential. With a journal configured the rotation is logged before
// it takes effect. Callers hold p.mu.
func (p *primary) setTokenLocked(principal, token string) error {
	if owner, ok := p.tokens[token]; ok && owner != principal {
		return errTokenTaken
	}
	if p.journal != nil {
		if err := p.journal.LogToken(principal, token); err != nil {
			return fmt.Errorf("%w: %v", errJournal, err)
		}
	}
	return p.installTokenLocked(principal, token)
}

// installTokenLocked applies a token rotation to the in-memory table
// without journaling — the shared tail of setTokenLocked and the recovery
// seeding in newPrimary. Callers hold p.mu (or own p exclusively).
func (p *primary) installTokenLocked(principal, token string) error {
	if owner, ok := p.tokens[token]; ok && owner != principal {
		return errTokenTaken
	}
	if old, ok := p.byName[principal]; ok {
		delete(p.tokens, old)
	}
	p.byName[principal] = token
	p.tokens[token] = principal
	return nil
}

// handleSetPolicy serves PUT /v1/policy/{principal}: install or replace a
// policy and rotate the principal's submission token. Replacing a policy
// resets the principal's cumulative-disclosure session, exactly like
// System.SetPolicy.
func (p *primary) handleSetPolicy(w http.ResponseWriter, r *http.Request) {
	if !p.s.authAdmin(w, r) {
		return
	}
	principal := r.PathValue("principal")
	var req PolicyRequest
	if !decode(w, r, &req) {
		return
	}
	if req.Token == "" {
		writeError(w, http.StatusBadRequest, "token must be non-empty")
		return
	}
	if req.Token == p.s.opts.AdminToken {
		writeError(w, http.StatusBadRequest, "token must differ from the admin token")
		return
	}
	// Install under the token lock so a concurrent submission never sees
	// the new token before the policy (or the old policy after its token
	// was rotated away). The collision check runs before SetPolicy so a
	// refused request neither resets the principal's session nor disturbs
	// any token.
	p.mu.Lock()
	var err error
	if owner, ok := p.tokens[req.Token]; ok && owner != principal {
		err = errTokenTaken
	} else if err = p.sys.SetPolicy(principal, req.Partitions); err == nil {
		err = p.setTokenLocked(principal, req.Token)
	}
	p.mu.Unlock()
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, errTokenTaken) {
			status = http.StatusConflict
		}
		if errors.Is(err, errJournal) {
			status = http.StatusInternalServerError
		}
		p.writeErr(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, PolicyResponse{Principal: principal, Partitions: len(req.Partitions)})
}

// handleRemovePolicy serves DELETE /v1/policy/{principal}: the principal's
// policy, session state and token are removed; its in-flight submissions
// fail with the no-policy error.
func (p *primary) handleRemovePolicy(w http.ResponseWriter, r *http.Request) {
	if !p.s.authAdmin(w, r) {
		return
	}
	principal := r.PathValue("principal")
	// Remove durably first: if the log append fails, the in-memory token
	// must stay valid too, or a recovered server would accept a credential
	// the live server had stopped accepting.
	p.mu.Lock()
	err := p.sys.RemovePolicy(principal)
	if err == nil {
		if tok, ok := p.byName[principal]; ok {
			delete(p.tokens, tok)
			delete(p.byName, principal)
		}
	}
	p.mu.Unlock()
	if err != nil {
		// Only the durability layer can fail a removal.
		p.writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, PolicyResponse{Principal: principal})
}

// handleLoad serves POST /v1/load: bulk rows inserted through
// System.LoadBatch, so concurrent submissions observe either none or all
// of the request's rows.
func (p *primary) handleLoad(w http.ResponseWriter, r *http.Request) {
	if !p.s.authAdmin(w, r) {
		return
	}
	var req LoadRequest
	if !decode(w, r, &req) {
		return
	}
	if len(req.Rows) == 0 {
		writeError(w, http.StatusBadRequest, "rows must be non-empty")
		return
	}
	// Validate every row before loading any: LoadBatch publishes rows
	// inserted before a failure, so up-front validation is what makes a
	// bad request atomic (nothing from a failing request lands).
	sch := p.sys.Catalog().Schema()
	for i, row := range req.Rows {
		rel := sch.Relation(row.Rel)
		if rel == nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("row %d: unknown relation %q", i, row.Rel))
			return
		}
		if rel.Arity() != len(row.Values) {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("row %d: relation %q has arity %d, got %d values",
				i, row.Rel, rel.Arity(), len(row.Values)))
			return
		}
	}
	err := p.sys.LoadBatch(func(ld *disclosure.Loader) error {
		for i, row := range req.Rows {
			if err := ld.Insert(row.Rel, row.Values...); err != nil {
				return fmt.Errorf("row %d: %w", i, err)
			}
		}
		return nil
	})
	if err != nil {
		p.writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, LoadResponse{Rows: len(req.Rows)})
}
