// Package httpapi is the production client edge of the replicated KV
// service: an HTTP/JSON API that fronts the admission-controlled command
// pool (internal/txpool) on a serving replica. It is the first interface
// in the stack designed for arbitrary external traffic — requests are
// validated before they cost an ordering slot, every failure mode maps to
// a structured error code, and overload turns into explicit backpressure
// (429 + Retry-After) instead of unbounded queueing.
//
// Endpoints:
//
//	POST /v1/tx        submit one command (put/del/get) and wait for its
//	                   committed response, bounded by a per-request
//	                   timeout
//	GET  /v1/kv/{key}  read a key from this replica's applied state
//	                   (serializable, locally applied — NOT ordered; use
//	                   POST /v1/tx with op "get" for a linearizable read)
//	GET  /v1/status    one JSON document: host-supplied status plus the
//	                   admission pool's live depth and shed counters
//
// The server is transport-only: it owns no consensus state. The host
// wires it to a pool plus two callbacks (Propose hands a newly-admitted
// command to the ordering layer; Read probes the applied store), which
// keeps the package fully testable with fakes. See docs/api.md for the
// wire-level contract.
package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/kv"
	"repro/internal/txpool"
	"repro/internal/types"
	"repro/internal/xtrace"
)

// Error codes carried in the error envelope's "code" field.
const (
	// CodeInvalidArgument: the request failed validation (bad JSON, bad
	// op, zero client/seq, oversize key/value, bad timeout). HTTP 400.
	CodeInvalidArgument = "INVALID_ARGUMENT"
	// CodeNotFound: GET /v1/kv/{key} found no such key. HTTP 404.
	CodeNotFound = "NOT_FOUND"
	// CodePoolFull: the admission pool shed the command (backpressure).
	// HTTP 429 with a Retry-After header. Nothing was proposed.
	CodePoolFull = "POOL_FULL"
	// CodeTimeout: the command was admitted (and possibly committed) but
	// no response resolved within the request's timeout. HTTP 504. The
	// client should retry with the SAME (client, seq): if the command did
	// commit, the session layer answers the retry from cache instead of
	// re-applying it.
	CodeTimeout = "TIMEOUT"
	// CodeUnavailable: the replica cannot serve (node loop stopped or a
	// status/read probe timed out). HTTP 503.
	CodeUnavailable = "UNAVAILABLE"
	// CodeInternal: the committed response failed to decode — a bug or a
	// Byzantine proposer's garbage answered under this session. HTTP 500.
	CodeInternal = "INTERNAL"
)

const (
	// retryAfter is the backoff hint attached to 429 responses.
	retryAfter = time.Second
	// maxBodyBytes bounds the POST /v1/tx body, the same bound
	// kv.MaxStringLen puts on one key or value.
	maxBodyBytes = 1 << 20
)

// TxRequest is the POST /v1/tx body.
type TxRequest struct {
	// Client is the session id (nonzero); Seq the client's 1-based
	// sequence number within it. Together they are the exactly-once
	// identity: retries MUST reuse the pair, new requests MUST advance
	// Seq.
	Client uint64 `json:"client"`
	Seq    uint64 `json:"seq"`
	// Op is "put", "del" or "get".
	Op string `json:"op"`
	// Key is the target key (required); Value the payload for "put".
	Key   string `json:"key"`
	Value string `json:"value,omitempty"`
	// TimeoutMS overrides the server's default wait-for-commit timeout,
	// capped at the server maximum (0 = default).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// TxResponse is the POST /v1/tx success body (HTTP 200: the command was
// ordered, applied and answered — Status carries the machine's verdict).
type TxResponse struct {
	// Status is the state machine's answer: "ok", "not-found" (get/del of
	// an absent key) or "stale" (seq below the session watermark; nothing
	// applied).
	Status string `json:"status"`
	// Value is the read value for op "get".
	Value string `json:"value,omitempty"`
	// Client and Seq echo the request identity.
	Client uint64 `json:"client"`
	Seq    uint64 `json:"seq"`
}

// ReadResponse is the GET /v1/kv/{key} success body.
type ReadResponse struct {
	// Key and Value are the entry as applied on this replica.
	Key   string `json:"key"`
	Value string `json:"value"`
}

// ErrorBody is the envelope every non-2xx response carries.
type ErrorBody struct {
	// Error describes the failure.
	Error ErrorInfo `json:"error"`
}

// ErrorInfo is one structured API error.
type ErrorInfo struct {
	// Code is one of the Code* constants; Message is human-readable
	// detail.
	Code    string `json:"code"`
	Message string `json:"message"`
	// RetryAfterMS, on POOL_FULL, is the suggested backoff before
	// retrying (also sent as a Retry-After header, in whole seconds).
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// Config wires a Server to its host replica.
type Config struct {
	// Pool is the admission-controlled command pool (required). The
	// server admits every tx through it and translates ErrFull into 429.
	Pool *txpool.Pool
	// Propose hands a newly-admitted command to the ordering layer
	// (required). It is called exactly once per pool entry — deduped
	// arrivals wait on the existing entry instead. The host's
	// implementation must eventually trigger Pool.Resolve for the
	// command's (client, seq), either when the command commits or
	// immediately if the session cache already holds its response. An
	// error means the replica cannot accept work (e.g. shutting down).
	Propose func(c kv.Command, enc types.Value) error
	// Read probes this replica's applied store for GET /v1/kv/{key}
	// (required). ok=false means no such key; an error means the probe
	// could not run (replica unavailable).
	Read func(key string) (val string, ok bool, err error)
	// Status, if non-nil, supplies the host fields of GET /v1/status; the
	// server adds the pool_* family itself.
	Status func() map[string]any
	// DefaultTimeout bounds wait-for-commit when the request does not set
	// timeout_ms (default 10s); MaxTimeout caps what a request may ask
	// for (default 30s).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// ObserveLatency, if non-nil, receives the accepted→answered wall
	// time of every tx that resolved (the client-visible commit latency).
	ObserveLatency func(time.Duration)
	// Tracer, if non-nil, records the admit and respond edges of each
	// tx's causal trace (internal/xtrace). Passive.
	Tracer *xtrace.Tracer
}

// Server is the HTTP handler. Build with New; it is safe for concurrent
// use by the standard library's server.
type Server struct {
	cfg Config
	mux *http.ServeMux
}

// New validates the config and builds the handler.
func New(cfg Config) (*Server, error) {
	if cfg.Pool == nil {
		return nil, errors.New("httpapi: nil Pool")
	}
	if cfg.Propose == nil {
		return nil, errors.New("httpapi: nil Propose")
	}
	if cfg.Read == nil {
		return nil, errors.New("httpapi: nil Read")
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 10 * time.Second
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 30 * time.Second
	}
	s := &Server{cfg: cfg, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/tx", s.serveTx)
	s.mux.HandleFunc("GET /v1/kv/{key}", s.serveRead)
	s.mux.HandleFunc("GET /v1/status", s.serveStatus)
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// writeJSON writes one JSON document with the given HTTP status.
func writeJSON(w http.ResponseWriter, status int, doc any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(doc)
}

// writeError writes the structured error envelope.
func writeError(w http.ResponseWriter, status int, code, msg string, retryAfter time.Duration) {
	info := ErrorInfo{Code: code, Message: msg}
	if retryAfter > 0 {
		info.RetryAfterMS = retryAfter.Milliseconds()
		// Retry-After is whole seconds; round up so "1" never means
		// "immediately".
		secs := (retryAfter + time.Second - 1) / time.Second
		w.Header().Set("Retry-After", fmt.Sprint(int64(secs)))
	}
	writeJSON(w, status, ErrorBody{Error: info})
}

// parseTx decodes and validates a tx body into a kv command.
func (s *Server) parseTx(r *http.Request) (kv.Command, time.Duration, error) {
	var req TxRequest
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return kv.Command{}, 0, fmt.Errorf("bad JSON body: %w", err)
	}
	if req.Client == 0 {
		return kv.Command{}, 0, errors.New("client must be nonzero (0 is the sessionless client and cannot be awaited)")
	}
	if req.Seq == 0 {
		return kv.Command{}, 0, errors.New("seq must be >= 1")
	}
	if req.TimeoutMS < 0 {
		return kv.Command{}, 0, errors.New("timeout_ms must be >= 0")
	}
	c := kv.Command{Client: req.Client, Seq: req.Seq, Key: req.Key, Val: req.Value}
	switch req.Op {
	case "put":
		c.Op = kv.OpPut
	case "del":
		c.Op = kv.OpDel
	case "get":
		c.Op = kv.OpGet
	default:
		return kv.Command{}, 0, fmt.Errorf("op %q is not put, del or get", req.Op)
	}
	if err := c.Validate(); err != nil {
		return kv.Command{}, 0, err
	}
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	return c, timeout, nil
}

// serveTx is POST /v1/tx: validate, admit, propose-if-first, wait.
func (s *Server) serveTx(w http.ResponseWriter, r *http.Request) {
	c, timeout, err := s.parseTx(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidArgument, err.Error(), 0)
		return
	}
	k := txpool.Key{Client: c.Client, Seq: c.Seq}
	encCmd := c.Encode()
	ch, proposed, err := s.cfg.Pool.Admit(k, encCmd)
	if err != nil {
		// ErrFull is the only admission error; anything else would still
		// be load the replica cannot take right now.
		writeError(w, http.StatusTooManyRequests, CodePoolFull,
			fmt.Sprintf("admission pool at capacity (%d pending)", s.cfg.Pool.Depth()),
			retryAfter)
		return
	}
	accepted := time.Now()
	if proposed {
		if err := s.cfg.Propose(c, encCmd); err != nil {
			// The command never reached the ordering layer: retire the
			// entry (answering any concurrent duplicate waiters) and
			// report unavailability.
			s.cfg.Pool.Resolve(k, kv.Response{Status: kv.StatusErr}.Encode())
			writeError(w, http.StatusServiceUnavailable, CodeUnavailable, err.Error(), 0)
			s.cfg.Tracer.Respond(encCmd, s.cfg.Tracer.Clock())
			return
		}
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case enc := <-ch:
		resolvedAt := s.cfg.Tracer.Clock()
		resp, err := kv.DecodeResponse(enc)
		if err != nil {
			writeError(w, http.StatusInternalServerError, CodeInternal,
				fmt.Sprintf("committed response did not decode: %v", err), 0)
			return
		}
		if fn := s.cfg.ObserveLatency; fn != nil {
			fn(time.Since(accepted))
		}
		writeJSON(w, http.StatusOK, TxResponse{
			Status: resp.Status.String(),
			Value:  resp.Val,
			Client: c.Client,
			Seq:    c.Seq,
		})
		s.cfg.Tracer.Respond(encCmd, resolvedAt)
	case <-timer.C:
		s.cfg.Pool.Forget(k, ch)
		writeError(w, http.StatusGatewayTimeout, CodeTimeout,
			fmt.Sprintf("no committed response within %v; retry with the same client/seq", timeout), 0)
	}
}

// serveRead is GET /v1/kv/{key}: a locally-applied (serializable) read.
func (s *Server) serveRead(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if key == "" || len(key) > kv.MaxStringLen {
		writeError(w, http.StatusBadRequest, CodeInvalidArgument, "bad key", 0)
		return
	}
	val, ok, err := s.cfg.Read(key)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, CodeUnavailable, err.Error(), 0)
		return
	}
	if !ok {
		writeError(w, http.StatusNotFound, CodeNotFound, fmt.Sprintf("no key %q", key), 0)
		return
	}
	writeJSON(w, http.StatusOK, ReadResponse{Key: key, Value: val})
}

// serveStatus is GET /v1/status: host status plus admission-pool state.
func (s *Server) serveStatus(w http.ResponseWriter, r *http.Request) {
	doc := map[string]any{}
	if fn := s.cfg.Status; fn != nil {
		for k, v := range fn() {
			doc[k] = v
		}
	}
	PoolStatus(doc, s.cfg.Pool)
	writeJSON(w, http.StatusOK, doc)
}

// PoolStatus adds p's pool_* fields to doc, for GET /v1/status and a
// host's own status page alike (read under the pool's mutex, never a loop).
func PoolStatus(doc map[string]any, p *txpool.Pool) {
	st := p.Stats()
	doc["pool_pending"] = st.Pending
	doc["pool_capacity"] = p.Capacity()
	doc["pool_admitted"] = st.Admitted
	doc["pool_deduped"] = st.Deduped
	doc["pool_shed"] = st.Shed
	doc["pool_resolved"] = st.Resolved
	doc["pool_expired"] = st.Expired
}
