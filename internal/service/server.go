package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/heuristics"
	"repro/internal/obs"
	"repro/internal/platform"
)

// maxBodyBytes bounds uploaded request bodies (platform JSON included)
// so a hostile client cannot balloon the process.
const maxBodyBytes = 16 << 20

// Server is the HTTP/JSON front of a session pool.
//
// Routes:
//
//	POST   /sessions               create or re-attach (CreateSessionRequest → CreateSessionResponse)
//	GET    /sessions               list live sessions ([]SessionInfo)
//	GET    /sessions/{id}          one session's info
//	GET    /sessions/{id}/platform the session's current platform JSON
//	DELETE /sessions/{id}          evict
//	POST   /sessions/{id}/query    committed allocation + objective (SolveReport)
//	POST   /sessions/{id}/whatif   WhatIfRequest → SolveReport, rolled back
//	POST   /sessions/{id}/whatif/batch  BatchWhatIfRequest → BatchWhatIfResponse, forked contexts
//	POST   /sessions/{id}/epoch    EpochRequest → SolveReport, committed
//	GET    /stats                  PoolStatsResponse (with health conditions)
//	GET    /healthz                health probe: 200 ok, 503 when any condition is Degraded
//	GET    /metrics                Prometheus text exposition
//
// Every JSON request body is read whole, bounded, by readBody. The
// what-if, batch and epoch bodies are walked once by decode.go's fast
// path, which takes the bodies json.Marshal writes and leaves every
// other body to encoding/json's strict decode (decodeJSON); the create
// body and the cluster messages, rare and carrying platform JSON, go to
// decodeJSON directly. Either way a body is one JSON value with nothing
// after it but whitespace, and anything else is a 400 "decoding
// request: …".
//
// SolveReport answers (query, what-if, epoch) and batch answers carry
// Content-Length: the report encoder writes each body whole. A query,
// and a what-if answer-cache hit, is an answer's stored bytes — the
// populating solve's body with "cached": true, encoded once, on the
// first read — so it costs a pointer load or a key lookup, the header
// and one Write.
//
// Every response carries the request's trace ID in X-Schedd-Trace
// (adopted from the request when the client supplies one, minted at
// ingress otherwise); latencies are recorded per endpoint and per
// session, and one structured request line is logged per request.
type Server struct {
	pool     *Pool
	reg      *obs.Registry
	metrics  *serverMetrics
	logger   *slog.Logger
	condHook func(sessionID string) []Condition
}

// NewServer wraps a pool in the HTTP API.
func NewServer(pool *Pool) *Server {
	s := &Server{
		pool:   pool,
		reg:    obs.NewRegistry(),
		logger: discardLogger(),
	}
	s.metrics = newServerMetrics(s.reg, s)
	return s
}

// Pool returns the server's session pool.
func (s *Server) Pool() *Pool { return s.pool }

// Handler returns the service's route table, instrumented.
func (s *Server) Handler() http.Handler { return s.instrument(s.routes()) }

// routes is the route table, uninstrumented: Handler and a ring node's
// handler (Node.Handler) each wrap it in instrument once.
func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /sessions", s.handleCreate)
	mux.HandleFunc("GET /sessions", s.handleList)
	mux.HandleFunc("GET /sessions/{id}", s.handleInfo)
	mux.HandleFunc("GET /sessions/{id}/platform", s.handlePlatform)
	mux.HandleFunc("DELETE /sessions/{id}", s.handleDelete)
	mux.HandleFunc("POST /sessions/{id}/query", s.handleQuery)
	mux.HandleFunc("POST /sessions/{id}/whatif", s.handleWhatIf)
	mux.HandleFunc("POST /sessions/{id}/whatif/batch", s.handleWhatIfBatch)
	mux.HandleFunc("POST /sessions/{id}/epoch", s.handleEpoch)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.Handle("GET /metrics", s.reg.Handler())
	return mux
}

// sessionPath parses the /sessions[/{id}[/{sub}]] grammar every
// routing and labelling decision is made on: exactly /sessions, the
// collection (id empty), or /sessions/ then a non-empty id, then
// optionally / and whatever follows the ID ("query", "whatif/batch",
// ...). Any other path — /sessions/, /sessionsx — is off the grammar:
// ok is false.
func sessionPath(path string) (id, sub string, ok bool) {
	if path == "/sessions" {
		return "", "", true
	}
	rest, ok := strings.CutPrefix(path, "/sessions/")
	id, sub, _ = strings.Cut(rest, "/")
	if !ok || id == "" {
		return "", "", false
	}
	return id, sub, true
}

// jsonBufs pools writeJSON's encode buffers.
var jsonBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// writeJSON answers status with v as encoding/json writes it indented,
// encoded whole before the status is written: a value it cannot encode
// answers 500 with an ErrorResponse instead.
func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := jsonBufs.Get().(*bytes.Buffer)
	defer jsonBufs.Put(buf)
	buf.Reset()
	enc := json.NewEncoder(buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		buf.Reset()
		status = http.StatusInternalServerError
		enc.Encode(ErrorResponse{Error: err.Error()}) //nolint:errcheck // a string always encodes
	}
	writeBody(w, status, buf.Bytes())
}

// writeBody answers status with a whole JSON body in one Write; the
// length is known, so net/http does no chunked framing.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	w.Write(body) //nolint:errcheck // nothing to do about a failed write
}

// writeEncoded answers 200 with a body the report encoder wrote, or 500
// when it could not write it (ok false).
func writeEncoded(w http.ResponseWriter, body []byte, ok bool) {
	if !ok {
		writeError(w, http.StatusInternalServerError, errNonFinite)
		return
	}
	writeBody(w, http.StatusOK, body)
}

// writeAnswer answers a query, what-if or epoch: a query or a cache hit
// with its answer's stored wire image, a solved report through the
// report encoder.
func writeAnswer(w http.ResponseWriter, rep *SolveReport, hit *answer, err error) {
	if err != nil {
		writeError(w, solveStatus(err), err)
		return
	}
	if hit != nil {
		image := hit.wire()
		writeEncoded(w, image, image != nil)
		return
	}
	bp, ok := reportBytes(rep)
	defer reportBufs.Put(bp)
	writeEncoded(w, *bp, ok)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, ErrorResponse{Error: err.Error()})
}

// decodeJSON decodes a create body or a cluster message strictly: one
// JSON value with no unknown fields, and nothing after it but whitespace.
func decodeJSON(b []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return err
	}
	if _, more := dec.Token(); more != io.EOF {
		return errors.New("trailing data after the JSON value")
	}
	return nil
}

var errBodyTooLarge = fmt.Errorf("body exceeds %d bytes", maxBodyBytes)

// readBounded reads a whole body — a request's, or a peer's response —
// that is not decoded as it streams, appending it to dst[:0]: in one
// exactly-sized allocation (none when dst has the room) when the sender
// declared its length (Content-Length; -1 when absent) within
// maxBodyBytes, and otherwise into dst's spare capacity, growing it
// only when it is full, up to the bound. A longer body is an error
// either way, never a truncation.
func readBounded(dst []byte, r io.Reader, declared int64) ([]byte, error) {
	switch {
	case declared > maxBodyBytes:
		return dst[:0], errBodyTooLarge
	case declared >= 0:
		if int64(cap(dst)) < declared {
			dst = make([]byte, declared)
		}
		n, err := io.ReadFull(r, dst[:declared])
		return dst[:n], err
	}
	b := dst[:0]
	for {
		if len(b) == cap(b) {
			// Full: ask for the end before growing. A zero-length read at
			// the end answers io.EOF from net/http's bodies and the bytes
			// readers, so a body that exactly fills dst grows nothing; a
			// reader that answers 0, nil there costs one growth.
			if _, err := r.Read(b[len(b):]); err != nil {
				if err == io.EOF {
					err = nil
				}
				return b, err
			}
			b = slices.Grow(b, max(512, len(b)))
		}
		n, err := r.Read(b[len(b):min(cap(b), maxBodyBytes+1)])
		b = b[:len(b)+n]
		switch {
		case len(b) > maxBodyBytes:
			return b, errBodyTooLarge
		case err == io.EOF:
			return b, nil
		case err != nil:
			return b, err
		}
	}
}

// clientError marks an error as the client's fault: a request — or a
// platform, configuration or perturbation it carries — that fails
// validation. The sites that validate wrap what they refuse in it;
// solveStatus reads the mark, never the message.
type clientError struct{ error }

func (e clientError) Unwrap() error { return e.error }

// solveStatus is the status of every session-path error: 400 for a
// request that fails validation (clientError); 422 for a valid bnb
// session whose search exhausts its node budget (the budget is the
// client's configuration, and no retry can change the outcome); 500 for
// anything else, a server failure.
func solveStatus(err error) int {
	switch {
	case errors.As(err, new(clientError)):
		return http.StatusBadRequest
	case errors.Is(err, heuristics.ErrNodeBudget):
		return http.StatusUnprocessableEntity
	}
	return http.StatusInternalServerError
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	if pl, cfg, id, ok := readCreate(w, r); ok {
		s.create(w, pl, cfg, id)
	}
}

// readCreate reads a create body through readBody and decodes what it
// describes, answering a refusal itself: 400 "decoding request: …" for
// a body that does not decode, decodeCreate's error for a bad request.
func readCreate(w http.ResponseWriter, r *http.Request) (*platform.Platform, sessionConfig, string, bool) {
	var req CreateSessionRequest
	if !readBody(w, r, func(b []byte) error { return decodeJSON(b, &req) }) {
		return nil, sessionConfig{}, "", false
	}
	pl, cfg, id, err := decodeCreate(&req)
	if err != nil {
		writeError(w, solveStatus(err), err)
	}
	return pl, cfg, id, err == nil
}

// create answers a decoded create: the session filed under id, built
// from pl and cfg if absent, with its committed answer. A pool hit reads
// it as a query does (cached, and counted as one); the creator is
// answered with the report its own commit solve published, uncached.
func (s *Server) create(w http.ResponseWriter, pl *platform.Platform, cfg sessionConfig, id string) {
	sess, created, err := s.pool.getOrCreate(pl, cfg, id)
	var rep *SolveReport
	if err == nil && created {
		rep = &sess.state.Load().answer.rep // published, so never written again
	} else if err == nil {
		rep, err = sess.Query()
	}
	if err != nil {
		writeError(w, solveStatus(err), err)
		return
	}
	status := http.StatusOK
	if created {
		status = http.StatusCreated
	}
	writeJSON(w, status, CreateSessionResponse{
		SessionInfo: sess.Info(),
		Created:     created,
		Report:      rep,
	})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	sessions := s.pool.Sessions()
	infos := make([]SessionInfo, 0, len(sessions))
	for _, sess := range sessions {
		infos = append(infos, sess.Info())
	}
	writeJSON(w, http.StatusOK, infos)
}

// session resolves the {id} path parameter, answering 404 itself when
// absent.
func (s *Server) session(w http.ResponseWriter, r *http.Request) *Session {
	id := r.PathValue("id")
	sess := s.pool.Get(id)
	if sess == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("no session %q", id))
		return nil
	}
	return sess
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	if sess := s.session(w, r); sess != nil {
		writeJSON(w, http.StatusOK, sess.Info())
	}
}

func (s *Server) handlePlatform(w http.ResponseWriter, r *http.Request) {
	sess := s.session(w, r)
	if sess == nil {
		return
	}
	data, err := sess.PlatformJSON()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeBody(w, http.StatusOK, append(data, '\n'))
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.pool.Evict(id) {
		writeError(w, http.StatusNotFound, fmt.Errorf("no session %q", id))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"evicted": id})
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	sess := s.session(w, r)
	if sess == nil {
		return
	}
	rep, hit, err := sess.query()
	writeAnswer(w, rep, hit, err)
}

func (s *Server) handleWhatIf(w http.ResponseWriter, r *http.Request) {
	sess := s.session(w, r)
	if sess == nil {
		return
	}
	var req WhatIfRequest
	if !readBody(w, r, func(b []byte) error { return decodeWhatIf(b, &req) }) {
		return
	}
	rep, hit, err := sess.whatIf(&req)
	writeAnswer(w, rep, hit, err)
}

func (s *Server) handleWhatIfBatch(w http.ResponseWriter, r *http.Request) {
	sess := s.session(w, r)
	if sess == nil {
		return
	}
	var req BatchWhatIfRequest
	if !readBody(w, r, func(b []byte) error { return decodeBatch(b, &req) }) {
		return
	}
	resp, err := sess.WhatIfBatch(&req)
	if err != nil {
		writeError(w, solveStatus(err), err)
		return
	}
	bp, ok := batchBytes(resp)
	defer reportBufs.Put(bp)
	writeEncoded(w, *bp, ok)
}

func (s *Server) handleEpoch(w http.ResponseWriter, r *http.Request) {
	sess := s.session(w, r)
	if sess == nil {
		return
	}
	var req EpochRequest
	if !readBody(w, r, func(b []byte) error { return decodeEpoch(b, &req) }) {
		return
	}
	rep, body, err := sess.commitEpoch(&req, r.Header.Get(commitIDHeader), true)
	if body == nil {
		writeAnswer(w, rep, nil, err)
		return
	}
	writeBody(w, http.StatusOK, *body)
	reportBufs.Put(body)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// Batch runs the service's solve path once, without a server: decode
// and validate the platform, build the warm model, cold-solve, and
// answer with the committed report that solve published. It is what
// cmd/dlsched -json uses, so a CLI report and a service query for the
// same platform and configuration produce identical numbers.
func Batch(req *CreateSessionRequest) (*SolveReport, error) {
	pl, cfg, _, err := decodeCreate(req)
	if err != nil {
		return nil, err
	}
	sess, err := newSession(pl, cfg)
	if err != nil {
		return nil, err
	}
	rep := sess.state.Load().answer.rep
	return &rep, nil
}
