package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"slices"
	"strconv"
	"strings"

	"repro/internal/obs"
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
// SolveReport answers (query, what-if, epoch) and batch answers carry
// Content-Length: the report encoder writes each body whole. A
// query or what-if answer-cache hit is the entry's stored bytes — the
// populating solve's body with "cached": true, encoded once, on the
// first hit — so it costs a key lookup, the header and one Write.
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
	health   HealthThresholds
	condHook func(sessionID string) []Condition
}

// NewServer wraps a pool in the HTTP API.
func NewServer(pool *Pool) *Server {
	s := &Server{
		pool:   pool,
		reg:    obs.NewRegistry(),
		logger: discardLogger(),
		health: DefaultHealthThresholds(),
	}
	s.metrics = newServerMetrics(s.reg, s)
	return s
}

// Pool returns the server's session pool.
func (s *Server) Pool() *Pool { return s.pool }

// Handler returns the service's route table.
func (s *Server) Handler() http.Handler {
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
	return s.instrument(mux)
}

// sessionPath parses the /sessions[/{id}[/{sub}]] grammar every
// routing and labelling decision is made on: ok is false off the
// /sessions prefix, id is empty for the collection itself, and sub is
// whatever follows the ID ("query", "whatif/batch", ...).
func sessionPath(path string) (id, sub string, ok bool) {
	rest, ok := strings.CutPrefix(path, "/sessions")
	if !ok {
		return "", "", false
	}
	id, sub, _ = strings.Cut(strings.TrimPrefix(rest, "/"), "/")
	return id, sub, true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	encodeIndented(w, v) //nolint:errcheck // nothing to do about a failed write
}

// writeBody answers 200 with a complete JSON body in one Write; the
// length is known, so net/http does no chunked framing.
func writeBody(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	w.Write(body) //nolint:errcheck // nothing to do about a failed write
}

// writeAnswer answers a query, what-if or epoch: a cache hit with its
// entry's stored wire image, a solved report through the report
// encoder. A report holding a non-finite float has neither; writeJSON
// answers it as it always did.
func writeAnswer(w http.ResponseWriter, rep *SolveReport, hit *answer, err error) {
	if err != nil {
		writeError(w, solveStatus(err), err)
		return
	}
	if hit != nil {
		if image := hit.wire(); image != nil {
			writeBody(w, image)
			return
		}
		rep = hit.report()
	}
	bp, ok := reportBytes(rep)
	defer reportBufs.Put(bp)
	if ok {
		writeBody(w, *bp)
	} else {
		writeJSON(w, http.StatusOK, rep.dense())
	}
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, ErrorResponse{Error: err.Error()})
}

// decodeBody strictly decodes the body into dst: one JSON value with no
// unknown fields, and nothing after it but whitespace.
func decodeBody(w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(dst)
	if err == nil {
		if _, more := dec.Token(); more != io.EOF {
			err = errors.New("trailing data after the JSON value")
		}
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return false
	}
	return true
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

// isClientError classifies solve-path errors: validation and
// modelling complaints are the client's fault (400), anything else is
// a server failure (500). Session code marks its own invariant
// violations with an "internal error" prefix, which always wins —
// "heuristic produced an invalid allocation" is a server bug even
// though it contains "invalid".
func isClientError(err error) bool {
	msg := err.Error()
	if strings.Contains(msg, "internal error") {
		return false
	}
	for _, marker := range []string{"invalid", "out of range", "unknown", "platform:", "adapt:", "no β variable", "payoffs for"} {
		if strings.Contains(msg, marker) {
			return true
		}
	}
	return false
}

func solveStatus(err error) int {
	if isClientError(err) {
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req CreateSessionRequest
	if !decodeBody(w, r, &req) {
		return
	}
	sess, rep, created, err := s.pool.GetOrCreate(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if rep == nil {
		// Pool hit: the session may have drifted since its creation
		// report, so answer with a fresh warm query.
		rep, err = sess.Query()
		if err != nil {
			writeError(w, solveStatus(err), err)
			return
		}
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
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)         //nolint:errcheck
	w.Write([]byte("\n")) //nolint:errcheck
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
	if !decodeBody(w, r, &req) {
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
	if !decodeBody(w, r, &req) {
		return
	}
	resp, err := sess.WhatIfBatch(&req)
	if err != nil {
		writeError(w, solveStatus(err), err)
		return
	}
	bp, ok := batchBytes(resp)
	defer reportBufs.Put(bp)
	if ok {
		writeBody(w, *bp)
	} else {
		writeJSON(w, http.StatusOK, resp)
	}
}

func (s *Server) handleEpoch(w http.ResponseWriter, r *http.Request) {
	sess := s.session(w, r)
	if sess == nil {
		return
	}
	var req EpochRequest
	if !decodeBody(w, r, &req) {
		return
	}
	rep, err := sess.EpochIdempotent(&req, r.Header.Get(commitIDHeader))
	writeAnswer(w, rep, nil, err)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// Batch runs the service's solve path once, without a server: decode
// and validate the platform, build the warm model, cold-solve. It is
// what cmd/dlsched -json uses, so a CLI report and a service query
// for the same platform and configuration produce identical numbers.
func Batch(req *CreateSessionRequest) (*SolveReport, error) {
	pl, cfg, _, err := decodeCreate(req)
	if err != nil {
		return nil, err
	}
	_, rep, err := newSession(pl, cfg)
	return rep, err
}
