package service

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"bankaware/internal/experiments"
	"bankaware/internal/metrics"
)

// Handler returns the daemon's HTTP surface:
//
//	POST /v1/jobs              submit a job spec
//	         202 JobRecord      new job, durably queued (group commit)
//	         200 JobRecord      duplicate: an existing job already serves
//	                            this submission (in-flight coalesce or
//	                            content-addressed cache hit on its report)
//	         400                malformed body or structurally invalid spec
//	         422                well-formed spec naming an impossible job
//	                            (unknown fidelity, fast Monte Carlo)
//	         429                queue full (backpressure; nothing stored)
//	         503                draining (shutdown; nothing stored)
//	         500                store/commit failure
//	     The Idempotency-Key request header overrides spec-hash dedup:
//	     submissions dedupe on the key instead of the spec, so identical
//	     specs under different keys run separately and a retry under the
//	     same key returns the same job. Every 200/202 response carries
//	     X-Bankaware-Spec-Hash (the canonical spec hash) and
//	     X-Bankaware-Cache: hit|miss (hit = no new job was created).
//	GET  /v1/jobs              list jobs -> 200
//	     Bare: the full [JobRecord] list in submission order. With any of
//	     state= (queued|running|done|failed|canceled), limit= (1..1000,
//	     default 100) or page= (opaque token), a page envelope instead:
//	     {"jobs":[...], "nextPage":"..."} — nextPage absent on the last
//	     page. 400 on an unknown state or malformed token.
//	GET  /v1/jobs/{id}         one job -> 200 JobRecord; 404 unknown
//	GET  /v1/jobs/{id}/report  finished report
//	         200                stored bytes, verbatim; ETag header is the
//	                            report's content hash
//	         304                If-None-Match matched the ETag (no body)
//	         404                unknown job
//	         409                job not done yet
//	         503 + Retry-After  stored report failed integrity verification:
//	                            it was quarantined and the job re-queued to
//	                            recompute it; the body carries a
//	                            machine-readable {"reason":"report-corrupt"}
//	GET  /v1/jobs/{id}/proof   ledger inclusion proof for the stored report
//	                           -> 200 ledger.Proof; 404 unknown; 409 no
//	                           report entry (job not done yet)
//	POST /v1/scrub             run one integrity scrub pass now
//	                           -> 200 ScrubStats
//	GET  /v1/jobs/{id}/events  live SSE stream (Last-Event-ID replay)
//	POST /v1/jobs/{id}/cancel  cancel -> 200 JobRecord; 404 unknown;
//	                           409 already terminal
//	GET  /v1/diff?a=ID&b=ID    compare two stored reports
//	                           -> 200 {identical, differences}; 400 missing
//	                           params; 404 either job unknown or not done;
//	                           503 a report failed verification, as for
//	                           /report
//	GET  /healthz              liveness + drain state -> 200
//	/debug/...                 pprof, expvar, service metrics
//
// Coordinator-mode daemons additionally serve the distributed work
// protocol (all 404/409 with ErrNotCoordinator elsewhere):
//
//	POST /v1/work/lease        worker pulls one shard
//	         200 ShardGrant     a shard lease (spec, unit range, token, TTL)
//	         204                no work available, poll again
//	POST /v1/work/renew        extend a held lease -> 204; 409 lease lost
//	POST /v1/work/fail         release a lease after an error -> 204;
//	                           409 lease lost (already expired/stolen)
//	POST /v1/work/complete     upload a shard's unit results -> 204
//	                           (idempotent); 404 job not distributing;
//	                           409 a lease from before the job last
//	                           started, or a unit count that does not
//	                           match the shard;
//	                           422 payload does not hash to its declared
//	                           sum (corrupt upload; the shard re-leases)
//	GET  /v1/jobs/{id}/shards  live shard table -> 200 [ShardStatus];
//	                           404 job not currently distributing
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("GET /v1/jobs/{id}/report", s.handleReport)
	mux.HandleFunc("GET /v1/jobs/{id}/proof", s.handleProof)
	mux.HandleFunc("POST /v1/scrub", s.handleScrub)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/shards", s.handleShards)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("POST /v1/work/lease", s.handleWorkLease)
	mux.HandleFunc("POST /v1/work/renew", s.handleWorkRenew)
	mux.HandleFunc("POST /v1/work/fail", s.handleWorkFail)
	mux.HandleFunc("POST /v1/work/complete", s.handleWorkComplete)
	mux.HandleFunc("GET /v1/diff", s.handleDiff)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.Handle("/debug/", metrics.DebugMux(s.reg))
	return mux
}

// writeJSON emits v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeError emits {"error": ...} with the given status.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := DecodeJobSpec(r.Body)
	if err != nil {
		// 422 for specs that decoded cleanly but describe an impossible
		// job (e.g. an unknown fidelity); 400 for malformed bodies.
		var verr *ValidationError
		if errors.As(err, &verr) {
			writeError(w, http.StatusUnprocessableEntity, "%v", err)
			return
		}
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	rec, hit, err := s.SubmitDedup(*spec, r.Header.Get("Idempotency-Key"))
	switch {
	case errors.Is(err, ErrQueueFull):
		writeError(w, http.StatusTooManyRequests, "%v", err)
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	case err != nil:
		writeError(w, http.StatusInternalServerError, "%v", err)
	case hit:
		w.Header().Set("X-Bankaware-Spec-Hash", rec.SpecHash)
		w.Header().Set("X-Bankaware-Cache", "hit")
		writeJSON(w, http.StatusOK, rec)
	default:
		w.Header().Set("X-Bankaware-Spec-Hash", rec.SpecHash)
		w.Header().Set("X-Bankaware-Cache", "miss")
		writeJSON(w, http.StatusAccepted, rec)
	}
}

// listPage is the paginated envelope of GET /v1/jobs.
type listPage struct {
	Jobs []JobRecord `json:"jobs"`
	// NextPage is the opaque cursor of the page after this one; absent on
	// the last page.
	NextPage string `json:"nextPage,omitempty"`
}

// pageTokenPrefix versions the opaque list cursor.
const pageTokenPrefix = "v1:"

func encodePageToken(lastSeq int) string {
	return base64.RawURLEncoding.EncodeToString([]byte(fmt.Sprintf("%s%d", pageTokenPrefix, lastSeq)))
}

func decodePageToken(tok string) (afterSeq int, err error) {
	raw, err := base64.RawURLEncoding.DecodeString(tok)
	if err != nil || !strings.HasPrefix(string(raw), pageTokenPrefix) {
		return 0, fmt.Errorf("malformed page token")
	}
	n, err := strconv.Atoi(strings.TrimPrefix(string(raw), pageTokenPrefix))
	if err != nil || n < 0 {
		return 0, fmt.Errorf("malformed page token")
	}
	return n, nil
}

// maxListLimit caps one list page; defaultListLimit applies when paging
// parameters are present but limit is not.
const (
	maxListLimit     = 1000
	defaultListLimit = 100
)

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	state, limitStr, page := q.Get("state"), q.Get("limit"), q.Get("page")
	if state == "" && limitStr == "" && page == "" {
		// The original unpaginated shape, kept for scripts.
		writeJSON(w, http.StatusOK, s.store.Jobs())
		return
	}
	switch state {
	case "", StateQueued, StateRunning, StateDone, StateFailed, StateCanceled:
	default:
		writeError(w, http.StatusBadRequest, "unknown state %q", state)
		return
	}
	limit := defaultListLimit
	if limitStr != "" {
		n, err := strconv.Atoi(limitStr)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, "limit must be a positive integer")
			return
		}
		if n > maxListLimit {
			n = maxListLimit
		}
		limit = n
	}
	afterSeq := 0
	if page != "" {
		var err error
		if afterSeq, err = decodePageToken(page); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	recs, lastSeq := s.store.JobsPage(state, afterSeq, limit)
	out := listPage{Jobs: recs}
	if out.Jobs == nil {
		out.Jobs = []JobRecord{}
	}
	if len(recs) == limit {
		out.NextPage = encodePageToken(lastSeq)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Service) handleGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec, ok := s.store.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", id)
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

func (s *Service) handleReport(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec, ok := s.store.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", id)
		return
	}
	if rec.State != StateDone {
		writeError(w, http.StatusConflict, "job %s has no report (state %s)", id, rec.State)
		return
	}
	etag, err := s.store.ReportETag(id)
	if err != nil {
		s.reportReadError(w, id, err)
		return
	}
	w.Header().Set("ETag", etag)
	if etagMatches(r.Header.Get("If-None-Match"), etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	data, err := s.store.ReportBytes(id)
	if err != nil {
		s.reportReadError(w, id, err)
		return
	}
	// Serve the stored file verbatim: the response body is byte-identical
	// to the report a direct bankaware.Runner run would have written.
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// reportReadError maps a report read failure onto its HTTP response. A
// verification failure (the stored bytes no longer hash to what the ledger
// and record witnessed) is a 503 with Retry-After, not a 500: the store
// already quarantined the file, this handler re-queues the job, and the
// deterministic re-run will serve identical bytes shortly — the client
// should simply come back.
func (s *Service) reportReadError(w http.ResponseWriter, id string, err error) {
	if !errors.Is(err, ErrCorrupt) {
		writeError(w, http.StatusInternalServerError, "reading report: %v", err)
		return
	}
	requeued := s.RequeueCorrupt(id)
	w.Header().Set("Retry-After", "5")
	writeJSON(w, http.StatusServiceUnavailable, map[string]any{
		"error":    err.Error(),
		"reason":   "report-corrupt",
		"requeued": requeued,
	})
}

// handleProof serves the ledger inclusion proof of a finished job's stored
// report: the ledger entry witnessing the report's content hash, the audit
// path, and the tree root. A client verifies end to end by hashing the
// fetched report bytes and checking them through the proof (bankawared
// verify / report -verify).
func (s *Service) handleProof(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec, ok := s.store.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", id)
		return
	}
	if rec.State != StateDone {
		writeError(w, http.StatusConflict, "job %s has no report (state %s)", id, rec.State)
		return
	}
	led := s.store.Ledger()
	e, ok := led.LatestReport(id)
	if !ok {
		writeError(w, http.StatusConflict, "ledger holds no report entry for job %s", id)
		return
	}
	proof, err := led.Prove(e.Index)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "building proof: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, proof)
}

func (s *Service) handleScrub(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Scrub())
}

// etagMatches implements If-None-Match for the strong ETags the report
// endpoint serves: a comma-separated candidate list, "*" matching any.
func etagMatches(header, etag string) bool {
	if header == "" {
		return false
	}
	for _, cand := range strings.Split(header, ",") {
		cand = strings.TrimSpace(cand)
		// Reports never change once written, so a weak comparison of the
		// same tag is equivalent to a strong one.
		cand = strings.TrimPrefix(cand, "W/")
		if cand == "*" || cand == etag {
			return true
		}
	}
	return false
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec, ok := s.store.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", id)
		return
	}
	rec, ok = s.Cancel(id)
	if !ok {
		writeError(w, http.StatusConflict, "job %s is %s, not cancellable", id, rec.State)
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec, ok := s.store.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", id)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	after := 0
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			after = n
		}
	}
	jb := s.runtime(id)
	if jb == nil {
		// The job reached a terminal state under a previous daemon; there is
		// no live stream, only the final state.
		writeSSE(w, event{ID: 1, Type: EventState, Data: mustJSON(stateEvent{State: rec.State, Detail: rec.Error})})
		fl.Flush()
		return
	}
	for {
		evs, more := jb.hub.next(after, r.Context().Done())
		for _, ev := range evs {
			writeSSE(w, ev)
			after = ev.ID
		}
		fl.Flush()
		if !more || r.Context().Err() != nil {
			return
		}
	}
}

// writeSSE renders one frame in the text/event-stream format.
func writeSSE(w http.ResponseWriter, ev event) {
	fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.ID, ev.Type, ev.Data)
}

func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		return []byte("{}")
	}
	return data
}

func (s *Service) handleDiff(w http.ResponseWriter, r *http.Request) {
	a, b := r.URL.Query().Get("a"), r.URL.Query().Get("b")
	if a == "" || b == "" {
		writeError(w, http.StatusBadRequest, "diff needs ?a=<job>&b=<job>")
		return
	}
	ra, ok := s.readReport(w, a)
	if !ok {
		return
	}
	rb, ok := s.readReport(w, b)
	if !ok {
		return
	}
	diffs := metrics.Diff(ra, rb)
	if diffs == nil {
		diffs = []string{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"a": a, "b": b, "identical": len(diffs) == 0, "differences": diffs,
	})
}

// readReport parses id's stored report, read through the same verification
// as GET /report, or writes the error response and reports false.
func (s *Service) readReport(w http.ResponseWriter, id string) (*metrics.Report, bool) {
	rec, ok := s.store.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", id)
		return nil, false
	}
	if rec.State != StateDone {
		writeError(w, http.StatusNotFound, "job %s has no report (state %s)", id, rec.State)
		return nil, false
	}
	data, err := s.store.ReportBytes(id)
	if err != nil {
		s.reportReadError(w, id, err)
		return nil, false
	}
	rep, err := metrics.ReadReport(bytes.NewReader(data))
	if err != nil {
		writeError(w, http.StatusInternalServerError, "parsing report for %s: %v", id, err)
		return nil, false
	}
	return rep, true
}

func (s *Service) handleHealth(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.Draining() {
		status = "draining"
	}
	s.mu.Lock()
	running := len(s.running)
	last := s.lastScrub
	s.mu.Unlock()
	led := s.store.Ledger()
	out := map[string]any{
		"status":      status,
		"queued":      s.queue.depth(),
		"running":     running,
		"ledger_root": led.Root(),
		"ledger_len":  led.Len(),
		"fidelities":  experiments.Fidelities(),
	}
	if last != nil {
		out["last_scrub"] = last
	}
	writeJSON(w, http.StatusOK, out)
}

// workError maps a work-protocol error onto its HTTP status.
func workError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrNotCoordinator):
		writeError(w, http.StatusNotFound, "%v", err)
	case errors.Is(err, ErrUnknownShard):
		writeError(w, http.StatusNotFound, "%v", err)
	case errors.Is(err, ErrUnknownLease), errors.Is(err, ErrBadUpload):
		writeError(w, http.StatusConflict, "%v", err)
	case errors.Is(err, ErrCorruptUpload):
		// 422: the request was well-formed but its payload is damaged; the
		// worker must not retry the same buffer (the shard re-leased).
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

func (s *Service) handleWorkLease(w http.ResponseWriter, r *http.Request) {
	req, err := DecodeLeaseRequest(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	grant, ok, err := s.Lease(req.Worker)
	switch {
	case err != nil:
		workError(w, err)
	case !ok:
		w.WriteHeader(http.StatusNoContent)
	default:
		writeJSON(w, http.StatusOK, grant)
	}
}

func (s *Service) handleWorkRenew(w http.ResponseWriter, r *http.Request) {
	ack, err := DecodeShardAck(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := s.Renew(ack); err != nil {
		workError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Service) handleWorkFail(w http.ResponseWriter, r *http.Request) {
	ack, err := DecodeShardAck(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := s.FailShard(ack); err != nil {
		workError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Service) handleWorkComplete(w http.ResponseWriter, r *http.Request) {
	upload, err := DecodeShardUpload(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := s.CompleteShard(upload); err != nil {
		workError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Service) handleShards(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	statuses, ok := s.ShardStatuses(id)
	if !ok {
		writeError(w, http.StatusNotFound, "job %q is not currently distributing", id)
		return
	}
	writeJSON(w, http.StatusOK, statuses)
}
