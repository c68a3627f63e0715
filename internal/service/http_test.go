package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// startHTTP boots a service (Start included unless told otherwise) behind
// an httptest server.
func startHTTP(t *testing.T, cfg Config, start bool) (*Service, *httptest.Server) {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if start {
		if err := svc.Start(); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return svc, ts
}

func postJob(t *testing.T, ts *httptest.Server, body string) (*http.Response, JobRecord) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var rec JobRecord
	// 202 is a fresh job, 200 a spec-hash (or Idempotency-Key) duplicate
	// answered with the existing record.
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
			t.Fatal(err)
		}
	}
	resp.Body.Close()
	return resp, rec
}

func TestHTTPSubmitMalformed(t *testing.T) {
	_, ts := startHTTP(t, Config{}, false)
	for _, body := range []string{``, `{`, `{"kind":"warp"}`, `{"kind":"set","set":{"set":42}}`} {
		resp, _ := postJob(t, ts, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %q -> %d, want 400", body, resp.StatusCode)
		}
	}
}

func TestHTTPNotFound(t *testing.T) {
	_, ts := startHTTP(t, Config{}, false)
	for _, path := range []string{"/v1/jobs/nope", "/v1/jobs/nope/report", "/v1/jobs/nope/events"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s -> %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestHTTPBackpressure429(t *testing.T) {
	// No executors: the queue fills deterministically. Distinct seeds keep
	// the second submission from short-circuiting as a spec-hash duplicate.
	_, ts := startHTTP(t, Config{QueueCap: 1}, false)
	if resp, _ := postJob(t, ts, `{"kind":"montecarlo","seed":1,"montecarlo":{"trials":5}}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit -> %d, want 202", resp.StatusCode)
	}
	if resp, _ := postJob(t, ts, `{"kind":"montecarlo","seed":2,"montecarlo":{"trials":5}}`); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submit -> %d, want 429", resp.StatusCode)
	}
}

func TestHTTPDraining503(t *testing.T) {
	svc, ts := startHTTP(t, Config{}, true)
	svc.Drain(context.Background()) // returns at once: nothing in flight
	resp, _ := postJob(t, ts, `{"kind":"montecarlo","montecarlo":{"trials":5}}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining -> %d, want 503", resp.StatusCode)
	}
	var health struct {
		Status string `json:"status"`
	}
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(hr.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if health.Status != "draining" {
		t.Fatalf("healthz status %q, want draining", health.Status)
	}
}

func TestHTTPCancelAndConflicts(t *testing.T) {
	_, ts := startHTTP(t, Config{}, false)
	_, rec := postJob(t, ts, `{"kind":"montecarlo","montecarlo":{"trials":5}}`)

	// A queued job has no report yet.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + rec.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("report of queued job -> %d, want 409", resp.StatusCode)
	}

	resp, err = http.Post(ts.URL+"/v1/jobs/"+rec.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var got JobRecord
	json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || got.State != StateCanceled {
		t.Fatalf("cancel -> %d state %s, want 200 canceled", resp.StatusCode, got.State)
	}

	resp, err = http.Post(ts.URL+"/v1/jobs/"+rec.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("second cancel -> %d, want 409", resp.StatusCode)
	}
}

func TestHTTPListAndGet(t *testing.T) {
	_, ts := startHTTP(t, Config{}, false)
	// Labels are execution metadata, excluded from the spec hash — the
	// seeds must differ for these to be two jobs.
	_, a := postJob(t, ts, `{"kind":"montecarlo","label":"first","seed":1,"montecarlo":{"trials":5}}`)
	_, b := postJob(t, ts, `{"kind":"montecarlo","label":"second","seed":2,"montecarlo":{"trials":5}}`)

	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var all []JobRecord
	if err := json.NewDecoder(resp.Body).Decode(&all); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(all) != 2 || all[0].ID != a.ID || all[1].ID != b.ID {
		t.Fatalf("list = %+v, want [%s %s] in submission order", all, a.ID, b.ID)
	}

	resp, err = http.Get(ts.URL + "/v1/jobs/" + b.ID)
	if err != nil {
		t.Fatal(err)
	}
	var got JobRecord
	json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if got.ID != b.ID || got.Spec.Label != "second" {
		t.Fatalf("get = %+v, want %s/second", got, b.ID)
	}
}

// postJobKeyed is postJob with an Idempotency-Key header.
func postJobKeyed(t *testing.T, ts *httptest.Server, body, key string) (*http.Response, JobRecord) {
	t.Helper()
	req, err := http.NewRequest("POST", ts.URL+"/v1/jobs", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Idempotency-Key", key)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var rec JobRecord
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
			t.Fatal(err)
		}
	}
	resp.Body.Close()
	return resp, rec
}

// TestHTTPSubmitDedupHeaders pins the idempotent-submit response contract:
// a fresh spec is 202/miss, its duplicate 200/hit with the same record,
// and both carry the canonical spec hash.
func TestHTTPSubmitDedupHeaders(t *testing.T) {
	_, ts := startHTTP(t, Config{}, false)
	spec := `{"kind":"montecarlo","seed":42,"montecarlo":{"trials":5}}`
	resp1, rec1 := postJob(t, ts, spec)
	if resp1.StatusCode != http.StatusAccepted {
		t.Fatalf("fresh submit -> %d, want 202", resp1.StatusCode)
	}
	if got := resp1.Header.Get("X-Bankaware-Cache"); got != "miss" {
		t.Fatalf("fresh submit cache header %q, want miss", got)
	}
	wantHash := SpecHash(rec1.Spec)
	if got := resp1.Header.Get("X-Bankaware-Spec-Hash"); got != wantHash {
		t.Fatalf("spec-hash header %q, want %q", got, wantHash)
	}

	resp2, rec2 := postJob(t, ts, spec)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("duplicate submit -> %d, want 200", resp2.StatusCode)
	}
	if got := resp2.Header.Get("X-Bankaware-Cache"); got != "hit" {
		t.Fatalf("duplicate submit cache header %q, want hit", got)
	}
	if got := resp2.Header.Get("X-Bankaware-Spec-Hash"); got != wantHash {
		t.Fatalf("duplicate spec-hash header %q, want %q", got, wantHash)
	}
	if rec2.ID != rec1.ID {
		t.Fatalf("duplicate acked %s, want original %s", rec2.ID, rec1.ID)
	}
}

// TestHTTPIdempotencyKeyOverridesSpecDedup: distinct keys run an identical
// spec separately; the same key returns the same job; and a keyed job does
// not capture keyless spec-hash submissions of other specs.
func TestHTTPIdempotencyKeyOverridesSpecDedup(t *testing.T) {
	_, ts := startHTTP(t, Config{}, false)
	spec := `{"kind":"montecarlo","seed":42,"montecarlo":{"trials":5}}`

	respA, a := postJobKeyed(t, ts, spec, "key-a")
	if respA.StatusCode != http.StatusAccepted {
		t.Fatalf("keyed submit a -> %d, want 202", respA.StatusCode)
	}
	respB, b := postJobKeyed(t, ts, spec, "key-b")
	if respB.StatusCode != http.StatusAccepted {
		t.Fatalf("keyed submit b -> %d, want 202 (distinct key, same spec)", respB.StatusCode)
	}
	if a.ID == b.ID {
		t.Fatalf("distinct keys coalesced onto %s", a.ID)
	}
	respA2, a2 := postJobKeyed(t, ts, spec, "key-a")
	if respA2.StatusCode != http.StatusOK || a2.ID != a.ID {
		t.Fatalf("same-key retry -> %d id %s, want 200 with %s", respA2.StatusCode, a2.ID, a.ID)
	}
}

// TestHTTPReportConditionalGet pins ETag / If-None-Match on the report
// endpoint.
func TestHTTPReportConditionalGet(t *testing.T) {
	svc, ts := startHTTP(t, Config{Workers: 2}, true)
	_, rec := postJob(t, ts, `{"kind":"montecarlo","seed":11,"montecarlo":{"trials":10}}`)
	waitState(t, svc, rec.ID, StateDone)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + rec.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	etag := resp.Header.Get("ETag")
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(etag, `"sha256-`) {
		t.Fatalf("report -> %d etag %q, want 200 with a strong sha256 ETag", resp.StatusCode, etag)
	}

	req, err := http.NewRequest("GET", ts.URL+"/v1/jobs/"+rec.ID+"/report", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("If-None-Match", etag)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified || buf.Len() != 0 {
		t.Fatalf("conditional report -> %d with %d body bytes, want empty 304", resp.StatusCode, buf.Len())
	}

	req.Header.Set("If-None-Match", `"sha256-feed"`)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stale-tag report -> %d, want 200", resp.StatusCode)
	}
}

// TestHTTPListPagination walks the paged list shape: state filtering,
// limits, token continuation, and the 400s for malformed parameters.
func TestHTTPListPagination(t *testing.T) {
	_, ts := startHTTP(t, Config{}, false)
	var ids []string
	for i := 0; i < 5; i++ {
		_, rec := postJob(t, ts, fmt.Sprintf(`{"kind":"montecarlo","seed":%d,"montecarlo":{"trials":5}}`, i+1))
		ids = append(ids, rec.ID)
	}

	getPage := func(params string) (listPage, int) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/jobs?" + params)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var page listPage
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
				t.Fatal(err)
			}
		}
		return page, resp.StatusCode
	}

	var walked []string
	params := "limit=2"
	for {
		page, code := getPage(params)
		if code != http.StatusOK {
			t.Fatalf("list %q -> %d", params, code)
		}
		for _, rec := range page.Jobs {
			walked = append(walked, rec.ID)
		}
		if page.NextPage == "" {
			break
		}
		params = "limit=2&page=" + page.NextPage
	}
	if fmt.Sprint(walked) != fmt.Sprint(ids) {
		t.Fatalf("paged walk %v, want %v", walked, ids)
	}

	page, code := getPage("state=queued&limit=1000")
	if code != http.StatusOK || len(page.Jobs) != 5 {
		t.Fatalf("state=queued -> %d with %d jobs, want 200 with 5", code, len(page.Jobs))
	}
	page, code = getPage("state=done")
	if code != http.StatusOK || len(page.Jobs) != 0 {
		t.Fatalf("state=done -> %d with %d jobs, want 200 with 0", code, len(page.Jobs))
	}
	for _, bad := range []string{"state=zombie", "limit=0", "limit=x", "page=???", "page=" + encodePageToken(-1)} {
		if _, code := getPage(bad); code != http.StatusBadRequest {
			t.Errorf("list %q -> %d, want 400", bad, code)
		}
	}
}

// sseEvent is one parsed text/event-stream frame.
type sseEvent struct {
	id, typ, data string
}

// readSSE consumes a stream until it ends, returning the frames.
func readSSE(t *testing.T, resp *http.Response) []sseEvent {
	t.Helper()
	defer resp.Body.Close()
	var (
		evs []sseEvent
		cur sseEvent
	)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			evs = append(evs, cur)
			cur = sseEvent{}
		case strings.HasPrefix(line, "id: "):
			cur.id = line[4:]
		case strings.HasPrefix(line, "event: "):
			cur.typ = line[7:]
		case strings.HasPrefix(line, "data: "):
			cur.data = line[6:]
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return evs
}

func countTypes(evs []sseEvent) map[string]int {
	n := map[string]int{}
	for _, ev := range evs {
		n[ev.typ]++
	}
	return n
}

func TestHTTPEventsStreamMonteCarlo(t *testing.T) {
	_, ts := startHTTP(t, Config{Workers: 2}, true)
	_, rec := postJob(t, ts, `{"kind":"montecarlo","seed":2009,"montecarlo":{"trials":30}}`)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + rec.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	evs := readSSE(t, resp)
	n := countTypes(evs)
	if n[EventProgress] == 0 {
		t.Fatalf("no progress events in stream: %v", n)
	}
	last := evs[len(evs)-1]
	if last.typ != EventState || !strings.Contains(last.data, StateDone) {
		t.Fatalf("stream ended with %s %q, want final state done", last.typ, last.data)
	}

	// Replay: reconnecting with Last-Event-ID skips everything already seen.
	req, err := http.NewRequest("GET", ts.URL+"/v1/jobs/"+rec.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", evs[len(evs)-2].id)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	replay := readSSE(t, resp)
	if len(replay) != 1 || replay[0].id != last.id {
		t.Fatalf("replay after %s returned %d events, want exactly the final one", evs[len(evs)-2].id, len(replay))
	}
}

// TestHTTPFinishedRuntimesBounded runs more jobs than the daemon keeps
// finished runtimes for: the oldest jobs lose theirs, the newest keep
// their full replayable stream, and an evicted job's stream still ends in
// its terminal state, served from the store. The first job to finish is
// withdrawn from the queue before Start, so that path retires too.
func TestHTTPFinishedRuntimesBounded(t *testing.T) {
	svc, ts := startHTTP(t, Config{Workers: 2}, false)
	_, withdrawn := postJob(t, ts, `{"kind":"montecarlo","seed":99,"montecarlo":{"trials":1}}`)
	if _, ok := svc.Cancel(withdrawn.ID); !ok {
		t.Fatal("queued job not withdrawn")
	}
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	const extra = 3
	ids := []string{withdrawn.ID}
	for len(ids) < retainedFinished+extra {
		_, rec := postJob(t, ts, fmt.Sprintf(`{"kind":"montecarlo","seed":%d,"montecarlo":{"trials":1}}`, 100+len(ids)))
		resp, err := http.Get(ts.URL + "/v1/jobs/" + rec.ID + "/events")
		if err != nil {
			t.Fatal(err)
		}
		evs := readSSE(t, resp)
		if last := evs[len(evs)-1]; last.typ != EventState || !strings.Contains(last.data, StateDone) {
			t.Fatalf("job %d stream ended with %s %q, want final state done", len(ids), last.typ, last.data)
		}
		ids = append(ids, rec.ID)
	}
	for i, id := range ids {
		if kept := svc.runtime(id) != nil; kept != (i >= extra) {
			t.Errorf("job %d of %d: runtime kept = %v", i, len(ids), kept)
		}
	}
	for i, state := range []string{StateCanceled, StateDone} {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + ids[i] + "/events")
		if err != nil {
			t.Fatal(err)
		}
		evs := readSSE(t, resp)
		if len(evs) != 1 || evs[0].typ != EventState || !strings.Contains(evs[0].data, state) {
			t.Fatalf("evicted job %d's stream = %+v, want the one terminal %s frame", i, evs, state)
		}
	}
}

func TestHTTPDiff(t *testing.T) {
	svc, ts := startHTTP(t, Config{Workers: 2}, true)
	same := `{"kind":"montecarlo","seed":2009,"montecarlo":{"trials":25}}`
	_, a := postJob(t, ts, same)
	// An Idempotency-Key keys dedup on the header instead of the spec hash,
	// forcing a genuinely separate execution of the identical spec.
	req, err := http.NewRequest("POST", ts.URL+"/v1/jobs", strings.NewReader(same))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Idempotency-Key", "fresh-twin")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("keyed twin submit -> %d, want 202", resp2.StatusCode)
	}
	var b JobRecord
	if err := json.NewDecoder(resp2.Body).Decode(&b); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	_, c := postJob(t, ts, `{"kind":"montecarlo","seed":7,"montecarlo":{"trials":25}}`)
	waitState(t, svc, a.ID, StateDone)
	waitState(t, svc, b.ID, StateDone)
	waitState(t, svc, c.ID, StateDone)

	var out struct {
		Identical   bool     `json:"identical"`
		Differences []string `json:"differences"`
	}
	get := func(x, y string) {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("%s/v1/diff?a=%s&b=%s", ts.URL, x, y))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("diff -> %d", resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	get(a.ID, b.ID)
	if !out.Identical {
		t.Fatalf("same-seed reports differ: %v", out.Differences)
	}
	get(a.ID, c.ID)
	if out.Identical {
		t.Fatal("different-seed reports reported identical")
	}

	// The content-addressed cache must serve those exact bytes: resubmitting
	// the spec is a 200 hit on job a, and the cached report still diffs
	// clean against the keyed twin's fresh run.
	hitResp, hit := postJob(t, ts, same)
	if hitResp.StatusCode != http.StatusOK || hit.ID != a.ID {
		t.Fatalf("duplicate submit -> %d id %s, want 200 with %s", hitResp.StatusCode, hit.ID, a.ID)
	}
	if hitResp.Header.Get("X-Bankaware-Cache") != "hit" {
		t.Fatalf("duplicate submit cache header %q, want hit", hitResp.Header.Get("X-Bankaware-Cache"))
	}
	get(hit.ID, b.ID)
	if !out.Identical {
		t.Fatalf("cache-hit report differs from a fresh run: %v", out.Differences)
	}
}

// TestHTTPGoldenSetJobEndToEnd is the acceptance e2e: submit the pinned
// fixed-seed set-1 job over HTTP, watch live progress and epoch samples on
// the SSE stream, and require the fetched report to be byte-identical to
// the repository's golden file (itself produced by a direct
// bankaware.Runner run) — then restart the daemon over the same store and
// require it to serve the identical bytes without re-running anything.
func TestHTTPGoldenSetJobEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full set evaluation in -short mode")
	}
	golden, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden-set1-report.json"))
	if err != nil {
		t.Fatalf("reading golden file: %v", err)
	}

	dir := t.TempDir()
	svc, ts := startHTTP(t, Config{Dir: dir, Workers: 4}, true)
	_, rec := postJob(t, ts,
		`{"kind":"set","observe":true,"set":{"set":1,"epochCycles":200000,"instructions":300000}}`)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + rec.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	evs := readSSE(t, resp)
	n := countTypes(evs)
	if n[EventProgress] == 0 || n[EventEpoch] == 0 {
		t.Fatalf("SSE stream missing live events: %v (want progress and epoch frames)", n)
	}
	last := evs[len(evs)-1]
	if !strings.Contains(last.data, StateDone) {
		t.Fatalf("job finished %q, want done", last.data)
	}

	fetch := func(url string) []byte {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s -> %d", url, resp.StatusCode)
		}
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	got := fetch(ts.URL + "/v1/jobs/" + rec.ID + "/report")
	if !bytes.Equal(got, golden) {
		t.Fatal("fetched report differs from the golden direct-Runner report")
	}

	// Resubmitting the same spec is a content-addressed cache hit on the
	// done job: nothing re-runs, and the served report is the same bytes.
	hitResp, hitRec := postJob(t, ts,
		`{"kind":"set","observe":true,"set":{"set":1,"epochCycles":200000,"instructions":300000}}`)
	if hitResp.StatusCode != http.StatusOK || hitRec.ID != rec.ID {
		t.Fatalf("duplicate set submit -> %d id %s, want 200 with %s", hitResp.StatusCode, hitRec.ID, rec.ID)
	}
	if !bytes.Equal(fetch(ts.URL+"/v1/jobs/"+hitRec.ID+"/report"), golden) {
		t.Fatal("cache-hit report differs from the golden bytes")
	}

	// Restart over the same store: the report must be served from disk,
	// immediately and byte-identically.
	ts.Close()
	svc.Close()
	svc2, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc2.Start(); err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	ts2 := httptest.NewServer(svc2.Handler())
	defer ts2.Close()

	if rec2, _ := svc2.Store().Get(rec.ID); rec2.State != StateDone {
		t.Fatalf("restarted daemon sees state %s, want done", rec2.State)
	}
	// The dedup index is rebuilt from disk: the restarted daemon also serves
	// the duplicate submission from cache.
	hitResp2, hitRec2 := postJob(t, ts2,
		`{"kind":"set","observe":true,"set":{"set":1,"epochCycles":200000,"instructions":300000}}`)
	if hitResp2.StatusCode != http.StatusOK || hitRec2.ID != rec.ID {
		t.Fatalf("post-restart duplicate submit -> %d id %s, want 200 with %s", hitResp2.StatusCode, hitRec2.ID, rec.ID)
	}
	start := time.Now()
	again := fetch(ts2.URL + "/v1/jobs/" + rec.ID + "/report")
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("restarted daemon took %s to serve a stored report", d)
	}
	if !bytes.Equal(again, golden) {
		t.Fatal("restarted daemon served different report bytes")
	}
	// The stream of a job finished under a previous daemon replays its
	// terminal state.
	resp, err = http.Get(ts2.URL + "/v1/jobs/" + rec.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	evs = readSSE(t, resp)
	if len(evs) != 1 || evs[0].typ != EventState || !strings.Contains(evs[0].data, StateDone) {
		t.Fatalf("restored job stream = %+v, want a single done state frame", evs)
	}
}
