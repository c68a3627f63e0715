package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"bankaware/internal/ledger"
	"bankaware/internal/service"
)

// client is one closed-loop caller: it sends its next operation only after
// the previous one completed, over a single keep-alive connection.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// The client spans of one operation, in order: submit, wait for the
// terminal SSE frame, fetch the report, fetch the proof, hash and verify.
const (
	stepPost = iota
	stepEvents
	stepReport
	stepProof
	stepVerify
	numSteps
)

var stepNames = [numSteps]string{"post", "events", "report", "proof", "verify"}

type interval struct{ start, end time.Time }

func (iv interval) d() time.Duration { return iv.end.Sub(iv.start) }

// opResult is one operation's outcome and client spans.
type opResult struct {
	index      int
	start, end time.Time
	steps      [numSteps]interval
	jobID      string
	reportSum  [32]byte
	reportLen  int
	// body holds the report bytes for ops the correctness check compares.
	body []byte
	err  error
	// Store timings, read in traced windows (see storeTimings).
	queueWait, execute, notify time.Duration
	// speed is hostScale measured just before the op.
	speed float64
}

func (r *opResult) latency() time.Duration { return r.end.Sub(r.start) }

// refLatencyMS is the op's latency at the reference clock.
func (r *opResult) refLatencyMS() float64 { return ms(r.latency()) * r.speed }

// residual is the part of the operation no client span covers.
func (r *opResult) residual() time.Duration {
	d := r.latency()
	for _, s := range r.steps {
		d -= s.d()
	}
	return d
}

// step times one client span of r.
func (r *opResult) step(i int, f func() error) error {
	r.steps[i].start = time.Now()
	err := f()
	r.steps[i].end = time.Now()
	return err
}

// do runs one operation: POST the spec, wait on the job's SSE stream for
// its terminal state, GET the report and its ledger inclusion proof, and
// verify the report's SHA-256 through the proof. Any non-2xx response, a
// job that does not end done, or a failed verification fails the op.
func (c *client) do(ctx context.Context, index int, spec []byte, keep bool) (r opResult) {
	r.index = index
	r.start = time.Now()
	r.err = c.run(ctx, &r, spec, keep)
	r.end = time.Now()
	return r
}

func (c *client) run(ctx context.Context, r *opResult, spec []byte, keep bool) error {
	var rec service.JobRecord
	if err := r.step(stepPost, func() error {
		body, err := c.roundTrip(ctx, http.MethodPost, "/v1/jobs", spec)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(body, &rec); err != nil {
			return fmt.Errorf("decoding submit response: %w", err)
		}
		return nil
	}); err != nil {
		return err
	}
	r.jobID = rec.ID

	var state, detail string
	if err := r.step(stepEvents, func() (err error) {
		state, detail, err = c.waitTerminal(ctx, rec.ID)
		return err
	}); err != nil {
		return err
	}
	if state != service.StateDone {
		return fmt.Errorf("job %s ended %s: %s", rec.ID, state, detail)
	}

	var report []byte
	if err := r.step(stepReport, func() (err error) {
		report, err = c.roundTrip(ctx, http.MethodGet, "/v1/jobs/"+rec.ID+"/report", nil)
		return err
	}); err != nil {
		return err
	}

	var proof *ledger.Proof
	if err := r.step(stepProof, func() error {
		raw, err := c.roundTrip(ctx, http.MethodGet, "/v1/jobs/"+rec.ID+"/proof", nil)
		if err != nil {
			return err
		}
		proof, err = ledger.DecodeProof(bytes.NewReader(raw))
		return err
	}); err != nil {
		return err
	}

	if err := r.step(stepVerify, func() error {
		r.reportSum = sha256.Sum256(report)
		if err := proof.Verify(hex.EncodeToString(r.reportSum[:])); err != nil {
			return fmt.Errorf("verifying report of job %s: %w", rec.ID, err)
		}
		if proof.Entry.Job != rec.ID {
			return fmt.Errorf("proof witnesses job %s, not %s", proof.Entry.Job, rec.ID)
		}
		return nil
	}); err != nil {
		return err
	}
	r.reportLen = len(report)
	if keep {
		r.body = report
	}
	return nil
}

// roundTrip sends one request and returns the whole response body; a
// non-2xx status is an error.
func (c *client) roundTrip(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s -> %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// waitTerminal follows the job's SSE stream until a terminal state frame
// arrives, then reads the stream to its end so the connection is reused.
func (c *client) waitTerminal(ctx context.Context, id string) (state, detail string, err error) {
	path := "/v1/jobs/" + id + "/events"
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return "", "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		data, _ := io.ReadAll(resp.Body)
		return "", "", fmt.Errorf("GET %s -> %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	sc := bufio.NewScanner(resp.Body)
	// Epoch samples are single data lines of a few KB.
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	typ := ""
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "event: "); ok {
			typ = v
			continue
		}
		v, ok := strings.CutPrefix(line, "data: ")
		if !ok || typ != service.EventState {
			continue
		}
		var ev struct {
			State  string `json:"state"`
			Detail string `json:"detail"`
		}
		if err := json.Unmarshal([]byte(v), &ev); err != nil {
			return "", "", fmt.Errorf("GET %s: decoding state frame: %w", path, err)
		}
		switch ev.State {
		case service.StateDone, service.StateFailed, service.StateCanceled:
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				return "", "", fmt.Errorf("GET %s: draining stream: %w", path, err)
			}
			return ev.State, ev.Detail, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", "", fmt.Errorf("GET %s: %w", path, err)
	}
	return "", "", fmt.Errorf("GET %s: stream ended before a terminal state", path)
}
