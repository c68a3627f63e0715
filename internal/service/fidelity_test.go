// Service-level contract of the fidelity tier: submission validation maps
// impossible fidelities to typed 422s, /healthz advertises the supported
// modes, and a fast job served over HTTP is byte-identical to the direct
// library run while never colliding with the detailed cache entry.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"reflect"
	"testing"

	"bankaware/internal/experiments"
)

// TestHTTPFidelitySubmission pins the submission status codes: a body that
// is not even JSON stays 400, while a well-formed spec naming an unknown
// fidelity — or pairing fast with the analytic Monte Carlo campaign — is a
// 422, so clients can tell "fix your encoding" from "fix your job".
func TestHTTPFidelitySubmission(t *testing.T) {
	_, ts := startHTTP(t, Config{}, false)
	cases := []struct {
		name, body string
		want       int
	}{
		{"malformed body", `{"kind":`, http.StatusBadRequest},
		{"unknown fidelity", `{"kind":"set","fidelity":"turbo","set":{"set":1}}`, http.StatusUnprocessableEntity},
		{"montecarlo has no tiers", `{"kind":"montecarlo","fidelity":"fast","montecarlo":{"trials":5}}`, http.StatusUnprocessableEntity},
		{"fast set accepted", `{"kind":"set","fidelity":"fast","set":{"set":1}}`, http.StatusAccepted},
		{"explicit detailed accepted", `{"kind":"experiments","fidelity":"detailed","experiments":{}}`, http.StatusAccepted},
	}
	for _, tc := range cases {
		resp, _ := postJob(t, ts, tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: POST -> %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
}

// TestHTTPHealthzFidelities requires /healthz to advertise the fidelity
// modes this daemon accepts, so a client can discover the fast tier before
// risking a 422.
func TestHTTPHealthzFidelities(t *testing.T) {
	_, ts := startHTTP(t, Config{}, false)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health struct {
		Status     string   `json:"status"`
		Fidelities []string `json:"fidelities"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if want := []string{"detailed", "fast"}; !reflect.DeepEqual(health.Fidelities, want) {
		t.Fatalf("healthz fidelities = %v, want %v", health.Fidelities, want)
	}
}

// TestHTTPFastJobServiceVsDirect is the fast tier's end-to-end identity
// check, mirroring the golden detailed e2e: a fast set job submitted over
// HTTP must store exactly the bytes a direct library run produces, and the
// detailed twin of the same spec must land on its own job — the
// fidelity-aware spec hash keeps the two cache entries apart.
func TestHTTPFastJobServiceVsDirect(t *testing.T) {
	if testing.Short() {
		t.Skip("full set evaluation in -short mode")
	}
	// Direct run, mirroring resolveSet's parameter resolution for the spec below.
	cfg := experiments.ScaleModel.Config()
	cfg.EpochCycles = 200_000
	res, err := experiments.RunSetContext(context.Background(), cfg, 1,
		experiments.TableIIISets[0][:], 300_000,
		experiments.Options{Observe: true, Fidelity: experiments.FidelityFast})
	if err != nil {
		t.Fatal(err)
	}
	var direct bytes.Buffer
	if err := res.Report().WriteJSON(&direct); err != nil {
		t.Fatal(err)
	}

	svc, ts := startHTTP(t, Config{Workers: 4}, true)
	const spec = `{"kind":"set","observe":true,"fidelity":"fast","set":{"set":1,"epochCycles":200000,"instructions":300000}}`
	resp, rec := postJob(t, ts, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("fast submit -> %d, want 202", resp.StatusCode)
	}
	waitState(t, svc, rec.ID, StateDone)
	got := reportBytes(t, svc, rec.ID)
	if !bytes.Equal(got, direct.Bytes()) {
		t.Fatalf("service fast report differs from the direct library run (%d vs %d bytes)", len(got), direct.Len())
	}
	var rep struct {
		Fidelity string `json:"fidelity"`
	}
	if err := json.Unmarshal(got, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Fidelity != "fast" {
		t.Fatalf("stored fast report fidelity = %q, want %q", rep.Fidelity, "fast")
	}

	// The detailed twin must be a fresh job, not a cache hit on the fast
	// entry: fidelity is part of the spec hash.
	const detailedSpec = `{"kind":"set","observe":true,"set":{"set":1,"epochCycles":200000,"instructions":300000}}`
	dResp, dRec := postJob(t, ts, detailedSpec)
	if dResp.StatusCode != http.StatusAccepted {
		t.Fatalf("detailed twin submit -> %d, want 202 (fresh job)", dResp.StatusCode)
	}
	if dRec.ID == rec.ID {
		t.Fatal("detailed twin deduplicated onto the fast job: fidelity missing from the spec hash")
	}
	waitState(t, svc, dRec.ID, StateDone)
	if bytes.Equal(reportBytes(t, svc, dRec.ID), got) {
		t.Fatal("detailed and fast reports are byte-identical; the engines cannot both be running")
	}

	// Resubmitting the fast spec is a content-addressed hit on the fast job.
	hResp, hRec := postJob(t, ts, spec)
	if hResp.StatusCode != http.StatusOK || hRec.ID != rec.ID {
		t.Fatalf("fast resubmit -> %d id %s, want 200 with %s", hResp.StatusCode, hRec.ID, rec.ID)
	}
}
