package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
)

// This file is the distributed-execution wire protocol: the JSON messages
// workers exchange with a coordinator over /v1/work. Decoding follows the
// same strictness contract as DecodeJobSpec — bounded size, no unknown
// fields, no trailing data, full validation — so a malformed request is
// always a clean 400, never a half-built lease or a corrupted unit
// result. FuzzShardProtocolDecode pins the accept ⇒ valid property.

// maxShardAckBytes bounds lease, renew and fail bodies: small fixed-shape
// messages plus an error string.
const maxShardAckBytes = 1 << 16

// maxShardUploadBytes bounds a shard's unit-result upload. A shard of observed
// detailed simulations carries full epoch series; 64 MiB leaves two orders
// of magnitude of headroom over the largest legitimate shard while still
// bounding a hostile request.
const maxShardUploadBytes = 1 << 26

// LeaseRequest asks the coordinator for one shard of work
// (POST /v1/work/lease).
type LeaseRequest struct {
	// Worker identifies the requesting daemon in lease bookkeeping and
	// status output. Required, at most 128 bytes.
	Worker string `json:"worker"`
}

// Validate reports structural problems with the request.
func (r *LeaseRequest) Validate() error {
	if r.Worker == "" {
		return fmt.Errorf("lease request needs a worker name")
	}
	if len(r.Worker) > 128 {
		return fmt.Errorf("worker name exceeds 128 bytes")
	}
	return nil
}

// ShardGrant is the coordinator's answer to a granted lease: one shard —
// units [From, To) of the job's campaign — plus the lease token the worker
// must present on renew, fail and complete, and the TTL it must renew
// within.
type ShardGrant struct {
	Job   string `json:"job"`
	Shard int    `json:"shard"`
	// From and To delimit the unit range [From, To) this shard covers.
	From int `json:"from"`
	To   int `json:"to"`
	// Units is the campaign's total unit count (status display only).
	Units int `json:"units"`
	// Spec is the full job spec; the worker derives the shard's work from
	// (Spec, From, To) alone, so any worker computes identical results.
	Spec JobSpec `json:"spec"`
	// Lease is the opaque token naming this grant.
	Lease string `json:"lease"`
	// TTLMS is the lease's time-to-live; the worker must renew within it
	// or the coordinator re-queues the shard for another worker.
	TTLMS int64 `json:"ttlMs"`
}

// Validate reports structural problems with the grant.
func (g *ShardGrant) Validate() error {
	if g.Job == "" {
		return fmt.Errorf("shard grant needs a job ID")
	}
	if g.Shard < 0 {
		return fmt.Errorf("shard index must be >= 0, got %d", g.Shard)
	}
	if g.From < 0 || g.To <= g.From {
		return fmt.Errorf("shard range [%d, %d) is empty or negative", g.From, g.To)
	}
	if g.Units < g.To {
		return fmt.Errorf("shard range [%d, %d) exceeds %d campaign units", g.From, g.To, g.Units)
	}
	if g.Lease == "" {
		return fmt.Errorf("shard grant needs a lease token")
	}
	if g.TTLMS < 1 {
		return fmt.Errorf("ttlMs must be positive, got %d", g.TTLMS)
	}
	return g.Spec.Validate()
}

// ShardAck names a held lease (POST /v1/work/renew and /v1/work/fail).
type ShardAck struct {
	Job   string `json:"job"`
	Shard int    `json:"shard"`
	Lease string `json:"lease"`
	// Error carries the worker's failure message on /v1/work/fail.
	Error string `json:"error,omitempty"`
}

// Validate reports structural problems with the ack.
func (a *ShardAck) Validate() error {
	if a.Job == "" {
		return fmt.Errorf("shard ack needs a job ID")
	}
	if a.Shard < 0 {
		return fmt.Errorf("shard index must be >= 0, got %d", a.Shard)
	}
	if a.Lease == "" {
		return fmt.Errorf("shard ack needs a lease token")
	}
	return nil
}

// ShardUpload delivers a completed shard's unit results
// (POST /v1/work/complete): one JSON-encoded unit result per unit in
// [From, To), in unit order.
type ShardUpload struct {
	Job   string `json:"job"`
	Shard int    `json:"shard"`
	Lease string `json:"lease"`
	// Units holds the shard's unit results in unit order: montecarlo.Trial
	// for Monte Carlo campaigns, experiments.PolicyRun for detailed ones.
	Units []json.RawMessage `json:"units"`
	// Sum is the hex SHA-256 over the unit payloads (unitsSum), computed by
	// the worker over the bytes it is about to send. The coordinator
	// recomputes it over the bytes it received; a mismatch means the payload
	// was damaged in transit or in a buffer, and the shard re-leases instead
	// of a corrupt unit reaching the job's unit journal. Required.
	Sum string `json:"sum"`
}

// unitsSum is the canonical content hash of a shard's unit payloads: SHA-256
// over each unit's bytes prefixed with its big-endian uint64 length, so unit
// boundaries are part of the hash and no concatenation of different splits
// can collide.
func unitsSum(units []json.RawMessage) string {
	h := sha256.New()
	var n [8]byte
	for _, unit := range units {
		binary.BigEndian.PutUint64(n[:], uint64(len(unit)))
		h.Write(n[:])
		h.Write(unit)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// isHexSum reports whether s is a hex-encoded SHA-256.
func isHexSum(s string) bool {
	if len(s) != 2*sha256.Size {
		return false
	}
	_, err := hex.DecodeString(s)
	return err == nil
}

// Validate reports structural problems with the upload. Unit payloads are
// opaque here; the merge decodes them against the job's kind. Note Sum is
// only checked for shape — CompleteShard does the recomputation, so a
// validation failure stays a 400 and a hash mismatch a distinct 422.
func (u *ShardUpload) Validate() error {
	if u.Job == "" {
		return fmt.Errorf("shard upload needs a job ID")
	}
	if u.Shard < 0 {
		return fmt.Errorf("shard index must be >= 0, got %d", u.Shard)
	}
	if u.Lease == "" {
		return fmt.Errorf("shard upload needs a lease token")
	}
	if !isHexSum(u.Sum) {
		return fmt.Errorf("shard upload needs a SHA-256 payload sum")
	}
	if len(u.Units) == 0 {
		return fmt.Errorf("shard upload carries no unit results")
	}
	for i, unit := range u.Units {
		if trimmed := bytes.TrimSpace(unit); len(trimmed) == 0 || bytes.Equal(trimmed, []byte("null")) {
			return fmt.Errorf("shard upload unit %d is empty", i)
		}
	}
	return nil
}

// decodeStrict reads one bounded JSON document into v — no unknown fields,
// no trailing data — then validates it.
func decodeStrict(r io.Reader, limit int64, v interface{ Validate() error }) error {
	data, err := io.ReadAll(io.LimitReader(r, limit+1))
	if err != nil {
		return fmt.Errorf("reading request: %w", err)
	}
	if int64(len(data)) > limit {
		return fmt.Errorf("request exceeds %d bytes", limit)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decoding request: %w", err)
	}
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); err != io.EOF {
		return fmt.Errorf("request has trailing data")
	}
	return v.Validate()
}

// DecodeLeaseRequest parses and validates one lease request.
func DecodeLeaseRequest(r io.Reader) (*LeaseRequest, error) {
	var req LeaseRequest
	if err := decodeStrict(r, maxShardAckBytes, &req); err != nil {
		return nil, err
	}
	return &req, nil
}

// DecodeShardGrant parses and validates one shard grant (the worker side
// of /v1/work/lease).
func DecodeShardGrant(r io.Reader) (*ShardGrant, error) {
	var g ShardGrant
	if err := decodeStrict(r, maxSpecBytes+maxShardAckBytes, &g); err != nil {
		return nil, err
	}
	return &g, nil
}

// DecodeShardAck parses and validates one renew/fail body.
func DecodeShardAck(r io.Reader) (*ShardAck, error) {
	var a ShardAck
	if err := decodeStrict(r, maxShardAckBytes, &a); err != nil {
		return nil, err
	}
	return &a, nil
}

// DecodeShardUpload parses and validates one unit-result upload.
func DecodeShardUpload(r io.Reader) (*ShardUpload, error) {
	var u ShardUpload
	if err := decodeStrict(r, maxShardUploadBytes, &u); err != nil {
		return nil, err
	}
	return &u, nil
}
