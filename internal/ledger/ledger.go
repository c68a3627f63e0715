// Package ledger implements bankaware.ledger/v1: an append-only,
// hash-chained Merkle log over job lifecycle records and report content
// hashes. The ledger is the integrity backbone of the result path — it
// observes bytes, it never changes them. Every entry carries the leaf hash
// of the previous entry (a hash chain that pins the append order) and
// contributes a leaf to an RFC 6962-style Merkle tree, whose root is the
// compact commitment the daemon exposes on /healthz and whose inclusion
// proofs let a client verify a fetched report end-to-end without trusting
// the store.
//
// Entries are stored as an atomicio.Log: a crash mid-append leaves a torn
// tail that replay truncates (the entry was never acknowledged). Any
// complete line that fails its checksum or parse, breaks the chain, or does
// not re-hash to its leaf (which covers the entry JSON, not its frame) is
// corruption — Open fails closed with ErrCorrupt so the caller can
// quarantine the log and rebuild it from the store (the root is
// reproducible from the stored records and report bytes).
package ledger

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"bankaware/internal/atomicio"
)

// Version tags every entry's on-disk encoding.
const Version = "bankaware.ledger/v1"

// Entry types.
const (
	// TypeJob records one job state transition; Data is the state name and
	// Hash the job's canonical spec hash.
	TypeJob = "job"
	// TypeReport records one stored run report; Hash is the SHA-256 of the
	// stored report bytes — the hash a verifier recomputes from a fetch.
	TypeReport = "report"
)

// ErrCorrupt reports a ledger whose synced contents fail verification: a
// complete line whose checksum fails or that does not parse, an index or
// chain break, or a leaf hash that does not recompute. It is distinct from
// a torn tail, which replay tolerates silently.
var ErrCorrupt = errors.New("ledger: corrupt")

// Record is the caller-supplied content of one entry.
type Record struct {
	// Type is TypeJob or TypeReport.
	Type string `json:"type"`
	// Job names the job the record observes.
	Job string `json:"job"`
	// Data is the state name for TypeJob records; empty for TypeReport.
	Data string `json:"data,omitempty"`
	// Hash is a hex SHA-256 content hash: the canonical spec hash for job
	// records, the stored report bytes for report records.
	Hash string `json:"hash,omitempty"`
}

// Entry is one sealed ledger entry: the record plus its position, chain
// link and leaf hash. Entries are immutable once appended.
type Entry struct {
	Version string `json:"v"`
	Index   int    `json:"i"`
	Record
	// Prev is the previous entry's leaf hash (empty for entry 0) — the
	// hash chain that pins append order independently of the tree.
	Prev string `json:"prev,omitempty"`
	// Leaf is hex(SHA-256(0x00 || body)) where body is the entry's
	// canonical JSON without this field; it is both the chain link carried
	// by the next entry and this entry's Merkle leaf.
	Leaf string `json:"leaf"`
}

// leafBody is the canonical pre-image of an entry's leaf hash: the entry
// minus the Leaf field, in fixed field order.
type leafBody struct {
	Version string `json:"v"`
	Index   int    `json:"i"`
	Type    string `json:"type"`
	Job     string `json:"job"`
	Data    string `json:"data,omitempty"`
	Hash    string `json:"hash,omitempty"`
	Prev    string `json:"prev,omitempty"`
}

// LeafHash computes the leaf hash of an entry from everything but its Leaf
// field. Exported so a verifier holding a proof can recompute the leaf
// from the served entry instead of trusting the recorded value.
func LeafHash(e Entry) ([32]byte, error) {
	body, err := json.Marshal(leafBody{
		Version: e.Version, Index: e.Index, Type: e.Type,
		Job: e.Job, Data: e.Data, Hash: e.Hash, Prev: e.Prev,
	})
	if err != nil {
		return [32]byte{}, err
	}
	return leafHash(body), nil
}

// errClosed fails an append to a closed ledger.
var errClosed = errors.New("ledger: closed")

// Ledger is the open log. Safe for concurrent use.
type Ledger struct {
	mu      sync.Mutex
	log     *atomicio.Log
	closed  bool
	entries []Entry
	leaves  [][32]byte // decoded Entry.Leaf, by index
	tree    tree
	// latestReport maps job ID -> index of its most recent TypeReport
	// entry (a re-run after quarantine appends a fresh one; proofs serve
	// the latest).
	latestReport map[string]int
}

// Open loads (or initialises) the ledger at path. A torn tail from a crash
// mid-append is truncated (the entry was never acknowledged). Any other
// verification failure — a line whose checksum fails, an index gap, a
// chain break, a leaf mismatch — returns ErrCorrupt naming the failing
// lines, leaving the file untouched as evidence.
func Open(path string) (*Ledger, error) {
	l := &Ledger{latestReport: make(map[string]int)}
	log, err := atomicio.OpenLog(path, func(line []byte) error {
		var e Entry
		if json.Unmarshal(line, &e) != nil || !l.follows(e) {
			return ErrCorrupt
		}
		l.admit(e)
		return nil
	})
	if errors.Is(err, atomicio.ErrCorrupt) {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if err != nil {
		return nil, fmt.Errorf("ledger: opening %s: %w", path, err)
	}
	l.log = log
	return l, nil
}

// follows reports whether e is the valid successor of the loaded prefix:
// the right version and index, the chain link, and a leaf that recomputes.
func (l *Ledger) follows(e Entry) bool {
	prev := ""
	if n := len(l.entries); n > 0 {
		prev = l.entries[n-1].Leaf
	}
	leaf, err := LeafHash(e)
	return err == nil && e.Version == Version && e.Index == len(l.entries) &&
		e.Prev == prev && hex.EncodeToString(leaf[:]) == e.Leaf
}

// admit folds a verified entry into the in-memory state.
func (l *Ledger) admit(e Entry) {
	var h [32]byte
	_, _ = hex.Decode(h[:], []byte(e.Leaf)) // verified or just sealed: 64 hex digits
	l.entries = append(l.entries, e)
	l.leaves = append(l.leaves, h)
	l.tree.push(h)
	if e.Type == TypeReport {
		l.latestReport[e.Job] = e.Index
	}
}

// Append seals rec as the next entry and persists it. sync forces an fsync
// before the entry is admitted: terminal transitions and report hashes are
// synced (a proof must never outlive its entry), while high-rate
// observational records (queued, running) may ride along on the next sync
// — a crash can drop that tail, which replay tolerates exactly like a torn
// WAL batch.
func (l *Ledger) Append(rec Record, sync bool) (Entry, error) {
	entries, err := l.AppendBatch([]Record{rec}, sync)
	if err != nil {
		return Entry{}, err
	}
	return entries[0], nil
}

// AppendBatch seals and persists recs in order with a single write (and, if
// sync, a single fsync) — the ledger side of the intake group commit. A
// closed ledger refuses the write, so nothing reopens its file.
func (l *Ledger) AppendBatch(recs []Record, sync bool) ([]Entry, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, errClosed
	}
	lines := make([][]byte, 0, len(recs))
	entries := make([]Entry, 0, len(recs))
	// Seal against the would-be state: entries only admit after the write
	// succeeds, so a failed batch leaves the chain untouched.
	base := len(l.entries)
	prev := ""
	if base > 0 {
		prev = l.entries[base-1].Leaf
	}
	for k, rec := range recs {
		e := Entry{Version: Version, Index: base + k, Record: rec, Prev: prev}
		leaf, err := LeafHash(e)
		if err != nil {
			return nil, fmt.Errorf("ledger: hashing entry %d: %w", e.Index, err)
		}
		e.Leaf = hex.EncodeToString(leaf[:])
		line, err := json.Marshal(e)
		if err != nil {
			return nil, fmt.Errorf("ledger: encoding entry %d: %w", e.Index, err)
		}
		lines = append(lines, line)
		entries = append(entries, e)
		prev = e.Leaf
	}
	if err := l.log.Append(lines, sync); err != nil {
		return nil, fmt.Errorf("ledger: appending: %w", err)
	}
	for _, e := range entries {
		l.admit(e)
	}
	return entries, nil
}

// Len returns the number of entries.
func (l *Ledger) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}

// Root returns the hex Merkle root over all entries. Two nodes whose
// ledgers agree byte-for-byte report the same root — the cheap cross-node
// integrity check fleet monitors compare.
func (l *Ledger) Root() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	root := l.tree.root()
	return hex.EncodeToString(root[:])
}

// Entry returns entry i.
func (l *Ledger) Entry(i int) (Entry, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if i < 0 || i >= len(l.entries) {
		return Entry{}, false
	}
	return l.entries[i], true
}

// LatestReport returns the most recent TypeReport entry for job.
func (l *Ledger) LatestReport(job string) (Entry, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	i, ok := l.latestReport[job]
	if !ok {
		return Entry{}, false
	}
	return l.entries[i], true
}

// Prove builds the inclusion proof of entry i against the current tree.
func (l *Ledger) Prove(i int) (*Proof, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if i < 0 || i >= len(l.entries) {
		return nil, fmt.Errorf("ledger: no entry %d (ledger has %d)", i, len(l.entries))
	}
	path := inclusionPath(i, l.leaves)
	hexPath := make([]string, len(path))
	for k, h := range path {
		hexPath[k] = hex.EncodeToString(h[:])
	}
	root := l.tree.root()
	return &Proof{
		Version:  ProofVersion,
		Entry:    l.entries[i],
		TreeSize: len(l.entries),
		Path:     hexPath,
		Root:     hex.EncodeToString(root[:]),
	}, nil
}

// Close syncs the entries appended without sync and releases the file.
// Every later append fails, and a second Close does nothing.
func (l *Ledger) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	return errors.Join(l.log.Append(nil, true), l.log.Close())
}
