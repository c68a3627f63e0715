package ledger

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func testRecord(i int) Record {
	job := fmt.Sprintf("job-%06d", i/2+1)
	if i%2 == 0 {
		return Record{Type: TypeJob, Job: job, Data: "queued",
			Hash: hex.EncodeToString(bytes.Repeat([]byte{byte(i)}, 32))}
	}
	return Record{Type: TypeReport, Job: job,
		Hash: hex.EncodeToString(bytes.Repeat([]byte{byte(i)}, 32))}
}

func openTestLedger(t *testing.T, n int) (*Ledger, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ledger.log")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := l.Append(testRecord(i), i%3 == 0); err != nil {
			t.Fatal(err)
		}
	}
	return l, path
}

func TestAppendReplayRoot(t *testing.T) {
	l, path := openTestLedger(t, 17)
	root, n := l.Root(), l.Len()
	if n != 17 {
		t.Fatalf("got %d entries, want 17", n)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != n || re.Root() != root {
		t.Fatalf("replay got (%d, %s), want (%d, %s)", re.Len(), re.Root(), n, root)
	}
	// Replay continues the chain: appending to the reopened ledger must
	// match appending to the original in-memory one.
	if _, err := re.Append(testRecord(17), true); err != nil {
		t.Fatal(err)
	}
	if re.Len() != 18 {
		t.Fatalf("append after replay: len %d", re.Len())
	}
}

func TestRootMatchesRecursiveDefinition(t *testing.T) {
	// The incremental tree must agree with the direct RFC 6962 recursion at
	// every size, including non-powers of two.
	var tr tree
	var leaves [][32]byte
	for n := 0; n <= 67; n++ {
		if got, want := tr.root(), merkleRoot(leaves); got != want {
			t.Fatalf("size %d: incremental root %x, recursive %x", n, got, want)
		}
		leaf := sha256.Sum256([]byte{byte(n), byte(n >> 8)})
		tr.push(leaf)
		leaves = append(leaves, leaf)
	}
}

func TestProofsVerifyAtEveryIndex(t *testing.T) {
	for _, size := range []int{1, 2, 3, 5, 8, 13, 16, 21} {
		l, _ := openTestLedger(t, size)
		for i := 0; i < size; i++ {
			p, err := l.Prove(i)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Verify(p.Entry.Hash); err != nil {
				t.Fatalf("size %d entry %d: %v", size, i, err)
			}
			if p.Root != l.Root() || p.TreeSize != size {
				t.Fatalf("size %d entry %d: proof root/size mismatch", size, i)
			}
		}
		l.Close()
	}
}

// TestClosedLedgerRefusesAppend: once closed, a ledger refuses Append and
// AppendBatch and leaves its file as Close left it.
func TestClosedLedgerRefusesAppend(t *testing.T) {
	l, path := openTestLedger(t, 3)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(testRecord(3), true); err == nil {
		t.Fatal("Append after Close succeeded")
	}
	if _, err := l.AppendBatch([]Record{testRecord(3), testRecord(4)}, true); err == nil {
		t.Fatal("AppendBatch after Close succeeded")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, before) || l.Len() != 3 {
		t.Fatalf("closed ledger went from %d to %d bytes and holds %d entries, want 3", len(before), len(after), l.Len())
	}
}

func TestProofRejectsTampering(t *testing.T) {
	l, _ := openTestLedger(t, 9)
	defer l.Close()
	p, err := l.Prove(4)
	if err != nil {
		t.Fatal(err)
	}
	// Wrong content hash (the fetched bytes differ from what was logged).
	other := hex.EncodeToString(bytes.Repeat([]byte{0xAA}, 32))
	if err := p.Verify(other); err == nil {
		t.Fatal("proof verified a foreign content hash")
	}
	// Tampered entry body: the leaf no longer recomputes.
	tampered := *p
	tampered.Entry.Hash = other
	if err := tampered.Verify(""); err == nil {
		t.Fatal("proof verified a tampered entry")
	}
	// Tampered path node: the fold no longer reaches the root.
	tampered = *p
	tampered.Path = append([]string(nil), p.Path...)
	tampered.Path[0] = other
	if err := tampered.Verify(""); err == nil {
		t.Fatal("proof verified a tampered path")
	}
	// Wrong index: the fold takes the wrong branches.
	tampered = *p
	tampered.Entry.Index = 5
	if err := tampered.Verify(""); err == nil {
		t.Fatal("proof verified at the wrong index")
	}
	// The untampered proof still passes.
	if err := p.Verify(p.Entry.Hash); err != nil {
		t.Fatal(err)
	}
}

func TestTornTailTruncates(t *testing.T) {
	l, path := openTestLedger(t, 6)
	root := l.Root()
	l.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A crash mid-append: half an entry, no trailing newline.
	torn := append(append([]byte{}, data...), []byte(`{"v":"bankaware.ledger/v1","i":6,"ty`)...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := Open(path)
	if err != nil {
		t.Fatalf("torn tail must replay cleanly: %v", err)
	}
	defer re.Close()
	if re.Len() != 6 || re.Root() != root {
		t.Fatalf("after torn tail: (%d, %s), want (6, %s)", re.Len(), re.Root(), root)
	}
	// The tail was truncated away, so the next append lands on a clean file.
	if _, err := re.Append(testRecord(6), true); err != nil {
		t.Fatal(err)
	}
	re.Close()
	if _, err := Open(path); err != nil {
		t.Fatalf("reopen after truncate+append: %v", err)
	}
}

func TestFlippedByteIsCorrupt(t *testing.T) {
	for _, tc := range []struct {
		name string
		at   func(data []byte) int
	}{
		// A byte inside a middle entry's content hash: still valid JSON, still
		// a complete line — only the checksum and the hashes can catch it.
		{"content hash", func(data []byte) int {
			return bytes.Index(data, []byte(`"hash":"`)) + len(`"hash":"`)
		}},
		// The final newline: the synced last entry must not pass for a torn
		// tail and be truncated away.
		{"final newline", func(data []byte) int { return len(data) - 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, path := openTestLedger(t, 8)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[tc.at(data)] ^= 0x01
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Open(path); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("flipped byte: got %v, want ErrCorrupt", err)
			}
		})
	}
}

// TestEveryByteFlipIsDetected flips every byte of a 3-entry ledger, by XOR
// 0x01 and by overwriting it with a newline. Each reopen must either load
// all 3 entries under the original root or fail closed with ErrCorrupt —
// never load fewer entries silently.
func TestEveryByteFlipIsDetected(t *testing.T) {
	l, path := openTestLedger(t, 3)
	root := l.Root()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range []struct {
		name string
		fn   func(byte) byte
	}{
		{"xor01", func(b byte) byte { return b ^ 0x01 }},
		{"newline", func(byte) byte { return '\n' }},
	} {
		for off := range orig {
			data := append([]byte{}, orig...)
			data[off] = sub.fn(data[off])
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			re, err := Open(path)
			if errors.Is(err, ErrCorrupt) {
				continue
			}
			if err != nil {
				t.Fatalf("%s@%d: %v", sub.name, off, err)
			}
			if re.Len() != 3 || re.Root() != root {
				t.Fatalf("%s@%d: silently loaded %d entries, root %s", sub.name, off, re.Len(), re.Root())
			}
			re.Close()
		}
	}
}

// TestLegacyLedgerUpgrade opens a ledger written in the unframed encoding
// that predates bankaware.log/v1: the entries and the root are unchanged,
// and the file is framed afterwards.
func TestLegacyLedgerUpgrade(t *testing.T) {
	legacy, err := os.ReadFile("testdata/legacy-ledger.log")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ledger.log")
	if err := os.WriteFile(path, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// The root the unframed ledger had when it was written.
	const root = "fc2d92c97e499fd32719e9833c6b0f43a2ce15116b7e297ec1454d718b944356"
	if l.Len() != 3 || l.Root() != root {
		t.Fatalf("upgraded ledger: (%d, %s), want (3, %s)", l.Len(), l.Root(), root)
	}
	framed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	oldLines := bytes.SplitAfter(legacy, []byte("\n"))
	newLines := bytes.SplitAfter(framed, []byte("\n"))
	if len(newLines) != len(oldLines) {
		t.Fatalf("upgraded file has %d lines, want %d", len(newLines), len(oldLines))
	}
	for i, line := range newLines[:3] {
		if len(line) < 9 || line[8] != ' ' || !bytes.Equal(line[9:], oldLines[i]) {
			t.Fatalf("line %d not framed around the original entry: %q", i, line)
		}
	}
}

func TestChainBreakIsCorrupt(t *testing.T) {
	l, path := openTestLedger(t, 4)
	l.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Drop a middle line entirely: indices and chain links both break.
	lines := bytes.SplitAfter(data, []byte("\n"))
	cut := append(append([]byte{}, bytes.Join(lines[:1], nil)...), bytes.Join(lines[2:], nil)...)
	if err := os.WriteFile(path, cut, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("dropped entry: got %v, want ErrCorrupt", err)
	}
}

func TestLatestReportTracksReruns(t *testing.T) {
	l, _ := openTestLedger(t, 0)
	defer l.Close()
	mustAppend := func(rec Record) Entry {
		e, err := l.Append(rec, false)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	h1 := strings.Repeat("11", 32)
	mustAppend(Record{Type: TypeJob, Job: "job-000001", Data: "queued"})
	mustAppend(Record{Type: TypeReport, Job: "job-000001", Hash: h1})
	if e, ok := l.LatestReport("job-000001"); !ok || e.Hash != h1 {
		t.Fatalf("latest report: %+v, %v", e, ok)
	}
	// A quarantine re-run stores fresh (identical or not) bytes; the proof
	// endpoint must serve the newest entry.
	h2 := strings.Repeat("22", 32)
	mustAppend(Record{Type: TypeJob, Job: "job-000001", Data: "queued"})
	e2 := mustAppend(Record{Type: TypeReport, Job: "job-000001", Hash: h2})
	if e, ok := l.LatestReport("job-000001"); !ok || e.Index != e2.Index {
		t.Fatalf("latest report after re-run: %+v, %v", e, ok)
	}
	if _, ok := l.LatestReport("job-000099"); ok {
		t.Fatal("latest report for an unknown job")
	}
}

func TestAppendBatchMatchesSequentialAppends(t *testing.T) {
	la, _ := openTestLedger(t, 0)
	lb, _ := openTestLedger(t, 0)
	defer la.Close()
	defer lb.Close()
	recs := []Record{testRecord(0), testRecord(1), testRecord(2)}
	if _, err := la.AppendBatch(recs, true); err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if _, err := lb.Append(rec, false); err != nil {
			t.Fatal(err)
		}
	}
	if la.Root() != lb.Root() {
		t.Fatalf("batch root %s != sequential root %s", la.Root(), lb.Root())
	}
}
