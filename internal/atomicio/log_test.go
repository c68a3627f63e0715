package atomicio

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func frames(recs ...string) []byte {
	var buf []byte
	for _, r := range recs {
		buf = append(append(appendCRC(buf, []byte(r)), r...), '\n')
	}
	return buf
}

// openCollect opens the log at path holding data and returns the records
// it delivered.
func openCollect(t *testing.T, path string, data []byte) (*Log, []string, error) {
	t.Helper()
	if data != nil {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	l, err := OpenLog(path, func(rec []byte) error {
		got = append(got, string(rec))
		return nil
	})
	return l, got, err
}

func TestFrameFormat(t *testing.T) {
	// Pins the Castagnoli table (IEEE CRC-32 gives 561bacaf here) and the
	// lowercase 8-digit prefix.
	got := string(frames(`{"a":1}`))
	want := "cff7d56a {\"a\":1}\n"
	if got != want {
		t.Fatalf("frame %q, want %q", got, want)
	}
}

func TestLogReplayRule(t *testing.T) {
	a, b, c := `{"n":1}`, `{"n":2}`, `{"n":3}`
	whole := frames(a, b, c)
	flippedNL := append([]byte{}, whole...)
	flippedNL[len(flippedNL)-1] ^= 0x01
	midFlip := append([]byte{}, whole...)
	midFlip[len(frames(a))+12] ^= 0x01
	for _, tc := range []struct {
		name    string
		data    []byte
		want    []string
		corrupt []int  // nil: clean open
		after   []byte // file contents after a clean open
	}{
		{"clean", whole, []string{a, b, c}, nil, whole},
		{"torn tail", append(append([]byte{}, whole...), whole[:12]...), []string{a, b, c}, nil, whole},
		{"torn whole frame without newline", whole[:len(whole)-1], []string{a, b}, nil, frames(a, b)},
		{"flipped final newline", flippedNL, []string{a, b}, []int{3}, nil},
		{"flipped middle byte", midFlip, []string{a, c}, []int{2}, nil},
		{"blank line", append(frames(a), append([]byte("\n"), frames(b)...)...), []string{a, b}, []int{2}, nil},
		{"legacy", []byte(a + "\n" + b + "\n" + c + "\n"), []string{a, b, c}, nil, whole},
		{"legacy torn tail", []byte(a + "\n" + b + "\n" + `{"n"`), []string{a, b}, nil, frames(a, b)},
		{"legacy flipped final newline", []byte(a + "\n" + b + "\x0b"), []string{a}, []int{2}, nil},
		{"legacy unparseable line", []byte(a + "\n{oops\n" + c + "\n"), []string{a, c}, []int{2}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "x.log")
			l, got, err := openCollect(t, path, tc.data)
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("delivered %q, want %q", got, tc.want)
			}
			onDisk, rerr := os.ReadFile(path)
			if rerr != nil {
				t.Fatal(rerr)
			}
			if tc.corrupt == nil {
				if err != nil {
					t.Fatalf("open: %v", err)
				}
				if !bytes.Equal(onDisk, tc.after) {
					t.Fatalf("file after open %q, want %q", onDisk, tc.after)
				}
				return
			}
			var cerr *CorruptError
			if !errors.As(err, &cerr) || !errors.Is(err, ErrCorrupt) || !reflect.DeepEqual(cerr.Lines, tc.corrupt) {
				t.Fatalf("open: %v, want corrupt lines %v", err, tc.corrupt)
			}
			if !bytes.Equal(onDisk, tc.data) {
				t.Fatal("a damaged log was modified before Rewrite")
			}
			if rerr := Replay(path, func([]byte) error { return nil }); !errors.Is(rerr, ErrCorrupt) {
				t.Fatalf("Replay: %v, want ErrCorrupt", rerr)
			}
			// Recovery: the damaged bytes move aside, survivors are rewritten.
			live := make([][]byte, len(got))
			for i, r := range got {
				live[i] = []byte(r)
			}
			if err := l.Rewrite(live); err != nil {
				t.Fatal(err)
			}
			if q, err := os.ReadFile(path + ".quarantine"); err != nil || !bytes.Equal(q, tc.data) {
				t.Fatalf("quarantine holds %q (%v), want the damaged bytes", q, err)
			}
			if _, again, err := openCollect(t, path, nil); err != nil || !reflect.DeepEqual(again, tc.want) {
				t.Fatalf("reopen after Rewrite: %q, %v", again, err)
			}
		})
	}
}

func TestLogApplyRejectionIsCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.log")
	if err := os.WriteFile(path, frames(`{"n":1}`, `{"n":2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	err := Replay(path, func(rec []byte) error {
		if string(rec) == `{"n":1}` {
			return errors.New("rejected")
		}
		return nil
	})
	var cerr *CorruptError
	if !errors.As(err, &cerr) || !reflect.DeepEqual(cerr.Lines, []int{1}) {
		t.Fatalf("got %v, want line 1 corrupt", err)
	}
}

func TestLogAppendAndDue(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.log")
	l, _, err := openCollect(t, path, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := []byte(`{"pad":"0123456789"}`) // 30-byte frame
	if err := l.Append([][]byte{rec, rec}, true); err != nil {
		t.Fatal(err)
	}
	if l.Due(60) || !l.Due(59) {
		t.Fatal("Due must compare the size against the floor before any Rewrite")
	}
	if err := l.Rewrite([][]byte{rec, rec, rec}); err != nil {
		t.Fatal(err)
	}
	// 90 compacted bytes: the threshold doubles past a smaller floor.
	if err := l.Append([][]byte{rec, rec, rec}, false); err != nil {
		t.Fatal(err)
	}
	if l.Due(10) {
		t.Fatal("compaction due before the log doubled from its compacted size")
	}
	if err := l.Append([][]byte{rec}, false); err != nil {
		t.Fatal(err)
	}
	if !l.Due(10) {
		t.Fatal("compaction not due after the log doubled")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, got, err := openCollect(t, path, nil); err != nil || len(got) != 7 {
		t.Fatalf("reopen: %d records, %v", len(got), err)
	}
}

// FuzzLogReplay asserts the replay contract on arbitrary bytes: it never
// panics; every delivered record re-frames to the exact bytes of a line of
// the input (for the legacy encoding, is that line), in order; and the
// recovery every caller runs — Rewrite the survivors of a damaged log —
// followed by Append yields, on reopen, the survivors plus the appended
// records, cleanly.
func FuzzLogReplay(f *testing.F) {
	whole := frames(`{"n":1}`, `{"job":2,"result":{"v":0.5}}`, `{"n":3}`)
	f.Add(whole)
	f.Add(whole[:len(whole)-5])
	f.Add(append(append([]byte{}, whole[:len(whole)-1]...), 0x0b))
	f.Add([]byte("{\"n\":1}\n{\"n\":2}\n{\"n"))
	f.Add([]byte("\n\n"))
	f.Add([]byte("00000000 \n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.log")
		l, got, err := openCollect(t, path, data)
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("open: %v", err)
		}
		legacy := len(data) > 0 && data[0] == '{'
		lines := bytes.SplitAfter(data, []byte("\n"))
		next := 0
		for _, rec := range got {
			want := string(frames(rec))
			if legacy {
				want = rec + "\n"
			}
			for next < len(lines) && string(lines[next]) != want {
				next++
			}
			if next == len(lines) {
				t.Fatalf("delivered %q matches no later input line", rec)
			}
			next++
		}
		live := make([][]byte, len(got))
		for i, r := range got {
			live[i] = []byte(r)
		}
		if err != nil {
			if err := l.Rewrite(live); err != nil {
				t.Fatal(err)
			}
		}
		added := [][]byte{[]byte(`{"appended":1}`), []byte(`{"appended":2}`)}
		if err := l.Append(added, true); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		_, again, err := openCollect(t, path, nil)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		want := append(append([]string{}, got...), string(added[0]), string(added[1]))
		if !reflect.DeepEqual(again, want) {
			t.Fatalf("reopen delivered %q, want %q", again, want)
		}
	})
}
