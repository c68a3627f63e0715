package atomicio

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
)

// ErrCorrupt is wrapped by CorruptError.
var ErrCorrupt = errors.New("atomicio: corrupt log")

// CorruptError names the damaged lines (1-based) of the log at Path.
type CorruptError struct {
	Path  string
	Lines []int
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("atomicio: %s: corrupt lines %v", e.Path, e.Lines)
}

func (e *CorruptError) Unwrap() error { return ErrCorrupt }

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendCRC appends rec's frame prefix: its CRC-32C in 8 hex digits, a space.
func appendCRC(dst, rec []byte) []byte {
	return fmt.Appendf(dst, "%08x ", crc32.Checksum(rec, castagnoli))
}

// unframe returns the record of a line whose frame verifies. A line of the
// legacy encoding that predates bankaware.log/v1 is bare JSON, with no
// checksum.
func unframe(line []byte, legacy bool) ([]byte, bool) {
	if legacy {
		return line, json.Valid(line)
	}
	return line[min(9, len(line)):], len(line) >= 9 && string(line[:9]) == string(appendCRC(nil, line[9:]))
}

// replay delivers each verifying record of data to apply and returns the
// length of the prefix up to the last newline and the corrupt lines: those
// whose frame fails or whose record apply rejects. Bytes after the last
// newline are a torn tail, unless they are a whole frame plus one stray
// byte: a torn write cannot leave that, a flipped final newline can.
func replay(data []byte, apply func(rec []byte) error) (valid int, bad []int) {
	legacy := len(data) > 0 && data[0] == '{'
	for n := 1; valid < len(data); n++ {
		line, _, whole := bytes.Cut(data[valid:], []byte("\n"))
		if !whole {
			if _, ok := unframe(line[:len(line)-1], legacy); ok {
				return len(data), append(bad, n)
			}
			return valid, bad
		}
		if rec, ok := unframe(line, legacy); !ok || apply(rec) != nil {
			bad = append(bad, n)
		}
		valid += len(line) + 1
	}
	return valid, bad
}

// load reads the log at path, if any, and replays it into apply.
func load(path string, apply func(rec []byte) error) (data []byte, valid int, err error) {
	data, err = os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, err
	}
	valid, bad := replay(data, apply)
	if bad != nil {
		err = &CorruptError{Path: path, Lines: bad}
	}
	return data, valid, err
}

// Replay reads the log at path without changing it and delivers every
// verifying record to apply, in order, ignoring a torn tail. Lines are
// independent, so a corrupt line does not stop it: it returns a
// *CorruptError after delivering the rest. A missing file is empty.
func Replay(path string, apply func(rec []byte) error) error {
	_, _, err := load(path, apply)
	return err
}

// Log is an append-only log in the bankaware.log/v1 encoding: one record
// per line, the CRC-32C (Castagnoli) of the JSON payload as 8 lowercase hex
// digits, a space, then the payload. Callers serialise access.
type Log struct {
	path string
	f    *os.File // opened by the first Append after OpenLog or Rewrite
	// size is the file's length, compacted its length after the last
	// Rewrite.
	size, compacted int64
	damaged         bool // opened with corrupt lines: quarantine on Rewrite
}

// OpenLog replays the log at path like Replay and readies it for appending:
// it truncates a torn tail, and rewrites a file in the legacy unframed
// encoding (it starts with '{') framed, records unchanged. On an error it
// changes nothing; after a *CorruptError the caller drops the log or
// rebuilds it with Rewrite.
func OpenLog(path string, apply func(rec []byte) error) (*Log, error) {
	data, valid, err := load(path, apply)
	l := &Log{path: path, size: int64(valid), damaged: err != nil}
	switch {
	case err != nil:
		return l, err
	case len(data) > 0 && data[0] == '{':
		var recs [][]byte
		replay(data[:valid], func(rec []byte) error { recs = append(recs, rec); return nil })
		return l, l.Rewrite(recs)
	case valid < len(data):
		return l, os.Truncate(path, int64(valid))
	}
	return l, nil
}

// frame encodes recs, which hold no newline: JSON encoders escape it.
func frame(recs [][]byte) []byte {
	var buf []byte
	for _, rec := range recs {
		buf = append(append(appendCRC(buf, rec), rec...), '\n')
	}
	return buf
}

// Append writes recs with one write, then one fsync if sync is set.
// Unsynced records reach disk with the next synced Append; a crash before
// that can cut them off as a torn tail.
func (l *Log) Append(recs [][]byte, sync bool) (err error) {
	buf := frame(recs)
	if l.f == nil {
		if l.f, err = os.OpenFile(l.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
			return err
		}
	}
	if _, err := l.f.Write(buf); err != nil {
		// Best effort: cut a partial write off so the next record starts
		// its own line.
		_ = l.f.Truncate(l.size)
		return err
	}
	l.size += int64(len(buf))
	if sync {
		return l.f.Sync()
	}
	return nil
}

// Due reports whether the log has outgrown the larger of floor and twice
// its size after the last Rewrite. The doubling keeps a large live set
// from turning every append into a rewrite.
func (l *Log) Due(floor int64) bool {
	return l.size > max(floor, 2*l.compacted)
}

// Rewrite atomically replaces the log's contents with live. A log opened
// with corrupt lines is first renamed to path+".quarantine": kept as
// evidence, never deleted.
func (l *Log) Rewrite(live [][]byte) error {
	buf := frame(live)
	if err := l.Close(); err != nil {
		return err
	}
	if l.damaged {
		if err := os.Rename(l.path, l.path+".quarantine"); err != nil {
			return err
		}
		l.damaged = false
	}
	if err := WriteFileBytes(l.path, buf); err != nil {
		return err
	}
	l.size, l.compacted = int64(len(buf)), int64(len(buf))
	return nil
}

// Close releases the file without syncing; a later Append reopens it.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}
