package runner

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"sync"

	"bankaware/internal/atomicio"
)

// Journal is a lightweight checkpoint for one fan-out: every completed
// job's index and JSON-encoded result, appended record by record to a log.
// A campaign killed mid-run reopens the journal and Map restores the
// recorded jobs instead of recomputing them; since results are stored as
// JSON and Go's encoder round-trips float64 exactly, a resumed campaign
// emits reports byte-identical to an uninterrupted one.
//
// Records are {"job":17,"result":{...}} in atomicio's checksummed log
// format. A torn final record (the crash interrupted an append) is
// truncated and a corrupt one skipped; either way the affected job is
// simply recomputed. Result types must round-trip through encoding/json —
// exported fields only.
type Journal struct {
	mu   sync.Mutex
	log  *atomicio.Log
	done map[int]json.RawMessage
}

type journalRecord struct {
	Job    int             `json:"job"`
	Result json.RawMessage `json:"result"`
}

// OpenJournal opens (or creates) the checkpoint file at path and loads the
// completed-job records already in it. A corrupt journal is moved aside to
// path+".quarantine" and rewritten from the records that verified.
func OpenJournal(path string) (*Journal, error) {
	j := &Journal{done: make(map[int]json.RawMessage)}
	var kept [][]byte
	var err error
	j.log, err = atomicio.OpenLog(path, func(line []byte) error {
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return err
		}
		j.done[rec.Job] = rec.Result
		kept = append(kept, line)
		return nil
	})
	if errors.Is(err, atomicio.ErrCorrupt) {
		err = j.log.Rewrite(kept)
	}
	if err != nil {
		return nil, fmt.Errorf("runner: opening journal %s: %w", path, err)
	}
	return j, nil
}

// Len returns how many completed jobs the journal holds.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.done)
}

// Close closes the underlying file. Records already appended stay on disk.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.log.Close()
}

// Restore decodes job's recorded result into out. It returns false when the
// journal has no record for the job; an error means the record exists but
// does not decode into out (a schema change — the caller recomputes).
func (j *Journal) Restore(job int, out any) (bool, error) {
	j.mu.Lock()
	raw, ok := j.done[job]
	j.mu.Unlock()
	if !ok {
		return false, nil
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return false, fmt.Errorf("runner: journal record for job %d: %w", job, err)
	}
	return true, nil
}

// Record appends job's result to the journal. The record is written and
// synced before Record returns, so a crash immediately after cannot lose
// the job. The result is encoded once: json.Marshal's output is already
// compact, so the record line is written around it as it stands, the
// bytes json.Marshal(journalRecord{...}) would give.
func (j *Journal) Record(job int, result any) error {
	raw, err := json.Marshal(result)
	if err != nil {
		return fmt.Errorf("runner: encoding journal record for job %d: %w", job, err)
	}
	line := make([]byte, 0, len(raw)+40)
	line = append(line, `{"job":`...)
	line = strconv.AppendInt(line, int64(job), 10)
	line = append(line, `,"result":`...)
	line = append(line, raw...)
	line = append(line, '}')
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appendLocked([][]byte{line}, []journalRecord{{Job: job, Result: raw}})
}

// RecordBatch appends results[i] as job first+i's JSON-encoded result for
// every job of the batch the journal does not hold yet, all with one write
// and one sync, so a batch costs one fsync however many records it holds.
// They are durable when RecordBatch returns. A held job keeps its record:
// a unit is a pure function of its index, so a second copy would only grow
// the file, and a batch the journal holds whole writes nothing. Each
// result is compacted into its record, so bytes from elsewhere (a worker's
// upload) cannot break the log's line framing.
func (j *Journal) RecordBatch(first int, results []json.RawMessage) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	var (
		lines [][]byte
		recs  []journalRecord
	)
	for i, raw := range results {
		rec := journalRecord{Job: first + i, Result: raw}
		if _, held := j.done[rec.Job]; held {
			continue
		}
		line, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("runner: encoding journal record for job %d: %w", rec.Job, err)
		}
		lines, recs = append(lines, line), append(recs, rec)
	}
	if len(recs) == 0 {
		return nil
	}
	return j.appendLocked(lines, recs)
}

// appendLocked writes lines, the encoded recs, with one write and one
// sync, then holds each record's result. j.mu is held.
func (j *Journal) appendLocked(lines [][]byte, recs []journalRecord) error {
	if err := j.log.Append(lines, true); err != nil {
		return fmt.Errorf("runner: appending journal records from job %d: %w", recs[0].Job, err)
	}
	for _, rec := range recs {
		j.done[rec.Job] = rec.Result
	}
	return nil
}

// Records returns the recorded results of jobs [from, to), in job order,
// as the JSON bytes the journal holds. It fails naming the first job it
// has no record for.
func (j *Journal) Records(from, to int) ([]json.RawMessage, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]json.RawMessage, 0, to-from)
	for job := from; job < to; job++ {
		raw, ok := j.done[job]
		if !ok {
			return nil, fmt.Errorf("runner: journal lacks job %d of [%d, %d)", job, from, to)
		}
		out = append(out, raw)
	}
	return out, nil
}

// Lacks returns, in ascending order, the jobs of [from, to) the journal
// holds no record for: the jobs a resumed fan-out over that range will
// compute. A record that no longer decodes into the result type counts as
// held, though Map recomputes its job.
func (j *Journal) Lacks(from, to int) []int {
	j.mu.Lock()
	defer j.mu.Unlock()
	var out []int
	for job := from; job < to; job++ {
		if _, ok := j.done[job]; !ok {
			out = append(out, job)
		}
	}
	return out
}
