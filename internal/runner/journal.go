package runner

import (
	"encoding/json"
	"errors"
	"fmt"
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
// the job.
func (j *Journal) Record(job int, result any) error {
	raw, err := json.Marshal(result)
	if err != nil {
		return fmt.Errorf("runner: encoding journal record for job %d: %w", job, err)
	}
	line, err := json.Marshal(journalRecord{Job: job, Result: raw})
	if err != nil {
		return fmt.Errorf("runner: encoding journal record for job %d: %w", job, err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.log.Append([][]byte{line}, true); err != nil {
		return fmt.Errorf("runner: appending journal record for job %d: %w", job, err)
	}
	j.done[job] = raw
	return nil
}
