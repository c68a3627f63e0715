package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"bankaware/internal/atomicio"
)

// shardPlanVersion versions the on-disk shard plan encoding.
const shardPlanVersion = "bankaware.shard-plan/v1"

// Shard lease states. A shard is pending until a worker leases it, leased
// while a worker holds an unexpired lease, and done once a structurally
// valid partial result is stored — done is terminal and durable (the
// partial file is the proof).
const (
	ShardPending = "pending"
	ShardLeased  = "leased"
	ShardDone    = "done"
)

// shardWALCompactBytes is the floor of a shard WAL's compaction threshold
// (atomicio.Log.Due). Lease grants and renewals append one line each, so a
// long-running campaign's WAL is dominated by renewals; compaction keeps
// one line per shard (its current state). A variable only so tests can
// shrink it.
var shardWALCompactBytes int64 = 256 << 10

// shardPlan is the durable decomposition of one campaign job into shards.
type shardPlan struct {
	Version string      `json:"version"`
	Job     string      `json:"job"`
	Units   int         `json:"units"`
	Shards  []shardSpan `json:"shards"`
}

// shardSpan is one shard's unit range [From, To).
type shardSpan struct {
	Index int `json:"index"`
	From  int `json:"from"`
	To    int `json:"to"`
}

// shardWALRecord is one shard state transition appended to state.wal.
// DeadlineNS is the lease deadline as Unix nanoseconds (zero when not
// leased); Attempts counts lease grants so far.
type shardWALRecord struct {
	Shard      int    `json:"shard"`
	State      string `json:"state"`
	Worker     string `json:"worker,omitempty"`
	Lease      string `json:"lease,omitempty"`
	DeadlineNS int64  `json:"deadlineNs,omitempty"`
	Attempts   int    `json:"attempts,omitempty"`
	// Sum is the unitsSum of the stored partial, recorded on the done
	// transition so later reads (merge, scrub) can verify the partial file
	// against the hash that was checked at upload time.
	Sum string `json:"sum,omitempty"`
}

// shardDir is one distributed job's durable shard state under
// <store>/shards/<jobID>/: the WAL (state.wal: the plan, then the lease
// transitions, compacted geometrically) and one partial-result file per
// completed shard (partial-<index>.json, written atomically — its presence
// is the durable "done" marker). A coordinator restarted mid-campaign
// reloads both and continues: done shards keep their partials, unexpired
// leases keep their workers, and everything else re-queues.
type shardDir struct {
	dir  string
	plan shardPlan

	// Unsynchronised: the coordinator serialises all access behind its own
	// lock, so the shardDir only guards its file handles' lifecycle.
	wal    *atomicio.Log
	states map[int]shardWALRecord
}

// shardDirPath returns where job's shard state lives under the store root.
func (s *Store) shardDirPath(job string) string {
	return filepath.Join(s.dir, "shards", job)
}

// openShardDir loads (or initialises) the shard state for one job. mkplan
// builds the plan on first open; a reopened dir keeps its stored plan so a
// config change between restarts cannot re-shard a half-finished campaign.
// A dir that lost its plan line is quarantined whole and re-planned: no
// partial may be read under a plan it was not cut under.
func openShardDir(dir string, mkplan func() shardPlan) (*shardDir, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: initialising shard dir: %w", err)
	}
	d := &shardDir{dir: dir, states: make(map[int]shardWALRecord)}
	// A corrupt WAL keeps its verified states (a shard whose state was lost
	// is pending); compaction below quarantines the damaged file.
	var err error
	d.wal, err = atomicio.OpenLog(d.walPath(), d.fold)
	if err != nil && !errors.Is(err, atomicio.ErrCorrupt) {
		return nil, fmt.Errorf("service: opening shard WAL: %w", err)
	}
	// A dir written before the plan moved into the WAL keeps it in plan.json.
	legacyPlan := filepath.Join(dir, "plan.json")
	if d.plan.Version == "" {
		data, rerr := os.ReadFile(legacyPlan)
		switch {
		case rerr == nil:
			if err := d.fold(data); err != nil || d.plan.Version == "" {
				return nil, fmt.Errorf("service: shard plan %s is no %s plan: %v", dir, shardPlanVersion, err)
			}
		case !os.IsNotExist(rerr):
			return nil, fmt.Errorf("service: reading shard plan: %w", rerr)
		case err != nil || len(d.states) > 0:
			if err := os.Rename(dir, dir+".quarantine"); err != nil {
				return nil, fmt.Errorf("service: quarantining shard dir that lost its plan: %w", err)
			}
			return openShardDir(dir, mkplan)
		default:
			d.plan = mkplan()
		}
	}
	// Partial files are the durable truth for completion: a partial written
	// after the last WAL sync still counts, and a WAL "done" without its
	// partial (impossible in-order, but crash-tolerated) falls back to the
	// lease state so the shard re-runs.
	for _, span := range d.plan.Shards {
		if _, err := os.Stat(d.partialPath(span.Index)); err == nil {
			d.states[span.Index] = shardWALRecord{Shard: span.Index, State: ShardDone,
				Attempts: d.states[span.Index].Attempts, Sum: d.states[span.Index].Sum}
		} else if st, ok := d.states[span.Index]; ok && st.State == ShardDone {
			st.State = ShardPending
			st.Lease, st.Worker, st.DeadlineNS = "", "", 0
			d.states[span.Index] = st
		}
	}
	if err := d.compact(); err != nil {
		return nil, err
	}
	if err := os.Remove(legacyPlan); err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("service: removing imported shard plan: %w", err)
	}
	return d, nil
}

// fold applies one state.wal line. The plan line, the only one with a
// version, sets d.plan; of the shard transitions the last per shard wins.
func (d *shardDir) fold(line []byte) error {
	var rec struct {
		shardPlan
		shardWALRecord
	}
	if err := json.Unmarshal(line, &rec); err != nil {
		return err
	}
	switch {
	case rec.Version == "":
		d.states[rec.Shard] = rec.shardWALRecord
	case rec.Version != shardPlanVersion || len(rec.Shards) == 0:
		return fmt.Errorf("service: shard plan has version %q", rec.Version)
	default:
		d.plan = rec.shardPlan
	}
	return nil
}

func (d *shardDir) walPath() string { return filepath.Join(d.dir, "state.wal") }

func (d *shardDir) partialPath(idx int) string {
	return filepath.Join(d.dir, fmt.Sprintf("partial-%d.json", idx))
}

// state returns the folded WAL state for one shard (zero record when the
// shard has never transitioned, i.e. pending).
func (d *shardDir) state(idx int) shardWALRecord {
	st, ok := d.states[idx]
	if !ok {
		return shardWALRecord{Shard: idx, State: ShardPending}
	}
	return st
}

// log appends one transition to the WAL (synced, so a granted lease
// survives a coordinator crash) and folds it into the current state,
// compacting once the log outgrows its threshold.
func (d *shardDir) log(rec shardWALRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("service: encoding shard WAL record: %w", err)
	}
	if err := d.wal.Append([][]byte{line}, true); err != nil {
		return fmt.Errorf("service: appending shard WAL: %w", err)
	}
	d.states[rec.Shard] = rec
	if d.wal.Due(shardWALCompactBytes) {
		// The transition is durable; a failed compaction only costs space.
		_ = d.compact()
	}
	return nil
}

// compact rewrites the WAL down to the plan, first, and one line per
// transitioned shard.
func (d *shardDir) compact() error {
	idxs := make([]int, 0, len(d.states))
	for idx := range d.states {
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	plan, err := json.Marshal(d.plan)
	if err != nil {
		return err
	}
	lines := [][]byte{plan}
	for _, idx := range idxs {
		line, err := json.Marshal(d.states[idx])
		if err != nil {
			return err
		}
		lines = append(lines, line)
	}
	if err := d.wal.Rewrite(lines); err != nil {
		return fmt.Errorf("service: compacting shard WAL: %w", err)
	}
	return nil
}

// shardPartial is the stored form of one shard's uploaded results.
type shardPartial struct {
	Shard int               `json:"shard"`
	Units []json.RawMessage `json:"units"`
}

// savePartial persists one shard's unit results atomically, then logs the
// done transition carrying the payload hash. Write order matters: the
// partial file is the durable completion marker, the WAL line only an
// accelerant.
func (d *shardDir) savePartial(idx int, units []json.RawMessage, worker string, attempts int) error {
	data, err := json.Marshal(shardPartial{Shard: idx, Units: units})
	if err != nil {
		return fmt.Errorf("service: encoding partial for shard %d: %w", idx, err)
	}
	if err := atomicio.WriteFileBytes(d.partialPath(idx), data); err != nil {
		return fmt.Errorf("service: persisting partial for shard %d: %w", idx, err)
	}
	return d.log(shardWALRecord{Shard: idx, State: ShardDone, Worker: worker,
		Attempts: attempts, Sum: unitsSum(units)})
}

// corruptPartialError signals that a stored partial failed verification at
// merge time and was quarantined; the shard must re-run.
type corruptPartialError struct {
	shard int
	cause string
}

func (e *corruptPartialError) Error() string {
	return fmt.Sprintf("service: partial for shard %d corrupt: %s (quarantined)", e.shard, e.cause)
}

func (e *corruptPartialError) Unwrap() error { return ErrCorrupt }

// loadPartial reads one stored partial back and verifies it: structure
// first, then the payload hash against the sum the WAL recorded at upload
// time (when present — partials written before hashing verify structurally
// only). A failed partial is quarantined and reported as
// *corruptPartialError so the coordinator re-queues the shard instead of
// failing the job.
func (d *shardDir) loadPartial(idx int) ([]json.RawMessage, error) {
	data, err := os.ReadFile(d.partialPath(idx))
	if err != nil {
		return nil, err
	}
	var p shardPartial
	corrupt := func(cause string) ([]json.RawMessage, error) {
		if qerr := quarantineFile(d.partialPath(idx)); qerr != nil {
			return nil, fmt.Errorf("service: partial for shard %d corrupt (%s), quarantine failed: %v",
				idx, cause, qerr)
		}
		return nil, &corruptPartialError{shard: idx, cause: cause}
	}
	if err := json.Unmarshal(data, &p); err != nil {
		return corrupt(fmt.Sprintf("decoding: %v", err))
	}
	if p.Shard != idx || len(p.Units) == 0 {
		return corrupt("inconsistent shard index or empty units")
	}
	if want := d.state(idx).Sum; want != "" {
		if got := unitsSum(p.Units); got != want {
			return corrupt(fmt.Sprintf("payload hashes to %s, upload recorded %s", got, want))
		}
	}
	return p.Units, nil
}

// remove deletes the whole shard dir (terminal cleanup after merge or
// cancel).
func (d *shardDir) remove() error {
	d.wal.Close()
	return os.RemoveAll(d.dir)
}

// leaseDeadline converts a TTL from now into the WAL's representation.
func leaseDeadline(now time.Time, ttl time.Duration) int64 {
	return now.Add(ttl).UnixNano()
}
