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
	"bankaware/internal/runner"
)

// shardPlanVersion versions the on-disk shard plan encoding.
const shardPlanVersion = "bankaware.shard-plan/v1"

// Shard lease states. A shard is pending until a worker leases it, leased
// while a worker holds an unexpired lease, and done once the job's unit
// journal holds every unit of its span — done is terminal and durable (the
// journaled units are the proof).
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
}

// shardDir is one distributed job's lease state under
// <store>/shards/<jobID>/state.wal: the plan, then the lease transitions,
// compacted geometrically. The shards' results live in the job's unit
// journal, which decides which shards are done. A coordinator restarted
// mid-campaign reloads both and continues: done shards stay done, unexpired
// leases keep their workers, and everything else re-queues.
type shardDir struct {
	dir   string
	plan  shardPlan
	units *runner.Journal // the job's unit journal, keyed by unit index

	// Unsynchronised: the coordinator serialises all access behind its own
	// lock, so the shardDir only guards its file handle's lifecycle.
	wal    *atomicio.Log
	states map[int]shardWALRecord
}

// shardDirPath returns where job's shard state lives under the store root.
func (s *Store) shardDirPath(job string) string {
	return filepath.Join(s.dir, "shards", job)
}

// openShardDir loads (or initialises) the lease state for one job whose
// finished units live in units. mkplan builds the plan on first open; a
// reopened dir keeps its stored plan so a config change between restarts
// cannot re-shard a half-finished campaign. A dir that lost its plan line
// is quarantined whole and re-planned.
func openShardDir(dir string, units *runner.Journal, mkplan func() shardPlan) (*shardDir, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: initialising shard dir: %w", err)
	}
	d := &shardDir{dir: dir, units: units, states: make(map[int]shardWALRecord)}
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
			d.wal.Close()
			if err := os.Rename(dir, dir+".quarantine"); err != nil {
				return nil, fmt.Errorf("service: quarantining shard dir that lost its plan: %w", err)
			}
			return openShardDir(dir, units, mkplan)
		default:
			d.plan = mkplan()
		}
	}
	// The journal is the durable truth for completion: a shard whose units
	// it holds is done whatever the WAL last said, and a WAL "done" whose
	// units it lacks (lost to corruption, or written to a partial-*.json
	// file by an older version) goes back to pending and re-runs.
	for _, span := range d.plan.Shards {
		st := d.state(span.Index)
		switch {
		case len(units.Lacks(span.From, span.To)) == 0:
			d.states[span.Index] = shardWALRecord{Shard: span.Index, State: ShardDone, Attempts: st.Attempts}
		case st.State == ShardDone:
			d.states[span.Index] = shardWALRecord{Shard: span.Index, State: ShardPending, Attempts: st.Attempts}
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
// version, sets d.plan once its shards tile its units in index order; of
// the shard transitions the last per shard wins.
func (d *shardDir) fold(line []byte) error {
	var rec struct {
		shardPlan
		shardWALRecord
	}
	if err := json.Unmarshal(line, &rec); err != nil {
		return err
	}
	switch {
	case rec.Version == "" && rec.State != ShardPending && rec.State != ShardLeased && rec.State != ShardDone:
		return fmt.Errorf("service: shard %d has state %q", rec.Shard, rec.State)
	case rec.Version == "":
		d.states[rec.Shard] = rec.shardWALRecord
	case rec.Version != shardPlanVersion:
		return fmt.Errorf("service: shard plan has version %q", rec.Version)
	default:
		next := 0
		for i, span := range rec.Shards {
			if span.Index != i || span.From != next || span.To <= next {
				return fmt.Errorf("service: shard plan's shard %d is [%d, %d)", i, span.From, span.To)
			}
			next = span.To
		}
		if next == 0 || next != rec.Units {
			return fmt.Errorf("service: shard plan tiles %d of %d units", next, rec.Units)
		}
		d.plan = rec.shardPlan
	}
	return nil
}

func (d *shardDir) walPath() string { return filepath.Join(d.dir, "state.wal") }

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

// complete journals one shard's uploaded units with one synced append,
// then logs the done transition.
func (d *shardDir) complete(span shardSpan, units []json.RawMessage, worker string, attempts int) error {
	if err := d.units.RecordBatch(span.From, units); err != nil {
		return err
	}
	return d.log(shardWALRecord{Shard: span.Index, State: ShardDone, Worker: worker, Attempts: attempts})
}

// journaledUnits returns the campaign's units, in unit order, from the
// journal. Once every shard is done it holds them all.
func (d *shardDir) journaledUnits() ([]json.RawMessage, error) {
	out := make([]json.RawMessage, d.plan.Units)
	for u := range out {
		if ok, err := d.units.Restore(u, &out[u]); !ok || err != nil {
			return nil, fmt.Errorf("service: unit journal lacks unit %d of %d (%v)", u, d.plan.Units, err)
		}
	}
	return out, nil
}

// leaseDeadline converts a TTL from now into the WAL's representation.
func leaseDeadline(now time.Time, ttl time.Duration) int64 {
	return now.Add(ttl).UnixNano()
}
