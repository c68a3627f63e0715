package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"bankaware/internal/atomicio"
	"bankaware/internal/runner"
)

// A unit range runs its units on one shared evaluation scope per set, and
// each unit must encode exactly as the one-unit range computing it alone
// does: a set job's [0, 3), and an experiments range crossing two set
// boundaries.
func TestShardRangeMatchesSingleUnitRanges(t *testing.T) {
	if testing.Short() {
		t.Skip("detailed simulation in -short mode")
	}
	for _, tc := range []struct {
		spec     JobSpec
		from, to int
	}{
		{JobSpec{Kind: KindSet, Observe: true, Set: &SetSpec{Set: 2, EpochCycles: 200_000, Instructions: 150_000}}, 0, 3},
		{JobSpec{Kind: KindExperiments, Seed: 7, Experiments: &ExperimentsSpec{Instructions: 40_000}}, 2, 7},
	} {
		t.Run(fmt.Sprintf("%s[%d,%d)", tc.spec.Kind, tc.from, tc.to), func(t *testing.T) {
			ctx := context.Background()
			whole, err := executeShardUnits(ctx, tc.spec, tc.from, tc.to, shardOptions{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			for u := tc.from; u < tc.to; u++ {
				one, err := executeShardUnits(ctx, tc.spec, u, u+1, shardOptions{Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(whole[u-tc.from], one[0]) {
					t.Errorf("unit %d differs between the shared range and its own range", u)
				}
			}

			// Resumed with its first two units journaled, the range
			// computes only the rest and returns the same units.
			journal, err := runner.OpenJournal(filepath.Join(t.TempDir(), "units.journal"))
			if err != nil {
				t.Fatal(err)
			}
			defer journal.Close()
			if err := journal.RecordBatch(0, whole[:2]); err != nil {
				t.Fatal(err)
			}
			computed := 0
			resumed, err := executeShardUnits(ctx, tc.spec, tc.from, tc.to, shardOptions{
				Workers: 2, Journal: journal,
				Progress: func(p runner.Progress) {
					if p.Kind == runner.JobDone && p.Elapsed > 0 {
						computed++
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if computed != tc.to-tc.from-2 {
				t.Errorf("resumed range computed %d units, want the %d it lacked", computed, tc.to-tc.from-2)
			}
			for i := range whole {
				if !bytes.Equal(resumed[i], whole[i]) {
					t.Errorf("unit %d differs between the resumed range and the whole one", tc.from+i)
				}
			}
		})
	}
}

// A range plans shared streams for the units its journal lacks, which the
// journal keys by their offset within the range.
func TestShardRangePendingUnits(t *testing.T) {
	if got := (shardOptions{}).pending(3, 6); !reflect.DeepEqual(got, []int{3, 4, 5}) {
		t.Fatalf("without a journal the range computes %v, want [3 4 5]", got)
	}
	journal, err := runner.OpenJournal(filepath.Join(t.TempDir(), "units.journal"))
	if err != nil {
		t.Fatal(err)
	}
	defer journal.Close()
	if err := journal.RecordBatch(0, []json.RawMessage{json.RawMessage(`{}`), json.RawMessage(`{}`)}); err != nil {
		t.Fatal(err)
	}
	if got := (shardOptions{Journal: journal}).pending(3, 6); !reflect.DeepEqual(got, []int{5}) {
		t.Fatalf("with offsets 0 and 1 journaled the range computes %v, want [5]", got)
	}
	if got := (shardOptions{Journal: journal}).pending(0, 2); len(got) != 0 {
		t.Fatalf("a fully journaled range computes %v, want nothing", got)
	}
}

// A range run with a journal returns the units' bytes as the journal
// records or restores them. They must be the bytes a range run without a
// journal returns, both fresh and resumed from a journal that an
// interrupted run of the range's first half filled: for a fast set range
// and a Monte Carlo range. Each journal record must be exactly
// {"job":offset,"result":<the unit's bytes>}, so a unit journaled by any
// version that writes that line resumes into the same bytes.
func TestJournaledRangeReturnsRecordedUnits(t *testing.T) {
	for _, tc := range []struct {
		spec     JobSpec
		from, to int
	}{
		{JobSpec{Kind: KindSet, Fidelity: "fast", Observe: true, Seed: 1, Set: &SetSpec{Set: 1, Instructions: 300_000}}, 0, 3},
		{mcSpec(20, 0), 6, 16},
	} {
		t.Run(fmt.Sprintf("%s[%d,%d)", tc.spec.Kind, tc.from, tc.to), func(t *testing.T) {
			ctx := context.Background()
			want, err := executeShardUnits(ctx, tc.spec, tc.from, tc.to, shardOptions{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			run := func(journal *runner.Journal, to int) []json.RawMessage {
				t.Helper()
				units, err := executeShardUnits(ctx, tc.spec, tc.from, to, shardOptions{Workers: 2, Journal: journal})
				if err != nil {
					t.Fatal(err)
				}
				return units
			}
			open := func() (*runner.Journal, string) {
				t.Helper()
				path := filepath.Join(t.TempDir(), "units.journal")
				journal, err := runner.OpenJournal(path)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { journal.Close() })
				return journal, path
			}
			freshJournal, freshPath := open()
			fresh := run(freshJournal, tc.to)
			// The journal keys units by their offset in the range, so a run
			// of [from, half) fills the first half of [from, to).
			half, halfPath := open()
			run(half, tc.from+(tc.to-tc.from)/2)
			resumed := run(half, tc.to)
			for path, units := range map[string][]json.RawMessage{freshPath: fresh, halfPath: resumed} {
				recorded := make(map[int]bool)
				err := atomicio.Replay(path, func(rec []byte) error {
					var key struct {
						Job int `json:"job"`
					}
					if err := json.Unmarshal(rec, &key); err != nil {
						return err
					}
					if key.Job < 0 || key.Job >= len(units) || recorded[key.Job] {
						return fmt.Errorf("unexpected journal record %s", rec)
					}
					recorded[key.Job] = true
					if want := fmt.Sprintf(`{"job":%d,"result":%s}`, key.Job, units[key.Job]); string(rec) != want {
						t.Errorf("journal record for unit %d\n got %.120s\nwant %.120s", tc.from+key.Job, rec, want)
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if len(recorded) != len(units) {
					t.Errorf("journal holds %d records, want one per unit (%d)", len(recorded), len(units))
				}
			}
			for name, got := range map[string][]json.RawMessage{"fresh": fresh, "resumed": resumed} {
				if len(got) != len(want) {
					t.Fatalf("%s range returned %d units, want %d", name, len(got), len(want))
				}
				for i := range want {
					if !bytes.Equal(got[i], want[i]) {
						t.Errorf("%s range: unit %d is not its typed result's encoding\n got %.120s\nwant %.120s", name, tc.from+i, got[i], want[i])
					}
				}
			}
		})
	}
}
