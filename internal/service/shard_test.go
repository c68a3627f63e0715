package service

import (
	"bytes"
	"context"
	"fmt"
	"testing"
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
		{JobSpec{Kind: KindSet, Observe: true, SimWorkers: 2, Set: &SetSpec{Set: 2, EpochCycles: 200_000, Instructions: 150_000}}, 0, 3},
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
		})
	}
}
