package topology_test

import (
	"testing"

	"pseudosphere/internal/asyncmodel"
	"pseudosphere/internal/topology"
)

// TestSlotTagCollisionsResolve builds A^1 n=4 f=2 (248,831 simplexes)
// and requires its index to hold at least one pair of entries with equal
// 32-bit slot tags: with that many entries the birthday bound makes
// several pairs all but certain, and since hashIDs and the insertion
// order are fixed the set of pairs is deterministic. Both members of
// every pair must still be found as themselves, so equal tags are
// resolved by comparing ids, never by trusting the tag.
func TestSlotTagCollisionsResolve(t *testing.T) {
	res, err := asyncmodel.OneRound(diffInput(4), asyncmodel.Params{N: 4, F: 2})
	if err != nil {
		t.Fatal(err)
	}
	c := res.Complex
	if c.Size() != 248831 {
		t.Fatalf("A^1 n=4 f=2 has %d simplexes, want 248831", c.Size())
	}
	pairs := topology.SlotTagPairs(c)
	if len(pairs) == 0 {
		t.Fatal("no two entries share a slot tag; the collision path is untested")
	}
	for _, p := range pairs {
		for _, ei := range p {
			if got := topology.FindEntry(c, ei); got != ei {
				t.Fatalf("tag pair %v: entry %d found as %d", p, ei, got)
			}
		}
	}
	t.Logf("%d tag-collision pairs", len(pairs))
}
