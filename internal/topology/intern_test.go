package topology

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// SlotTagPairs and FindEntry expose the open-addressing index to the
// external tests, which build real round complexes (the model packages
// import topology, so only an external test can use them).

// SlotTagPairs returns every pair of entries of c whose slots carry equal
// 32-bit tags, in no particular order.
func SlotTagPairs(c *Complex) [][2]int32 {
	byTag := make(map[uint64][]int32)
	for _, s := range c.slots {
		if s != 0 {
			byTag[s>>32] = append(byTag[s>>32], int32(uint32(s)-1))
		}
	}
	var pairs [][2]int32
	for _, group := range byTag {
		for i := range group {
			for j := i + 1; j < len(group); j++ {
				pairs = append(pairs, [2]int32{group[i], group[j]})
			}
		}
	}
	return pairs
}

// FindEntry looks entry ei's own ids up through the index.
func FindEntry(c *Complex, ei int32) int32 {
	ids := c.entryIDs(ei)
	return c.find(ids, hashIDs(ids))
}

// TestCloneGrowsApart grows a complex and its clone with different
// simplexes: a backing array the two shared would let one complex's
// appends overwrite the other's ids.
func TestCloneGrowsApart(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	labels := []string{"a", "b", "c"}
	c, refC := NewComplex(), NewReferenceComplex()
	for i := 0; i < 60; i++ {
		s := randomSimplex(rng, 5, labels)
		c.Add(s)
		refC.Add(s)
	}
	d := c.Clone()
	refD := NewReferenceComplex()
	for _, s := range c.AllSimplices() {
		refD.Add(s)
	}
	more := []string{"x", "y", "z"}
	for i := 0; i < 60; i++ {
		s := randomSimplex(rng, 5, labels)
		c.Add(s)
		refC.Add(s)
		u := randomSimplex(rng, 5, more)
		d.Add(u)
		refD.Add(u)
	}
	for _, tc := range []struct {
		name string
		c    *Complex
		ref  *ReferenceComplex
	}{{"original", c, refC}, {"clone", d, refD}} {
		if !tc.c.Equal(tc.ref.ToComplex()) {
			t.Fatalf("%s no longer equals its reference", tc.name)
		}
		if tc.c.CanonicalHash() != tc.ref.CanonicalHash() {
			t.Fatalf("%s: canonical hash differs from its reference", tc.name)
		}
	}
}

// TestIndexInvariants checks the slot array after random growth: load at
// most 1/2, one slot per entry, and every entry found at its own index.
func TestIndexInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := NewComplex()
	for i := 0; i < 200; i++ {
		c.Add(randomSimplex(rng, 7, []string{"a", "b", "c", "d"}))
	}
	if n := len(c.slots); n&(n-1) != 0 || 2*c.size() > n {
		t.Fatalf("%d slots for %d entries: want a power of two at load <= 1/2", n, c.size())
	}
	used := 0
	for _, s := range c.slots {
		if s != 0 {
			used++
		}
	}
	if used != c.size() {
		t.Fatalf("%d occupied slots for %d entries", used, c.size())
	}
	for ei := int32(0); ei < int32(c.size()); ei++ {
		if got := FindEntry(c, ei); got != ei {
			t.Fatalf("entry %d found as %d", ei, got)
		}
	}
}

// TestCheckLimits pins the overflow guards on the entry count and the
// arena length, which no test can reach by real insertion.
func TestCheckLimits(t *testing.T) {
	for _, tc := range []struct {
		entries, arena, n int
		want              string // panic message fragment; "" for none
	}{
		{0, 0, 3, ""},
		{maxEntries - 1, maxArenaIDs - 3, 3, ""},
		{maxEntries, 0, 1, "2^31-1"},
		{0, maxArenaIDs - 2, 3, "2^32-1"},
	} {
		t.Run(fmt.Sprintf("%d/%d/%d", tc.entries, tc.arena, tc.n), func(t *testing.T) {
			defer func() {
				r := recover()
				msg, _ := r.(string)
				switch {
				case tc.want == "" && r != nil:
					t.Fatalf("unexpected panic %v", r)
				case tc.want != "" && !strings.Contains(msg, tc.want):
					t.Fatalf("panic %v, want one naming %s", r, tc.want)
				}
			}()
			checkLimits(tc.entries, tc.arena, tc.n)
		})
	}
}
