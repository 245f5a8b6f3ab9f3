package topology

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
)

// The describe paths (Facets, AllSimplices, Simplices, CanonicalHash)
// order simplexes over interned ids through a rank table. These tests pin
// them to the string-keyed oracle: ReferenceComplex for the digest and
// the Key()-sorted order the string-keyed core produced for the lists,
// on vertices chosen to break a naive rank order — labels that are
// token prefixes of each other, labels holding the key separators, empty
// labels, and process ids whose decimal forms prefix each other.

// adversarialLabels are labels whose "P:Label" tokens prefix each other
// or contain the characters keys are built from.
var adversarialLabels = []string{
	"", "v1", "v10", "v100", "v1|", "a", "a|b", "a|1:b", "a;", "x;1:y", ":", "|", ";", "1", "10", "1:", "|0:",
}

var adversarialPIDs = []int{0, 1, 2, 10, 100}

// keyOrderOracle is the string-keyed order: by dimension (when byDim),
// then by Key.
func keyOrderOracle(ss []Simplex, byDim bool) []string {
	keys := make([]Simplex, len(ss))
	copy(keys, ss)
	sort.SliceStable(keys, func(i, j int) bool {
		if byDim && len(keys[i]) != len(keys[j]) {
			return len(keys[i]) < len(keys[j])
		}
		return keys[i].Key() < keys[j].Key()
	})
	return keysOf(keys)
}

func keysOf(ss []Simplex) []string {
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = fmt.Sprintf("%d/%s", len(s), s.Key())
	}
	return out
}

// facetsOf returns the simplexes of ss no other simplex of ss strictly
// contains.
func facetsOf(ss []Simplex) []Simplex {
	var out []Simplex
	for _, s := range ss {
		maximal := true
		for _, t := range ss {
			if len(t) > len(s) && s.IsFaceOf(t) {
				maximal = false
				break
			}
		}
		if maximal {
			out = append(out, s)
		}
	}
	return out
}

// keySortedHash is the string-keyed digest: every simplex's Key rendered,
// sorted with sort.Strings, and hashed as "len:key;".
func keySortedHash(ss []Simplex) string {
	keys := make([]string, len(ss))
	for i, s := range ss {
		keys[i] = s.Key()
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%d:%s;", len(k), k)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// entrySimplices lists c's simplexes in insertion order, bypassing every
// describe path under test.
func entrySimplices(c *Complex) []Simplex {
	out := make([]Simplex, c.EntryCount())
	for i := range out {
		out[i] = c.EntrySimplex(int32(i))
	}
	return out
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// compareDescribe checks every describe path of c against the
// string-keyed oracles. ReferenceComplex stores simplexes by Key, so two
// distinct simplexes whose keys render equal ({0:"a|1:b"} and
// {0:"a", 1:"b"}) are one simplex there; its digest is compared whenever
// no such pair exists, and the Key-sorted digest over c's own simplexes
// always.
func compareDescribe(t *testing.T, ctx string, c *Complex, ref *ReferenceComplex) {
	t.Helper()
	all := entrySimplices(c)
	if got, want := c.CanonicalHash(), keySortedHash(all); got != want {
		t.Fatalf("%s: CanonicalHash %s != Key-sorted digest %s", ctx, got, want)
	}
	if ref.Size() == c.Size() {
		if got, want := c.CanonicalHash(), ref.CanonicalHash(); got != want {
			t.Fatalf("%s: CanonicalHash %s != reference %s", ctx, got, want)
		}
	}
	if got, want := keysOf(c.AllSimplices()), keyOrderOracle(all, true); !sameStrings(got, want) {
		t.Fatalf("%s: AllSimplices order\n got %q\nwant %q", ctx, got, want)
	}
	facets := facetsOf(all)
	if got, want := keysOf(c.Facets()), keyOrderOracle(facets, true); !sameStrings(got, want) {
		t.Fatalf("%s: Facets order\n got %q\nwant %q", ctx, got, want)
	}
	if got := c.FacetCount(); got != len(facets) {
		t.Fatalf("%s: FacetCount %d, want %d", ctx, got, len(facets))
	}
	for d := 0; d <= c.Dim(); d++ {
		var ofDim []Simplex
		for _, s := range all {
			if s.Dim() == d {
				ofDim = append(ofDim, s)
			}
		}
		if got, want := keysOf(c.Simplices(d)), keyOrderOracle(ofDim, false); !sameStrings(got, want) {
			t.Fatalf("%s: Simplices(%d) order\n got %q\nwant %q", ctx, d, got, want)
		}
	}
}

func adversarialSimplex(rng *rand.Rand) Simplex {
	n := 1 + rng.Intn(len(adversarialPIDs))
	verts := make([]Vertex, 0, n)
	for _, i := range rng.Perm(len(adversarialPIDs))[:n] {
		verts = append(verts, Vertex{P: adversarialPIDs[i], Label: adversarialLabels[rng.Intn(len(adversarialLabels))]})
	}
	return mustSimplex(verts...)
}

func TestDescribeMatchesStringOrderOnAdversarialLabels(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c, ref := NewComplex(), NewReferenceComplex()
		for i := 0; i < 1+rng.Intn(12); i++ {
			s := adversarialSimplex(rng)
			c.Add(s)
			ref.Add(s)
		}
		compareDescribe(t, fmt.Sprintf("seed %d", seed), c, ref)
	}
}

// TestDescribePrefixCases spells out the cases the exact comparison path
// exists for, each as a complex small enough to read.
func TestDescribePrefixCases(t *testing.T) {
	cases := map[string][]Simplex{
		"v1 vs v10": {
			mustSimplex(v(0, "v1"), v(1, "x")),
			mustSimplex(v(0, "v10"), v(1, "x")),
			mustSimplex(v(0, "v1"), v(2, "y")),
		},
		"a vs a|b": {
			mustSimplex(v(0, "a"), v(1, "b")),
			mustSimplex(v(0, "a|b")),
			mustSimplex(v(0, "a|1:b"), v(2, "c")),
			mustSimplex(v(0, "a"), v(1, "b"), v(2, "c")),
		},
		"empty labels": {
			mustSimplex(v(0, ""), v(1, "")),
			mustSimplex(v(0, "0"), v(1, "")),
			mustSimplex(v(0, ""), v(1, "1"), v(2, "")),
		},
		"pids 1/10/100": {
			mustSimplex(v(1, "x"), v(10, "x"), v(100, "x")),
			mustSimplex(v(1, "0:x"), v(10, "x")),
			mustSimplex(v(10, ""), v(100, "")),
		},
		"separators in labels": {
			mustSimplex(v(0, "x;1:y")),
			mustSimplex(v(0, "x"), v(1, "y")),
			mustSimplex(v(0, "|"), v(1, ":")),
			mustSimplex(v(0, ";"), v(1, "|")),
		},
	}
	for name, ss := range cases {
		c, ref := NewComplex(), NewReferenceComplex()
		for _, s := range ss {
			c.Add(s)
			ref.Add(s)
		}
		compareDescribe(t, name, c, ref)
	}
}

// fuzzComplex decodes bytes into a list of simplexes over process ids
// {0, 1, 2, 10, 100} and labels drawn from digits and the key
// separators.
func fuzzComplex(data []byte) []Simplex {
	const alphabet = "|:;0123456789"
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	var out []Simplex
	for len(data) > 0 && len(out) < 16 {
		n := 1 + next()%len(adversarialPIDs)
		used := make(map[int]bool)
		var verts []Vertex
		for i := 0; i < n; i++ {
			p := adversarialPIDs[next()%len(adversarialPIDs)]
			label := make([]byte, next()%4)
			for j := range label {
				label[j] = alphabet[next()%len(alphabet)]
			}
			if !used[p] {
				used[p] = true
				verts = append(verts, Vertex{P: p, Label: string(label)})
			}
		}
		out = append(out, mustSimplex(verts...))
	}
	return out
}

func FuzzCanonicalHash(f *testing.F) {
	f.Add([]byte{1, 0, 1, 3, 1, 1, 4, 3, 1, 0})
	f.Add([]byte("v1 v10 a|b ;:"))
	f.Add([]byte{4, 0, 0, 1, 2, 1, 3, 2, 0, 3, 1, 4, 1, 1, 0, 1, 1, 2, 12, 10})
	f.Fuzz(func(t *testing.T, data []byte) {
		c, ref := NewComplex(), NewReferenceComplex()
		for _, s := range fuzzComplex(data) {
			c.Add(s)
			ref.Add(s)
		}
		compareDescribe(t, fmt.Sprintf("%q", data), c, ref)
	})
}

// TestDescribeMemoFollowsGrowth checks that a memoized hash and facet
// count are recomputed after every kind of insertion.
func TestDescribeMemoFollowsGrowth(t *testing.T) {
	c := ComplexOf(mustSimplex(v(0, "a"), v(1, "b")))
	ref := NewReferenceComplex()
	ref.Add(mustSimplex(v(0, "a"), v(1, "b")))
	check := func(step string) {
		t.Helper()
		if got, want := c.CanonicalHash(), ref.CanonicalHash(); got != want {
			t.Fatalf("after %s: hash %s, want %s", step, got, want)
		}
		if got, want := c.FacetCount(), len(facetsOf(ref.AllSimplices())); got != want {
			t.Fatalf("after %s: FacetCount %d, want %d", step, got, want)
		}
	}
	check("construction")

	c.Add(mustSimplex(v(0, "a"), v(1, "b"), v(2, "c")))
	ref.Add(mustSimplex(v(0, "a"), v(1, "b"), v(2, "c")))
	check("Add")

	c.AddClosed(mustSimplex(v(3, "d")))
	ref.Add(mustSimplex(v(3, "d")))
	check("AddClosed")

	d := ComplexOf(mustSimplex(v(2, "c"), v(3, "d")))
	c.UnionWith(d)
	ref.Add(mustSimplex(v(2, "c"), v(3, "d")))
	check("UnionWith")

	c.Add(mustSimplex(v(0, "a"), v(1, "b"))) // already present: no growth
	check("re-Add")
}

// TestCloneStartsWithFreshMemo grows a clone and its original by
// different simplexes to the same entry count: a memo shared between
// them would answer for the wrong complex.
func TestCloneStartsWithFreshMemo(t *testing.T) {
	c := ComplexOf(mustSimplex(v(0, "a"), v(1, "b")))
	c.CanonicalHash()
	c.FacetCount()
	cl := c.Clone()
	cl.Add(mustSimplex(v(2, "x")))
	cl.Add(mustSimplex(v(3, "y")))
	if cl.CanonicalHash() != cl.canonicalHash() || cl.FacetCount() != cl.countFacets() {
		t.Fatal("clone answered from a stale memo")
	}
	c.Add(mustSimplex(v(2, "z")))
	c.Add(mustSimplex(v(3, "w")))
	if c.Size() != cl.Size() {
		t.Fatalf("sizes %d vs %d: the test needs equal entry counts", c.Size(), cl.Size())
	}
	if c.CanonicalHash() != c.canonicalHash() || c.FacetCount() != c.countFacets() {
		t.Fatal("original answered from the clone's memo")
	}
	if c.CanonicalHash() == cl.CanonicalHash() {
		t.Fatal("distinct complexes share a hash")
	}
}

// TestDescribeConcurrentReaders runs the describe paths on one shared
// complex from eight goroutines; under -race it checks the memo's
// locking, and every reader must see the same answers.
func TestDescribeConcurrentReaders(t *testing.T) {
	c := benchComplex(4)
	wantHash, wantCount, wantFacets := c.canonicalHash(), c.countFacets(), keysOf(c.Facets())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if h := c.CanonicalHash(); h != wantHash {
					t.Errorf("hash %s, want %s", h, wantHash)
					return
				}
				if n := c.FacetCount(); n != wantCount {
					t.Errorf("FacetCount %d, want %d", n, wantCount)
					return
				}
				if fs := keysOf(c.Facets()); !sameStrings(fs, wantFacets) {
					t.Error("Facets differ across readers")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestDescribeMemoAllocatesNothing pins that a repeat CanonicalHash or
// FacetCount on an unchanged complex is answered from the memo: the
// engine cache key, the served stats and the rank checkpoint key share
// one computation.
func TestDescribeMemoAllocatesNothing(t *testing.T) {
	c := benchComplex(3)
	c.CanonicalHash()
	c.FacetCount()
	if n := testing.AllocsPerRun(100, func() { c.CanonicalHash() }); n != 0 {
		t.Fatalf("repeat CanonicalHash allocates %v times", n)
	}
	if n := testing.AllocsPerRun(100, func() { c.FacetCount() }); n != 0 {
		t.Fatalf("repeat FacetCount allocates %v times", n)
	}
}

func TestIndexedSimplicesMatchesAllSimplices(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := NewComplex()
	for i := 0; i < 12; i++ {
		c.Add(adversarialSimplex(rng))
	}
	verts, simps := c.IndexedSimplices()
	if got, want := fmt.Sprint(verts), fmt.Sprint(c.Vertices()); got != want {
		t.Fatalf("vertex table %s, want %s", got, want)
	}
	all := c.AllSimplices()
	if len(simps) != len(all) {
		t.Fatalf("%d rows, want %d", len(simps), len(all))
	}
	for i, s := range all {
		row := make(Simplex, len(simps[i]))
		for j, vi := range simps[i] {
			row[j] = verts[vi]
		}
		if row.Key() != s.Key() || len(row) != len(s) {
			t.Fatalf("row %d is %v, want %v", i, row, s)
		}
	}
}

// TestPackedSortMatchesComparator pins the integer-key sort to the
// comparator it replaces on prefix-free labels, where both apply.
func TestPackedSortMatchesComparator(t *testing.T) {
	labels := []string{"a", "b", "c", "x", "y"}
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := NewComplex()
		for i := 0; i < 40; i++ {
			c.Add(randomSimplex(rng, 6, labels))
		}
		o := c.keyOrder()
		if o.prefixEnd != nil {
			t.Fatal("labels are prefix-free; the packed path must apply")
		}
		for _, byDim := range []bool{false, true} {
			cmpIDs := o.cmpKeys
			if byDim {
				cmpIDs = o.cmpDimKey
			}
			got, want := c.allEntries(), c.allEntries()
			c.sortEntries(o, got, byDim)
			slices.SortFunc(want, func(x, y int32) int { return cmpIDs(c.entryIDs(x), c.entryIDs(y)) })
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d byDim %v: packed order %v, comparator %v", seed, byDim, got, want)
			}
		}
	}
}
