package topology

import (
	"math/bits"
	"slices"
)

// The interned complex core.
//
// A Complex stores each distinct vertex once in a per-complex intern table
// (Vertex -> dense int32 id) and each simplex as its vertex-id sequence in
// ascending process-id order, the same canonical order Simplex itself
// maintains. The storage is three pointer-free slices, so the garbage
// collector never scans it and growing it is a plain append:
//
//   - arena holds every entry's ids, concatenated in insertion order;
//   - starts is the CSR offset table: entry ei's ids are
//     arena[starts[ei]:starts[ei+1]];
//   - slots is a power-of-two open-addressing index with linear probing,
//     kept at load <= 1/2. A slot packs a tag, the upper 32 bits of
//     hashIDs (which also picks the probe start), with entry+1 in its low
//     32 bits; zero marks an empty slot. Equal tags are resolved by exact
//     comparison against the arena, and growth rehashes from the tags
//     alone, never re-reading the arena.
//
// Membership tests and face closure therefore never build string keys,
// and a lookup is read-only: concurrent readers are safe.

// maskWalkLimit bounds the bitmask closure walk: simplexes with more
// vertices fall back to a recursive face closure. Chromatic simplexes have
// one vertex per process, so real workloads sit far below this.
const maskWalkLimit = 25

// minSlots is the slot count of a new complex's index.
const minSlots = 16

// Storage limits: starts holds uint32 arena offsets, and entry indices
// are int32 (a slot stores entry+1 in 32 bits).
const (
	maxArenaIDs = 1<<32 - 1
	maxEntries  = 1<<31 - 1
)

// intern returns the dense id of v, assigning the next id on first sight.
func (c *Complex) intern(v Vertex) int32 {
	if id, ok := c.verts[v]; ok {
		return id
	}
	id := int32(len(c.byID))
	c.verts[v] = id
	c.byID = append(c.byID, v)
	return id
}

// hashIDs mixes an id sequence into a 64-bit hash (splitmix-style
// rounds); its upper 32 bits are the slot tag.
func hashIDs(ids []int32) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, id := range ids {
		h ^= uint64(uint32(id))
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 29
	}
	return h
}

// size returns the number of stored entries.
func (c *Complex) size() int { return len(c.starts) - 1 }

// entryIDs returns entry ei's ids. The slice is capped at its own length,
// so an append by a caller can never write into the next entry.
func (c *Complex) entryIDs(ei int32) []int32 {
	lo, hi := c.starts[ei], c.starts[ei+1]
	return c.arena[lo:hi:hi]
}

// find returns the entry index storing exactly ids (hashed to h), or -1.
// It only reads the complex, so concurrent finds are safe.
func (c *Complex) find(ids []int32, h uint64) int32 {
	tag := h >> 32
	mask := uint64(len(c.slots) - 1)
	for i := tag & mask; ; i = (i + 1) & mask {
		s := c.slots[i]
		if s == 0 {
			return -1
		}
		if s>>32 != tag {
			continue
		}
		if ei := int32(uint32(s) - 1); slices.Equal(c.entryIDs(ei), ids) {
			return ei
		}
	}
}

// place puts slot value s into slots at the first free position of its
// probe sequence.
func place(slots []uint64, s uint64) {
	mask := uint64(len(slots) - 1)
	i := (s >> 32) & mask
	for slots[i] != 0 {
		i = (i + 1) & mask
	}
	slots[i] = s
}

// reserve grows the index so n entries fit at load <= 1/2. Growth
// rehashes from the old slots alone: each slot carries its own tag.
func (c *Complex) reserve(n int) {
	if 2*n <= len(c.slots) {
		return
	}
	size := max(len(c.slots), minSlots)
	for size < 2*n {
		size *= 2
	}
	slots := make([]uint64, size)
	for _, s := range c.slots {
		if s != 0 {
			place(slots, s)
		}
	}
	c.slots = slots
}

// checkLimits panics if storing one more entry of n ids would overflow
// the uint32 arena offsets or the int32 entry indices. The service's
// admission cap keeps real inputs far below both, so only a bug (an
// unbounded loop of inserts) can trip it.
func checkLimits(entries, arenaLen, n int) {
	if entries+1 > maxEntries {
		panic("topology: complex exceeds 2^31-1 simplexes (int32 entry index limit)")
	}
	if uint64(arenaLen)+uint64(n) > maxArenaIDs {
		panic("topology: complex exceeds 2^32-1 stored vertex ids (uint32 arena offset limit)")
	}
}

// insert stores ids (hashed to h) as a new entry, updating the f-vector
// and dimension. The caller must have checked absence.
func (c *Complex) insert(ids []int32, h uint64) {
	ei := c.size()
	checkLimits(ei, len(c.arena), len(ids))
	c.reserve(ei + 1)
	c.arena = append(c.arena, ids...)
	c.starts = append(c.starts, uint32(len(c.arena)))
	place(c.slots, h>>32<<32|uint64(ei+1))
	d := len(ids) - 1
	for len(c.counts) <= d {
		c.counts = append(c.counts, 0)
	}
	c.counts[d]++
	if d > c.dim {
		c.dim = d
	}
}

// insertIfAbsent inserts ids unless present; it performs no face closure,
// so callers must guarantee every face of ids is (or will be) inserted.
func (c *Complex) insertIfAbsent(ids []int32) {
	h := hashIDs(ids)
	if c.find(ids, h) < 0 {
		c.insert(ids, h)
	}
}

// internSimplex interns the vertices of s and returns their ids in s's own
// (ascending process-id) order, reusing the complex's scratch buffer. The
// result is only valid until the next internSimplex call.
func (c *Complex) internSimplex(s Simplex) []int32 {
	if cap(c.idBuf) < len(s) {
		c.idBuf = make([]int32, len(s))
	}
	ids := c.idBuf[:len(s)]
	for i, v := range s {
		ids[i] = c.intern(v)
	}
	return ids
}

// lookupIDs maps s to its id sequence without interning. It reports false
// if some vertex has never been seen (so s cannot be present). It
// allocates its own buffer: lookups are read-only and must stay safe under
// concurrent readers (the homology engine hashes and indexes shared
// complexes from several goroutines).
func (c *Complex) lookupIDs(s Simplex) ([]int32, bool) {
	ids := make([]int32, len(s))
	for i, v := range s {
		id, ok := c.verts[v]
		if !ok {
			return nil, false
		}
		ids[i] = id
	}
	return ids, true
}

// addDirect inserts s without a closure walk; valid only when the caller
// adds a face-closed set of simplexes entry by entry.
func (c *Complex) addDirect(s Simplex) {
	c.insertIfAbsent(c.internSimplex(s))
}

// addClosure inserts ids and every nonempty face, walking the subset
// lattice iteratively by bitmask. A face found present is skipped together
// with its whole subtree — the complex is closed under containment, so
// every subset of a present face is already present. This is the hot inner
// loop of every model constructor.
func (c *Complex) addClosure(ids []int32) {
	n := len(ids)
	if n == 0 {
		return
	}
	h := hashIDs(ids)
	if c.find(ids, h) >= 0 {
		return // fast path: facet re-added by an enumerator
	}
	if n > maskWalkLimit {
		c.addClosureRecursive(ids)
		return
	}
	full := uint32(1)<<uint(n) - 1
	words := (int(full) >> 6) + 1
	if cap(c.visited) < words {
		c.visited = make([]uint64, words)
	} else {
		c.visited = c.visited[:words]
		for i := range c.visited {
			c.visited[i] = 0
		}
	}
	if cap(c.subBuf) < n {
		c.subBuf = make([]int32, n)
	}
	sub := c.subBuf
	stack := c.maskStack[:0]
	stack = append(stack, full)
	for len(stack) > 0 {
		mask := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if c.visited[mask>>6]>>(mask&63)&1 == 1 {
			continue
		}
		c.visited[mask>>6] |= 1 << (mask & 63)
		k := 0
		for m := mask; m != 0; m &= m - 1 {
			sub[k] = ids[bits.TrailingZeros32(m)]
			k++
		}
		sh := hashIDs(sub[:k])
		if c.find(sub[:k], sh) >= 0 {
			continue // whole subtree already present
		}
		c.insert(sub[:k], sh)
		for m := mask; m != 0; m &= m - 1 {
			child := mask &^ (1 << uint(bits.TrailingZeros32(m)))
			if child != 0 {
				stack = append(stack, child)
			}
		}
	}
	c.maskStack = stack[:0]
}

// addClosureRecursive is the fallback closure for simplexes too large for
// the bitmask walk; it mirrors the former recursive Add.
func (c *Complex) addClosureRecursive(ids []int32) {
	h := hashIDs(ids)
	if c.find(ids, h) >= 0 {
		return
	}
	c.insert(ids, h)
	if len(ids) == 1 {
		return
	}
	face := make([]int32, len(ids)-1)
	for i := range ids {
		copy(face, ids[:i])
		copy(face[i:], ids[i+1:])
		c.addClosureRecursive(face)
	}
}

// simplexAt materializes the entry at index ei as a Simplex.
func (c *Complex) simplexAt(ei int32) Simplex {
	ids := c.entryIDs(ei)
	s := make(Simplex, len(ids))
	for i, id := range ids {
		s[i] = c.byID[id]
	}
	return s
}

// translationTo returns a map from d's vertex ids to c's, interning every
// vertex of d into c (used by UnionWith, where all of d is inserted).
func (c *Complex) translationTo(d *Complex) []int32 {
	trans := make([]int32, len(d.byID))
	for i, v := range d.byID {
		trans[i] = c.intern(v)
	}
	return trans
}

// lookupTranslation maps d's vertex ids to c's without interning; absent
// vertices map to -1 (used by membership-only paths).
func (c *Complex) lookupTranslation(d *Complex) []int32 {
	trans := make([]int32, len(d.byID))
	for i, v := range d.byID {
		if id, ok := c.verts[v]; ok {
			trans[i] = id
		} else {
			trans[i] = -1
		}
	}
	return trans
}

// translate maps entry ids through trans into buf; it reports false if a
// vertex is missing (trans value -1). Ascending process-id order is
// preserved because translation never changes a vertex's process id.
func translate(ids []int32, trans []int32, buf []int32) ([]int32, bool) {
	for i, id := range ids {
		t := trans[id]
		if t < 0 {
			return nil, false
		}
		buf[i] = t
	}
	return buf[:len(ids)], true
}
