package topology

import (
	"math/bits"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// Describing a complex — listing its facets or simplexes in canonical
// order, or hashing it — orders simplexes by their string keys
// (Simplex.Key: "P:Label" tokens joined by '|'). Rendering and comparing
// one string per simplex used to dominate that work, so the order is
// computed over interned ids instead: each call renders one token per
// vertex, sorts the tokens once into a rank table, and compares entry id
// sequences rank by rank.
//
// Rank order is key byte order except where one token is a proper prefix
// of another ("0:v1" and "0:v10"): there the byte after the shorter token
// is a '|' separator (or the key's end) on one side and a label byte on
// the other. Such pairs take an exact path that compares the two keys as
// byte streams straight from the token table, so the order never drifts
// from Key order.

// keyOrder is the per-call rank table over a complex's vertex ids.
type keyOrder struct {
	tok  []string // vertex id -> "P:Label"
	rank []int32  // vertex id -> rank of its token in byte order
	// prefixEnd[r] is the highest rank whose token has the rank-r token
	// as a prefix (r itself when none). It is nil when no token is a
	// proper prefix of another, the common case.
	prefixEnd []int32
}

func (c *Complex) keyOrder() *keyOrder {
	n := len(c.byID)
	o := &keyOrder{tok: make([]string, n), rank: make([]int32, n)}
	byRank := make([]int32, n)
	for id, v := range c.byID {
		o.tok[id] = strconv.Itoa(v.P) + ":" + v.Label
		byRank[id] = int32(id)
	}
	slices.SortFunc(byRank, func(a, b int32) int { return strings.Compare(o.tok[a], o.tok[b]) })
	for r, id := range byRank {
		o.rank[id] = int32(r)
	}
	// The tokens a token prefixes sort directly after it, so one
	// contiguous rank range per token records them.
	for r := n - 2; r >= 0; r-- {
		end := r
		for end+1 < n && strings.HasPrefix(o.tok[byRank[end+1]], o.tok[byRank[r]]) {
			if o.prefixEnd == nil {
				o.prefixEnd = make([]int32, n)
				for i := range o.prefixEnd {
					o.prefixEnd[i] = int32(i)
				}
			}
			end = int(o.prefixEnd[end+1]) // everything end+1 prefixes, r prefixes too
		}
		if o.prefixEnd != nil {
			o.prefixEnd[r] = int32(end)
		}
	}
	return o
}

// cmpKeys compares the keys of two id sequences in byte order, like
// strings.Compare on their Key strings. Distinct sequences whose keys
// render equal (labels containing '|' or ':') are ordered by rank, so the
// order is total and every sort over it is deterministic.
func (o *keyOrder) cmpKeys(a, b []int32) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		ra, rb := o.rank[a[i]], o.rank[b[i]]
		if ra == rb {
			continue
		}
		if o.prefixEnd != nil && o.prefixed(ra, rb) {
			return o.cmpStreams(a[i:], b[i:])
		}
		if ra < rb {
			return -1
		}
		return 1
	}
	return len(a) - len(b)
}

// cmpDimKey orders by dimension, then key: the order of Facets and
// AllSimplices.
func (o *keyOrder) cmpDimKey(a, b []int32) int {
	if len(a) != len(b) {
		return len(a) - len(b)
	}
	return o.cmpKeys(a, b)
}

// prefixed reports whether one of the two ranked tokens is a prefix of
// the other.
func (o *keyOrder) prefixed(ra, rb int32) bool {
	if ra > rb {
		ra, rb = rb, ra
	}
	return rb <= o.prefixEnd[ra]
}

// cmpStreams is the exact path: it compares the key bytes of a and b
// segment by segment (token, '|', token, ...) without rendering either
// key, breaking a byte-for-byte tie by rank.
func (o *keyOrder) cmpStreams(a, b []int32) int {
	x, y := keyStream{o: o, ids: a}, keyStream{o: o, ids: b}
	for {
		xMore, yMore := x.more(), y.more()
		if !xMore || !yMore {
			switch {
			case xMore:
				return 1
			case yMore:
				return -1
			}
			return o.cmpRanks(a, b)
		}
		m := min(len(x.seg), len(y.seg))
		if c := strings.Compare(x.seg[:m], y.seg[:m]); c != 0 {
			return c
		}
		x.seg, y.seg = x.seg[m:], y.seg[m:]
	}
}

func (o *keyOrder) cmpRanks(a, b []int32) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if ra, rb := o.rank[a[i]], o.rank[b[i]]; ra != rb {
			return int(ra) - int(rb)
		}
	}
	return len(a) - len(b)
}

// keyStream walks the bytes of one key from a token boundary on.
type keyStream struct {
	o      *keyOrder
	ids    []int32 // tokens not yet started
	seg    string  // unread rest of the current token or separator
	sepDue bool    // a '|' precedes the next token
}

// more refills seg with the next segment and reports whether the key has
// bytes left. Tokens are never empty: each holds at least "P:".
func (s *keyStream) more() bool {
	if s.seg != "" {
		return true
	}
	if len(s.ids) == 0 {
		return false
	}
	if s.sepDue {
		s.seg, s.sepDue = "|", false
		return true
	}
	s.seg, s.ids, s.sepDue = s.o.tok[s.ids[0]], s.ids[1:], true
	return true
}

// sortEntries sorts entry indices by key (the order CanonicalHash
// streams) or, when byDim, by dimension then key (the order of Facets,
// AllSimplices and Simplices).
//
// When no token prefixes another, key order is the lexicographic order
// of rank sequences with a shorter prefix first. If a packed sort key
// fits one uint64 (length when byDim, then ranks+1 zero-padded to the
// complex's top width, then the entry index), the sort runs over those
// integers instead of the comparator: the common case, and several times
// faster.
func (c *Complex) sortEntries(o *keyOrder, idx []int32, byDim bool) {
	width := c.dim + 1
	rankBits := bits.Len(uint(len(o.rank)))
	idxBits := bits.Len(uint(c.size()))
	keyBits := rankBits*width + idxBits
	if byDim {
		keyBits += bits.Len(uint(width))
	}
	if o.prefixEnd != nil || keyBits > 64 {
		cmpIDs := o.cmpKeys
		if byDim {
			cmpIDs = o.cmpDimKey
		}
		slices.SortFunc(idx, func(x, y int32) int { return cmpIDs(c.entryIDs(x), c.entryIDs(y)) })
		return
	}
	keys := make([]uint64, len(idx))
	for i, ei := range idx {
		ids := c.entryIDs(ei)
		var k uint64
		if byDim {
			k = uint64(len(ids))
		}
		for j := 0; j < width; j++ {
			k <<= rankBits
			if j < len(ids) {
				k |= uint64(o.rank[ids[j]] + 1)
			}
		}
		keys[i] = k<<idxBits | uint64(ei)
	}
	slices.Sort(keys)
	for i, k := range keys {
		idx[i] = int32(k & (1<<idxBits - 1))
	}
}

// simplicesAt materializes the entries at idx, in that order, carving
// every Simplex from one shared vertex array.
func (c *Complex) simplicesAt(idx []int32) []Simplex {
	n := 0
	for _, ei := range idx {
		n += len(c.entryIDs(ei))
	}
	verts := make([]Vertex, n)
	out := make([]Simplex, len(idx))
	for i, ei := range idx {
		ids := c.entryIDs(ei)
		s := verts[:len(ids):len(ids)]
		verts = verts[len(ids):]
		for j, id := range ids {
			s[j] = c.byID[id]
		}
		out[i] = s
	}
	return out
}

// describeMemo caches a complex's canonical hash and facet count. Entries
// are append-only, so the entry count a value was computed at is its
// version: an Add, AddClosed or UnionWith that changes the complex grows
// the count, and the next read recomputes. Insertion needs no
// invalidation hook. The memo sits behind a pointer so the Complex value
// itself holds no lock; Clone gives the copy a fresh one.
type describeMemo struct {
	hash   memoSlot[string]
	facets memoSlot[int]
}

type memoSlot[T any] struct {
	mu  sync.Mutex
	ok  bool
	at  int // entry count val was computed at
	val T
}

// get returns the value for version at, computing it under the slot's
// lock, so concurrent readers of one complex share one computation.
func (m *memoSlot[T]) get(at int, compute func() T) T {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.ok || m.at != at {
		m.val, m.at, m.ok = compute(), at, true
	}
	return m.val
}

// IndexedSimplices returns the complex as a vertex table plus index rows:
// verts is Vertices(), and simps lists every simplex in AllSimplices
// order as the indices of its vertices in verts. It is the dump that
// checkpoint records and distributed-build frames persist, produced
// without materializing one Simplex per entry.
func (c *Complex) IndexedSimplices() (verts []Vertex, simps [][]int32) {
	verts = c.Vertices()
	pos := make([]int32, len(c.byID)) // vertex id -> index in verts
	for i, v := range verts {
		pos[c.verts[v]] = int32(i)
	}
	idx := c.allEntries()
	c.sortEntries(c.keyOrder(), idx, true)
	n := 0
	for _, ei := range idx {
		n += len(c.entryIDs(ei))
	}
	back := make([]int32, n)
	simps = make([][]int32, len(idx))
	for i, ei := range idx {
		ids := c.entryIDs(ei)
		row := back[:len(ids):len(ids)]
		back = back[len(ids):]
		for j, id := range ids {
			row[j] = pos[id]
		}
		simps[i] = row
	}
	return verts, simps
}
