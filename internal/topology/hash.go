package topology

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"
	"strings"
)

// FacetEncoding returns a canonical textual encoding of the complex: the
// keys of its facets in sorted (dimension, key) order, each prefixed by
// its byte length so that arbitrary label strings cannot collide. Because
// a complex is determined by its facets, two complexes are Equal if and
// only if their facet encodings are equal; the encoding is therefore a
// sound memoization key for any function of the complex.
func (c *Complex) FacetEncoding() string {
	var b strings.Builder
	for _, s := range c.Facets() {
		key := s.Key()
		b.WriteString(strconv.Itoa(len(key)))
		b.WriteByte(':')
		b.WriteString(key)
		b.WriteByte(';')
	}
	return b.String()
}

// CanonicalHash returns a hex SHA-256 digest canonically identifying the
// complex. It is the cache key used by the homology package's memoized
// engine: equal complexes always hash equal, and distinct complexes
// collide only with cryptographic improbability.
//
// The digest is taken over the sorted, length-prefixed simplex-key set
// ("len:key;" per simplex, keys in byte order). The keys are streamed
// from the per-vertex token table in rank order (see order.go) and never
// rendered one string per simplex, but the encoding, and therefore the
// digest, is unchanged from the string-keyed representation this core
// replaced: ReferenceComplex.CanonicalHash is differentially tested to
// agree. The digest is memoized until the complex next grows.
func (c *Complex) CanonicalHash() string {
	return c.memo.hash.get(c.size(), c.canonicalHash)
}

func (c *Complex) canonicalHash() string {
	o := c.keyOrder()
	idx := c.allEntries()
	c.sortEntries(o, idx, false)
	h := sha256.New()
	buf := make([]byte, 0, 64<<10)
	for _, ei := range idx {
		ids := c.entryIDs(ei)
		n := len(ids) - 1 // separators
		for _, id := range ids {
			n += len(o.tok[id])
		}
		buf = strconv.AppendInt(buf, int64(n), 10)
		buf = append(buf, ':')
		for i, id := range ids {
			if i > 0 {
				buf = append(buf, '|')
			}
			buf = append(buf, o.tok[id]...)
		}
		buf = append(buf, ';')
		if len(buf) >= 60<<10 {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}
