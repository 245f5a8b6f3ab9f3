package topology

// Incidence access to the interned entry table. The homology engine's
// coreduction pass walks face/coface incidences of every stored simplex;
// these accessors expose the entry table directly (dense int32 entry
// indices, no Simplex materialization, no string keys) so that walk runs
// at intern-table speed. Entry indices are stable: entries are
// append-only, so an index obtained here stays valid for the lifetime of
// the complex as long as no further simplexes are added.

// EntryCount returns the number of stored simplexes. Entry indices run
// 0..EntryCount()-1 in insertion order, mixing dimensions.
func (c *Complex) EntryCount() int { return c.size() }

// EntryDim returns the dimension of entry ei (0 for a vertex).
func (c *Complex) EntryDim(ei int32) int { return len(c.entryIDs(ei)) - 1 }

// EntrySimplex materializes entry ei as a Simplex (vertices in ascending
// process-id order, the complex's canonical order).
func (c *Complex) EntrySimplex(ei int32) Simplex { return c.simplexAt(ei) }

// EntryFaces appends the entry indices of the codimension-1 faces of
// entry ei to buf and returns the extended slice. Faces are produced in
// vertex-drop order: the i-th appended index is the face omitting the
// i-th vertex of the entry's ascending-process-id sequence, so position i
// carries the orientation sign (-1)^i — the same convention the signed
// boundary builders use. A vertex entry appends nothing. Every face of a
// stored simplex is itself stored (the complex is closed under
// containment), so the appended indices are always valid.
//
// The lookup is read-only (hash probe, never insert) and uses no complex
// scratch state, so concurrent EntryFaces calls — and concurrent readers
// generally — are safe, matching the homology engine's access pattern.
func (c *Complex) EntryFaces(ei int32, buf []int32) []int32 {
	ids := c.entryIDs(ei)
	n := len(ids)
	if n <= 1 {
		return buf
	}
	var faceArr [maskWalkLimit]int32
	var face []int32
	if n-1 <= len(faceArr) {
		face = faceArr[:n-1]
	} else {
		face = make([]int32, n-1)
	}
	for i := 0; i < n; i++ {
		copy(face, ids[:i])
		copy(face[i:], ids[i+1:])
		buf = append(buf, c.find(face, hashIDs(face)))
	}
	return buf
}
