package distbuild

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"pseudosphere/internal/asyncmodel"
	"pseudosphere/internal/topology"
)

// TestShardFrameGolden pins the exact bytes of one completion frame for
// a fixed A^1 n=3 f=1 delta: replicas built from different revisions
// exchange these frames, so the vertex-table order and the simplex row
// order must never drift.
func TestShardFrameGolden(t *testing.T) {
	input := topology.Simplex{{P: 0, Label: "v0"}, {P: 1, Label: "v1"}, {P: 2, Label: "v2"}, {P: 3, Label: "v3"}}
	delta, err := asyncmodel.OneRound(input, asyncmodel.Params{N: 3, F: 1})
	if err != nil {
		t.Fatal(err)
	}
	frame := EncodeShardDelta("golden", 7, []int{0, 1, 2}, delta)
	sum := sha256.Sum256(frame)
	const want = "3b05fbc3e73bc2b5cb6219cbfc8b2d25b039eb99c09dafc6383405919b834085"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("frame of %d bytes hashes %s, want %s", len(frame), got, want)
	}
}
