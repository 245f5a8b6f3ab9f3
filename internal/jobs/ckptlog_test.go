package jobs_test

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"pseudosphere/internal/asyncmodel"
	"pseudosphere/internal/jobs"
	"pseudosphere/internal/topology"
)

// TestFlushRecordGolden pins the exact bytes of one shard checkpoint
// record for a fixed A^1 n=3 f=1 delta. A log written by one build of the
// service is resumed by another, so the vertex-table order and the
// simplex row order of a Flush record must never drift.
func TestFlushRecordGolden(t *testing.T) {
	input := topology.Simplex{{P: 0, Label: "v0"}, {P: 1, Label: "v1"}, {P: 2, Label: "v2"}, {P: 3, Label: "v3"}}
	delta, err := asyncmodel.OneRound(input, asyncmodel.Params{N: 3, F: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "golden.ckpt")
	log, err := jobs.OpenCheckpointLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Flush([]int{0, 1, 2}, delta); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	const want = "230a681f5bb17d0b1b655cf7683f1a5ba549a657c02d2ef285c44fe81fa2cbe1"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("Flush record of %d bytes hashes %s, want %s", len(raw), got, want)
	}
}
