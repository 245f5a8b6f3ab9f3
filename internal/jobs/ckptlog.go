package jobs

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"pseudosphere/internal/pc"
	"pseudosphere/internal/store"
	"pseudosphere/internal/topology"
	"pseudosphere/internal/views"
)

// CheckpointLog is a job's append-only progress log: a sequence of
// store-framed JSON records persisting construction shards (the
// roundop.Checkpointer seam) and homology boundary ranks (the
// homology.Engine resume seam). Records are self-validating frames, so a
// SIGKILL mid-append leaves a torn tail that the next open detects and
// truncates — the log never resumes from wrong bytes, only from a valid
// prefix (possibly empty, which is a restart from zero).
type CheckpointLog struct {
	path string

	mu sync.Mutex
	f  *os.File

	// Loaded at open, consumed by Restore/KnownRanks.
	shardRecs []ckptRecord
	ranks     map[string]map[int]int // complex hash → dimension → rank

	// Set by Restore, used by Flush to stamp shard records.
	shardTotal int
}

// ckptRecord is one log entry. T selects the variant: "shards" persists
// a batch of completed construction shards together with their merged
// face-closed simplex delta (vertex labels interned into a frame-local
// table), "rank" persists one fully reduced boundary rank keyed by the
// complex's canonical hash.
type ckptRecord struct {
	T string `json:"t"`

	// T == "shards"
	Total int        `json:"total,omitempty"`
	Done  []int      `json:"done,omitempty"`
	Verts []ckptVert `json:"verts,omitempty"`
	Simps [][]int32  `json:"simps,omitempty"`

	// T == "rank"
	Hash string `json:"hash,omitempty"`
	Dim  int    `json:"dim,omitempty"`
	Rank int    `json:"rank,omitempty"`
}

type ckptVert struct {
	P int    `json:"p"`
	L string `json:"l"`
}

// OpenCheckpointLog opens (creating if absent) the log at path, loading
// every valid record and truncating any torn or corrupt tail. Records
// after the first damaged frame are discarded: the log is a prefix log,
// and a valid prefix is always a safe resume point.
func OpenCheckpointLog(path string) (*CheckpointLog, error) {
	c := &CheckpointLog{path: path, ranks: make(map[string]map[int]int)}
	raw, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("jobs: read checkpoint log: %w", err)
	}
	valid := 0
	rest := raw
	for len(rest) > 0 {
		payload, r, ok := store.NextFrame(rest)
		if !ok {
			break
		}
		var rec ckptRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			break // checksummed but unparseable: treat as end of log
		}
		switch rec.T {
		case "shards":
			c.shardRecs = append(c.shardRecs, rec)
		case "rank":
			if c.ranks[rec.Hash] == nil {
				c.ranks[rec.Hash] = make(map[int]int)
			}
			c.ranks[rec.Hash][rec.Dim] = rec.Rank
		default:
			// Unknown record types from a future format rev: skip, they
			// checksummed correctly.
		}
		valid = len(raw) - len(r)
		rest = r
	}
	if valid < len(raw) {
		if err := os.Truncate(path, int64(valid)); err != nil {
			return nil, fmt.Errorf("jobs: truncate torn checkpoint log: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("jobs: open checkpoint log: %w", err)
	}
	c.f = f
	return c, nil
}

// Close closes the log file; pending records are already durable (every
// append syncs).
func (c *CheckpointLog) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f == nil {
		return nil
	}
	err := c.f.Close()
	c.f = nil
	return err
}

// append frames, writes, and syncs one record. Sync per append is the
// durability contract resume depends on: once Flush returns, a SIGKILL
// cannot lose the batch.
func (c *CheckpointLog) append(rec ckptRecord) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("jobs: encode checkpoint: %w", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f == nil {
		return fmt.Errorf("jobs: checkpoint log %s is closed", c.path)
	}
	if _, err := c.f.Write(store.EncodeFrame(payload)); err != nil {
		return fmt.Errorf("jobs: append checkpoint: %w", err)
	}
	if err := c.f.Sync(); err != nil {
		return fmt.Errorf("jobs: sync checkpoint: %w", err)
	}
	return nil
}

// Restore implements roundop.Checkpointer: it replays every shard record
// written for this shard count into a done-set and a merged partial
// result. Records for a different shard count (a changed spec or code
// rev) and records that fail validation are skipped — a skipped shard is
// merely recomputed. Replay inserts the face-closed simplex deltas with
// the closure-free bulk path, which is what makes resuming measurably
// cheaper than recomputing.
func (c *CheckpointLog) Restore(totalShards int) ([]bool, *pc.Result, error) {
	c.shardTotal = totalShards
	var done []bool
	var partial *pc.Result
	for _, rec := range c.shardRecs {
		if rec.Total != totalShards || len(rec.Done) == 0 {
			continue
		}
		verts, simps, ok := decodeShardDelta(rec)
		if !ok {
			continue
		}
		idxOK := true
		for _, i := range rec.Done {
			if i < 0 || i >= totalShards {
				idxOK = false
				break
			}
		}
		if !idxOK {
			continue
		}
		if done == nil {
			done = make([]bool, totalShards)
			partial = pc.NewResult()
		}
		for i, v := range rec.Verts {
			partial.Views[topology.Vertex{P: v.P, Label: v.L}] = verts[i]
		}
		for _, s := range simps {
			partial.Complex.AddClosed(s)
		}
		for _, i := range rec.Done {
			done[i] = true
		}
	}
	return done, partial, nil
}

// decodeShardDelta validates a shard record's vertex table and simplex
// list in full before anything is inserted anywhere, so a corrupt record
// is skipped atomically and can never leave a half-replayed,
// non-face-closed delta behind.
func decodeShardDelta(rec ckptRecord) (vw []*views.View, simps []topology.Simplex, ok bool) {
	vw = make([]*views.View, len(rec.Verts))
	for i, v := range rec.Verts {
		view, err := views.Decode(v.L)
		if err != nil || view.P != v.P {
			return nil, nil, false
		}
		vw[i] = view
	}
	simps = make([]topology.Simplex, 0, len(rec.Simps))
	for _, ids := range rec.Simps {
		vs := make([]topology.Vertex, len(ids))
		for j, id := range ids {
			if id < 0 || int(id) >= len(rec.Verts) {
				return nil, nil, false
			}
			vs[j] = topology.Vertex{P: rec.Verts[id].P, Label: rec.Verts[id].L}
		}
		s, err := topology.NewSimplex(vs...)
		if err != nil {
			return nil, nil, false
		}
		simps = append(simps, s)
	}
	return vw, simps, true
}

// Flush implements roundop.Checkpointer: it persists one batch of
// completed shards with their merged delta. The delta complex is dumped
// as a frame-local vertex table plus every simplex's vertex-index list —
// the full face-closed set, not just facets, so Restore can re-insert it
// without the closure walk.
func (c *CheckpointLog) Flush(done []int, delta *pc.Result) error {
	verts, simps := delta.Complex.IndexedSimplices()
	vtab := make([]ckptVert, len(verts))
	for i, v := range verts {
		vtab[i] = ckptVert{P: v.P, L: v.Label}
	}
	return c.append(ckptRecord{T: "shards", Total: c.shardTotal, Done: done, Verts: vtab, Simps: simps})
}

// KnownRanks returns the boundary ranks recorded for the complex with
// the given canonical hash (nil if none) — the known-map for
// homology.Engine.BettiZ2CtxResume.
func (c *CheckpointLog) KnownRanks(hash string) map[int]int {
	loaded := c.ranks[hash]
	if len(loaded) == 0 {
		return nil
	}
	out := make(map[int]int, len(loaded))
	for d, r := range loaded {
		out[d] = r
	}
	return out
}

// PutRank persists one fully reduced boundary rank. Safe for concurrent
// use — the homology engine emits ranks from one goroutine per
// dimension.
func (c *CheckpointLog) PutRank(hash string, dim, rank int) error {
	return c.append(ckptRecord{T: "rank", Hash: hash, Dim: dim, Rank: rank})
}
