// Package distbuild distributes one round-complex construction across a
// fleet: the replica that owns the job runs a Coordinator over the
// build's deterministic roundop.ShardPlan and exposes the shard list as
// a claimable work queue, and every participating replica (the
// coordinator included) runs worker loops that lease contiguous shard
// index ranges, enumerate them through the same plan, and stream back
// the resulting sub-complexes as framed, interned facet batches.
//
// Leases carry deadlines. A worker that dies mid-range simply stops
// completing; its lease expires and the range returns to the pool, where
// the next claim — from any surviving worker — re-leases it. That is
// work stealing with crash tolerance: the build finishes as long as one
// worker (in practice the coordinator's own local loops) survives, and
// the merged complex is bit-for-bit the single-process build because
// shards partition the facet product and the complex is a set.
//
// The wire protocol is three internal POST endpoints:
//
//	/internal/shards/offer    coordinator -> peer: join this build
//	/internal/shards/claim    worker -> coordinator: lease a shard range
//	/internal/shards/complete worker -> coordinator: deliver a range
//
// Offers carry the model as a modelspec document plus the input simplex,
// never code or compiled state: the worker re-parses, re-prices against
// its own budget, and re-derives the identical shard plan. Completions
// are store.EncodeFrame-wrapped JSON (magic, length, checksum), so a
// truncated or corrupted delivery is rejected whole; the payload interns
// the vertex table and lists every simplex of the face-closed delta, so
// the coordinator merges with topology.Complex.AddClosed and never walks
// a closure. These endpoints are fleet-internal, like /internal/kv:
// replicas should listen on an internal interface.
package distbuild

import (
	"encoding/json"
	"fmt"

	"pseudosphere/internal/pc"
	"pseudosphere/internal/store"
	"pseudosphere/internal/topology"
	"pseudosphere/internal/views"
)

// Endpoint paths, mounted by the serving tier on every dist-enabled
// replica.
const (
	OfferPath    = "/internal/shards/offer"
	ClaimPath    = "/internal/shards/claim"
	CompletePath = "/internal/shards/complete"
)

// MaxCompleteBody bounds one completion frame; it matches the cluster
// KV bound — far above any real shard batch, low enough that a
// misbehaving peer cannot stream gigabytes.
const MaxCompleteBody = 256 << 20

// WireVert is one interned vertex of an offer input or a completion
// delta: process id plus encoded view label.
type WireVert struct {
	P int    `json:"p"`
	L string `json:"l"`
}

// BuildOffer invites a peer to work on a build: the build id, the
// coordinator's base URL (where claims and completions go), the model as
// a spec document (modelspec.Instance.SpecDoc), and the input simplex.
type BuildOffer struct {
	Build       string          `json:"build"`
	Coordinator string          `json:"coordinator"`
	Model       json.RawMessage `json:"model"`
	Input       []WireVert      `json:"input"`
}

// InputSimplex decodes and validates the offer's input simplex.
func (o *BuildOffer) InputSimplex() (topology.Simplex, error) {
	vs := make([]topology.Vertex, len(o.Input))
	for i, v := range o.Input {
		vs[i] = topology.Vertex{P: v.P, Label: v.L}
	}
	return topology.NewSimplex(vs...)
}

// claimRequest asks the coordinator for a lease on a contiguous shard
// index range of the named build.
type claimRequest struct {
	Build  string `json:"build"`
	Worker string `json:"worker"`
	Max    int    `json:"max,omitempty"`
}

// claimResponse answers a claim: a lease over [Lo, Hi), or Done (the
// build has no shards left — stop), or Wait (everything is leased out;
// poll again, a lease may expire).
type claimResponse struct {
	Done  bool   `json:"done,omitempty"`
	Wait  bool   `json:"wait,omitempty"`
	Lease uint64 `json:"lease,omitempty"`
	Lo    int    `json:"lo,omitempty"`
	Hi    int    `json:"hi,omitempty"`
}

// shardDelta is the JSON payload inside a completion frame: the lease
// being fulfilled, the shard indices it covered, and the enumerated
// sub-complex as an interned vertex table plus every simplex's
// vertex-index list — the full face-closed set, exactly the shape the
// checkpoint log persists, so the coordinator can both flush it to the
// job's CheckpointLog and merge it with the closure-free bulk path.
type shardDelta struct {
	Build  string     `json:"build"`
	Lease  uint64     `json:"lease"`
	Shards []int      `json:"shards"`
	Verts  []WireVert `json:"verts,omitempty"`
	Simps  [][]int32  `json:"simps,omitempty"`
}

// Delta is a decoded, validated completion.
type Delta struct {
	Build  string
	Lease  uint64
	Shards []int
	Result *pc.Result
}

// EncodeShardDelta frames a completed shard range for the wire. The
// delta result must be face-closed (anything a ShardPlan.RunShard built
// is).
func EncodeShardDelta(build string, lease uint64, shards []int, delta *pc.Result) []byte {
	verts, simps := delta.Complex.IndexedSimplices()
	vtab := make([]WireVert, len(verts))
	for i, v := range verts {
		vtab[i] = WireVert{P: v.P, L: v.Label}
	}
	payload, err := json.Marshal(shardDelta{Build: build, Lease: lease, Shards: shards, Verts: vtab, Simps: simps})
	if err != nil {
		// The struct contains only marshalable fields; treat as impossible
		// but fail safe with an empty (undecodable) frame.
		return nil
	}
	return store.EncodeFrame(payload)
}

// DecodeShardFrame decodes and fully validates one completion frame.
// Everything is checked before anything is built — frame checksum, JSON
// shape, view labels (each must decode and match its process id),
// simplex index ranges, simplex validity — so a corrupt or adversarial
// frame yields an error and never a half-valid result. This is the
// attacker-controlled surface of the protocol and the fuzz target.
func DecodeShardFrame(raw []byte) (*Delta, error) {
	if len(raw) > MaxCompleteBody {
		return nil, fmt.Errorf("distbuild: completion frame of %d bytes exceeds the %d limit", len(raw), MaxCompleteBody)
	}
	payload, ok := store.DecodeFrame(raw)
	if !ok {
		return nil, fmt.Errorf("distbuild: completion frame failed checksum validation")
	}
	var sd shardDelta
	if err := json.Unmarshal(payload, &sd); err != nil {
		return nil, fmt.Errorf("distbuild: completion payload: %w", err)
	}
	if sd.Build == "" || len(sd.Shards) == 0 {
		return nil, fmt.Errorf("distbuild: completion names no build or no shards")
	}
	for _, i := range sd.Shards {
		if i < 0 {
			return nil, fmt.Errorf("distbuild: negative shard index %d", i)
		}
	}
	vw := make([]*views.View, len(sd.Verts))
	for i, v := range sd.Verts {
		view, err := views.Decode(v.L)
		if err != nil || view.P != v.P {
			return nil, fmt.Errorf("distbuild: completion vertex %d is not a valid view for process %d", i, v.P)
		}
		vw[i] = view
	}
	res := pc.NewResult()
	for i, v := range sd.Verts {
		res.Views[topology.Vertex{P: v.P, Label: v.L}] = vw[i]
	}
	for _, ids := range sd.Simps {
		vs := make([]topology.Vertex, len(ids))
		for j, id := range ids {
			if id < 0 || int(id) >= len(sd.Verts) {
				return nil, fmt.Errorf("distbuild: simplex references vertex %d of %d", id, len(sd.Verts))
			}
			vs[j] = topology.Vertex{P: sd.Verts[id].P, Label: sd.Verts[id].L}
		}
		s, err := topology.NewSimplex(vs...)
		if err != nil {
			return nil, fmt.Errorf("distbuild: completion simplex: %w", err)
		}
		res.Complex.AddClosed(s)
	}
	return &Delta{Build: sd.Build, Lease: sd.Lease, Shards: sd.Shards, Result: res}, nil
}
