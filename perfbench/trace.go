package main

import (
	"bufio"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"pseudosphere/internal/cluster"
	"pseudosphere/internal/core"
	"pseudosphere/internal/homology"
	"pseudosphere/internal/jobs"
	"pseudosphere/internal/modelspec"
	"pseudosphere/internal/obs"
	"pseudosphere/internal/pc"
	"pseudosphere/internal/store"
	"pseudosphere/internal/task"
	"pseudosphere/internal/topology"
)

// span is one traced call: a layer entry point invoked for request Req.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for a request's root span
	Req    int32  `json:"req"`
	Name   string `json:"name"` // layer.operation
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Tag    string `json:"tag,omitempty"`
}

// tracer keeps spans in memory until the run writes them out. An off
// tracer records nothing: it runs a replay untraced.
type tracer struct {
	off   bool
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(req, parent int32, name string) int32 {
	if t.off {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now, End: -1})
	return id
}

func (t *tracer) end(id int32) {
	if t.off {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

func (t *tracer) tag(id int32, tag string) {
	if t.off {
		return
	}
	t.mu.Lock()
	t.spans[id].Tag = tag
	t.mu.Unlock()
}

// write stores the spans as gzipped JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	w := bufio.NewWriter(zw)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's duration minus the part of it covered by
// its children, in nanoseconds, indexed like spans.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		ivs := children[s.ID]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		var covered, reach int64 = 0, s.Start
		for _, iv := range ivs {
			lo, hi := max(iv[0], reach), min(iv[1], s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}

// tracedStore is a store.Backend that records a span around every Get
// and Put, parented to the replayer's current span.
type tracedStore struct {
	inner store.Backend
	rp    *replayer
}

func (s tracedStore) Get(key string) ([]byte, bool) {
	id := s.rp.t.begin(s.rp.req, s.rp.parent, "store.get")
	body, ok := s.inner.Get(key)
	s.rp.t.end(id)
	if ok {
		s.rp.t.tag(id, "hit")
	} else {
		s.rp.storeMisses++
	}
	return body, ok
}

func (s tracedStore) Put(key string, payload []byte) error {
	id := s.rp.t.begin(s.rp.req, s.rp.parent, "store.put")
	err := s.inner.Put(key, payload)
	s.rp.t.end(id)
	s.rp.bytesPut += int64(len(payload))
	return err
}

func (s tracedStore) Stats() (hits, misses, puts, evictions uint64) { return s.inner.Stats() }
func (s tracedStore) Len() int                                      { return s.inner.Len() }

// tracedCkpt wraps a job checkpoint log so each Flush is a span under
// the build that triggers it.
type tracedCkpt struct {
	*jobs.CheckpointLog
	t           *tracer
	req, parent int32
}

func (c *tracedCkpt) Flush(done []int, delta *pc.Result) error {
	id := c.t.begin(c.req, c.parent, "jobs.ckpt_flush")
	defer c.t.end(id)
	return c.CheckpointLog.Flush(done, delta)
}

// replayer calls the layers' public entry points for one request in the
// order serve's handlers do: parse and compile, store lookup, price,
// build, describe, reduce or search, encode, persist.
type replayer struct {
	t       *tracer
	st      store.Backend // traced; nil for a replay without a store
	lookup  func(key string) ([]byte, bool)
	engine  *homology.Engine
	tracker *obs.Tracker
	workers int

	req, parent int32 // the request and span store calls are filed under

	storeMisses int // lets a read-through span tell a fill from a local hit
	bytesPut    int64
}

// newReplayer makes a replayer with a homology engine and Betti cache
// set up as the server sets up its own: the cache backed by st.
func newReplayer(t *tracer, st store.Backend, workers int) *replayer {
	rp := &replayer{t: t, tracker: obs.NewTracker(), workers: workers}
	cache := homology.NewCache()
	if st != nil {
		rp.st = tracedStore{inner: st, rp: rp}
		cache.SetBacking(bettiBacking{rp.st})
	}
	rp.engine = homology.NewEngine(workers, cache)
	return rp
}

// useReadThrough puts a cluster read-through in front of the replayer's
// traced local store, as on a fleet replica: response lookups become
// cluster.readthrough spans (tagged "fill" when they crossed the hop),
// and the Betti cache is backed through it too.
func (rp *replayer) useReadThrough(rt *cluster.ReadThrough) {
	rp.st = rt
	cache := homology.NewCache()
	cache.SetBacking(bettiBacking{rt})
	rp.engine = homology.NewEngine(rp.workers, cache)
	rp.lookup = func(key string) ([]byte, bool) {
		id := rp.t.begin(rp.req, rp.parent, "cluster.readthrough")
		prev, misses := rp.parent, rp.storeMisses
		rp.parent = id
		body, ok := rt.Get(key)
		rp.parent = prev
		rp.t.end(id)
		if ok && rp.storeMisses > misses {
			rp.t.tag(id, "fill")
		}
		return body, ok
	}
}

// bettiBacking files Betti vectors in the store under the server's keys.
type bettiBacking struct{ st store.Backend }

func (b bettiBacking) Get(key string) ([]int, bool) {
	raw, ok := b.st.Get("betti-z2|" + key)
	if !ok {
		return nil, false
	}
	var betti []int
	if json.Unmarshal(raw, &betti) != nil {
		return nil, false
	}
	return betti, true
}

func (b bettiBacking) Put(key string, betti []int) {
	if raw, err := json.Marshal(betti); err == nil {
		b.st.Put("betti-z2|"+key, raw) //nolint:errcheck // best effort, like the server
	}
}

// replayOut is what a replayed request produced.
type replayOut struct {
	hit   bool
	hash  string
	betti []int
}

// call runs f as a span named name under parent.
func (rp *replayer) call(parent int32, name string, f func() error) error {
	id := rp.t.begin(rp.req, parent, name)
	prev := rp.parent
	rp.parent = id
	err := f()
	rp.parent = prev
	rp.t.end(id)
	return err
}

// replay replays request r as request id req. A non-nil ck makes the
// build checkpointed, as in a job run.
func (rp *replayer) replay(ctx context.Context, req int32, r request, ck *jobs.CheckpointLog) (replayOut, error) {
	rp.req = req
	root := rp.t.begin(req, -1, "serve.request")
	rp.parent = root
	out, err := rp.replayUnder(ctx, root, r, ck)
	rp.t.end(root)
	if err != nil {
		return out, fmt.Errorf("replay %s: %w", r.label(), err)
	}
	return out, nil
}

func (rp *replayer) replayUnder(ctx context.Context, root int32, r request, ck *jobs.CheckpointLog) (replayOut, error) {
	var out replayOut
	var inst *modelspec.Instance
	var key string
	err := rp.call(root, "modelspec.compile", func() error {
		if r.Endpoint == "pseudosphere" {
			key = keyOf(r, nil)
			return nil
		}
		var err error
		if inst, err = compile(r); err != nil {
			return err
		}
		key = keyOf(r, inst)
		return nil
	})
	if err != nil {
		return out, err
	}
	values := []string{"0", "1"}
	if raw := r.Params.Get("values"); raw != "" {
		values = strings.Split(raw, ",")
	}
	if rp.lookup != nil {
		if _, ok := rp.lookup(key); ok {
			out.hit = true
			return out, nil
		}
	} else if rp.st != nil {
		if _, ok := rp.st.Get(key); ok {
			out.hit = true
			return out, nil
		}
	}
	ctx = obs.WithTracker(ctx, rp.tracker)
	var res *pc.Result
	var c *topology.Complex
	switch r.Endpoint {
	case "pseudosphere":
		err = rp.call(root, "core.uniform", func() error {
			var err error
			c, err = core.Uniform(core.ProcessSimplex(intParam(r, "n", 2)), values)
			return err
		})
	case "decision":
		if err = rp.call(root, "modelspec.price", func() error {
			return rp.price(inst, uniformFacet(inst.N, values[0]))
		}); err != nil {
			return out, err
		}
		err = rp.call(root, "roundop.build", func() error {
			res = pc.NewResult()
			for _, input := range core.InputFacets(inst.N, values) {
				sub, err := inst.Build(ctx, input, rp.workers)
				if err != nil {
					return err
				}
				res.Merge(sub)
			}
			return nil
		})
	default:
		if err = rp.call(root, "modelspec.price", func() error {
			return rp.price(inst, inputSimplex(inst.M))
		}); err != nil {
			return out, err
		}
		build := rp.t.begin(rp.req, root, "roundop.build")
		if ck != nil {
			res, err = inst.BuildCkpt(ctx, inputSimplex(inst.M), rp.workers, defaultCkptEvery, &tracedCkpt{CheckpointLog: ck, t: rp.t, req: rp.req, parent: build})
		} else {
			res, err = inst.Build(ctx, inputSimplex(inst.M), rp.workers)
		}
		rp.t.end(build)
	}
	if err != nil {
		return out, err
	}
	if res != nil {
		c = res.Complex
	}
	stats := rp.describe(root, c)
	out.hash = stats.Hash
	var payload any = stats
	switch r.Endpoint {
	case "pseudosphere", "connectivity":
		if r.Params.Get("betti") == "false" {
			break
		}
		if err = rp.call(root, "homology.betti", func() error {
			var err error
			out.betti, err = rp.betti(ctx, r, c, ck)
			return err
		}); err != nil {
			return out, err
		}
		payload = struct {
			Complex any   `json:"complex"`
			Betti   []int `json:"betti"`
		}{stats, out.betti}
	case "decision":
		var ann *task.Annotated
		rp.call(root, "task.annotate", func() error { //nolint:errcheck // cannot fail
			ann = task.AnnotateViews(c, res.Views)
			task.SearchSpaceLog2(ann)
			return nil
		})
		var found bool
		if err = rp.call(root, "task.search", func() error {
			var err error
			_, found, err = task.FindDecisionParallelCtx(ctx, ann, intParam(r, "agree", 1), nodeLimit, rp.workers)
			return err
		}); err != nil {
			return out, err
		}
		payload = struct {
			Complex  any  `json:"complex"`
			Solvable bool `json:"solvable"`
		}{stats, found}
	}
	var body []byte
	rp.call(root, "serve.encode", func() error { //nolint:errcheck // marshalling plain structs cannot fail
		body, err = json.Marshal(payload)
		return err
	})
	if rp.st != nil {
		rp.st.Put(key, body) //nolint:errcheck // the server logs and goes on
	}
	return out, nil
}

// defaultCkptEvery and maxFacets are the server's default shard batch
// per checkpoint flush and facet budget.
const (
	defaultCkptEvery = 8
	maxFacets        = 8_000_000
)

// price mirrors the server's admission pricing: the arithmetic floor,
// then the exact estimate.
func (rp *replayer) price(inst *modelspec.Instance, input topology.Simplex) error {
	if floor := inst.InsertionFloor(); floor > maxFacets {
		return fmt.Errorf("%s has at least %d facet insertions", inst.Key, floor)
	}
	_, err := inst.Estimate(input)
	return err
}

func (rp *replayer) describe(root int32, c *topology.Complex) complexJSON {
	var s complexJSON
	rp.call(root, "topology.facets", func() error { s.Facets = len(c.Facets()); return nil })       //nolint:errcheck
	rp.call(root, "topology.fvector", func() error { s.FVector = c.FVector(); return nil })         //nolint:errcheck
	rp.call(root, "topology.euler", func() error { s.Euler = c.EulerCharacteristic(); return nil }) //nolint:errcheck
	rp.call(root, "topology.hash", func() error { s.Hash = c.CanonicalHash(); return nil })         //nolint:errcheck
	s.Dim, s.Simplices = c.Dim(), c.Size()
	return s
}

// betti computes the connectivity field the request asks for, with the
// server's engine calls; a checkpointed run hashes again for the rank
// checkpoint, as the server's job path does.
func (rp *replayer) betti(ctx context.Context, r request, c *topology.Complex, ck *jobs.CheckpointLog) ([]int, error) {
	switch field := r.Params.Get("field"); field {
	case "q":
		return homology.BettiQMorse(c), nil
	case "gfp":
		return homology.BettiGFpMorse(c, int64(intParam(r, "p", 3)))
	}
	if r.Params.Get("upto") != "" {
		return rp.engine.BettiZ2UpToCtx(ctx, c, intParam(r, "upto", 0))
	}
	if ck == nil {
		betti, err := rp.engine.BettiZ2Ctx(ctx, c)
		if err == nil && r.Endpoint == "pseudosphere" {
			_, err = rp.engine.ConnectivityCtx(ctx, c)
		}
		return betti, err
	}
	var hash string
	rp.call(rp.parent, "topology.hash", func() error { hash = c.CanonicalHash(); return nil }) //nolint:errcheck
	return rp.engine.BettiZ2CtxResume(ctx, c, ck.KnownRanks(hash), func(d, rank int) {
		ck.PutRank(hash, d, rank) //nolint:errcheck // the server logs and goes on
	})
}

// inputSimplex and uniformFacet mirror the server's input conventions.
func inputSimplex(m int) topology.Simplex {
	vs := make(topology.Simplex, m+1)
	for i := range vs {
		vs[i] = topology.Vertex{P: i, Label: string(rune('a' + i))}
	}
	return vs
}

func uniformFacet(n int, label string) topology.Simplex {
	vs := make(topology.Simplex, n+1)
	for i := range vs {
		vs[i] = topology.Vertex{P: i, Label: label}
	}
	return vs
}

// layerReport is the traced run's summary of one workload.
type layerReport struct {
	Requests int                `json:"requests"`
	SelfMs   map[string]float64 `json:"self_ms_per_request"` // by span name
	Layers   map[string]float64 `json:"layer_self_ms_per_request"`
	Calls    map[string]int     `json:"calls"`
	RootMs   float64            `json:"traced_request_ms"` // mean root span
	LayerMs  float64            `json:"layer_sum_ms"`      // mean of all non-root self time
	fill     []float64          // self times of read-through spans that filled
}

// summarize folds the spans of n replayed requests into per-name and
// per-layer mean self times per request.
func summarize(spans []span, n int) layerReport {
	self := selfTimes(spans)
	rep := layerReport{Requests: n, SelfMs: map[string]float64{}, Layers: map[string]float64{}, Calls: map[string]int{}}
	if n == 0 {
		return rep
	}
	for i, s := range spans {
		ms := float64(self[i]) / 1e6 / float64(n)
		if s.Parent < 0 {
			rep.RootMs += float64(s.End-s.Start) / 1e6 / float64(n)
		} else {
			rep.LayerMs += ms
		}
		rep.SelfMs[s.Name] += ms
		rep.Layers[layerOf(s.Name)] += ms
		rep.Calls[s.Name]++
		if s.Name == "cluster.readthrough" && s.Tag == "fill" {
			rep.fill = append(rep.fill, float64(self[i])/1e6)
		}
	}
	return rep
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// table renders the per-name self-time table, largest first.
func (rep layerReport) table() string {
	names := make([]string, 0, len(rep.SelfMs))
	for k := range rep.SelfMs {
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool { return rep.SelfMs[names[i]] > rep.SelfMs[names[j]] })
	var b strings.Builder
	fmt.Fprintf(&b, "  %-22s %12s %8s %8s\n", "span", "self ms/req", "share", "calls")
	for _, k := range names {
		share := 0.0
		if rep.RootMs > 0 {
			share = rep.SelfMs[k] / rep.RootMs
		}
		fmt.Fprintf(&b, "  %-22s %12.4f %7.1f%% %8d\n", k, rep.SelfMs[k], 100*share, rep.Calls[k])
	}
	return b.String()
}
