package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"

	"pseudosphere/internal/core"
	"pseudosphere/internal/homology"
	"pseudosphere/internal/jobs"
	"pseudosphere/internal/modelspec"
	"pseudosphere/internal/pc"
	"pseudosphere/internal/task"
	"pseudosphere/internal/topology"
)

// complexStats is the JSON shape every endpoint reports a complex in.
type complexStats struct {
	Dim           int    `json:"dim"`
	FVector       []int  `json:"f_vector"`
	Facets        int    `json:"facets"`
	Simplices     int    `json:"simplices"`
	Euler         int    `json:"euler_characteristic"`
	CanonicalHash string `json:"canonical_hash"`
}

func statsOf(c *topology.Complex) complexStats {
	return complexStats{
		Dim:           c.Dim(),
		FVector:       c.FVector(),
		Facets:        c.FacetCount(),
		Simplices:     c.Size(),
		Euler:         c.EulerCharacteristic(),
		CanonicalHash: c.CanonicalHash(),
	}
}

// endpointQuery is one computation the service can run two ways: behind
// the synchronous GET spine or inside an async job. It carries the
// request's canonical cache key, an upfront price check (used by job
// submission to refuse oversized work before queueing it), and the
// compute closure. compute's ck is non-nil only for job runs, where it
// threads the construction-shard and homology-rank checkpoint seams.
type endpointQuery struct {
	key     string
	price   func() error
	compute func(ctx context.Context, ck *jobs.CheckpointLog) (any, error)
}

// buildQuery validates q (plus an optional inline model spec) for the
// named endpoint and returns its query plan. It is the single
// parse-and-plan path shared by the GET handlers, the POST inline-spec
// handlers, the job subsystem's Prepare/Run hooks, and the cluster
// router's key shaping.
func (s *Server) buildQuery(endpoint string, q url.Values, spec *modelspec.Spec) (endpointQuery, error) {
	switch endpoint {
	case "pseudosphere":
		if spec != nil {
			return endpointQuery{}, badRequest("endpoint pseudosphere does not take a model spec")
		}
		return s.buildPseudosphere(q)
	case "rounds":
		return s.buildRounds(q, spec)
	case "connectivity":
		return s.buildConnectivity(q, spec)
	case "decision":
		return s.buildDecision(q, spec)
	default:
		return endpointQuery{}, badRequest("unknown endpoint %q (want pseudosphere, rounds, connectivity, or decision)", endpoint)
	}
}

// handleEndpoint adapts an endpoint's query plan to the synchronous GET
// spine.
func (s *Server) handleEndpoint(endpoint string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		bq, err := s.buildQuery(endpoint, r.URL.Query(), nil)
		if err != nil {
			s.fail(w, r, endpoint, err)
			return
		}
		s.serveQuery(w, r, endpoint, bq.key, func(ctx context.Context) (any, error) {
			return bq.compute(ctx, nil)
		})
	}
}

// inlineRequest is the POST body of the model endpoints: an inline model
// spec plus the endpoint's other parameters under their query names —
// the same shape a job spec uses, minus the endpoint (which is the URL).
type inlineRequest struct {
	Model  json.RawMessage   `json:"model"`
	Params map[string]string `json:"params,omitempty"`
}

// parseInlineBody decodes a POST body into the query values and model
// spec buildQuery consumes. The server and the fleet router share it, so
// both derive identical canonical keys from the same bytes.
func parseInlineBody(body []byte) (url.Values, *modelspec.Spec, error) {
	if len(body) == 0 {
		return nil, nil, badRequest(`empty body; POST {"model": {...}, "params": {...}}`)
	}
	var req inlineRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, nil, badRequest("invalid request body: %v", err)
	}
	if dec.More() {
		return nil, nil, badRequest("trailing data after the request body")
	}
	if len(req.Model) == 0 {
		return nil, nil, badRequest(`request body has no "model" spec`)
	}
	spec, err := modelspec.Parse(req.Model)
	if err != nil {
		return nil, nil, err
	}
	q := make(url.Values, len(req.Params))
	for k, v := range req.Params {
		q.Set(k, v)
	}
	return q, spec, nil
}

// readBody reads a bounded request body; oversized bodies map to 413.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxJobBody))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return nil, overBudget("request body exceeds %d bytes", maxJobBody)
		}
		return nil, badRequest("reading request body: %v", err)
	}
	return body, nil
}

// handleEndpointPost adapts an endpoint's query plan to the POST form:
// the body carries an inline model spec, and the canonical key it
// compiles to is the same identity the GET spine caches, delegates, and
// singleflights on — so a spec equivalent to a preset hits the preset's
// cache entries.
func (s *Server) handleEndpointPost(endpoint string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body, err := readBody(w, r)
		if err != nil {
			s.fail(w, r, endpoint, err)
			return
		}
		q, spec, err := parseInlineBody(body)
		if err != nil {
			s.fail(w, r, endpoint, err)
			return
		}
		bq, err := s.buildQuery(endpoint, q, spec)
		if err != nil {
			s.fail(w, r, endpoint, err)
			return
		}
		// Ring delegation re-sends this request to the key's owner; restore
		// the consumed body so the forwarded copy carries it.
		r.Body = io.NopCloser(bytes.NewReader(body))
		r.ContentLength = int64(len(body))
		s.serveQuery(w, r, endpoint, bq.key, func(ctx context.Context) (any, error) {
			return bq.compute(ctx, nil)
		})
	}
}

// bettiZ2 computes GF(2) Betti numbers, threading the per-dimension rank
// checkpoint seam when a job checkpoint log is attached: ranks recorded
// by a killed attempt are trusted and skipped, newly reduced ranks are
// persisted as soon as they complete.
func (s *Server) bettiZ2(ctx context.Context, c *topology.Complex, ck *jobs.CheckpointLog) ([]int, error) {
	if ck == nil {
		return s.engine.BettiZ2Ctx(ctx, c)
	}
	hash := c.CanonicalHash()
	return s.engine.BettiZ2CtxResume(ctx, c, ck.KnownRanks(hash), func(d, rank int) {
		if err := ck.PutRank(hash, d, rank); err != nil {
			s.cfg.Log.Printf("serve: rank checkpoint: %v", err)
		}
	})
}

// bettiGFp and bettiQ are the dense-field engines behind the same Morse
// switch as the GF(2) path; the pass never changes their results.
func (s *Server) bettiGFp(c *topology.Complex, p int64) ([]int, error) {
	if s.cfg.DisableMorse {
		return homology.BettiGFp(c, p)
	}
	return homology.BettiGFpMorse(c, p)
}

func (s *Server) bettiQ(c *topology.Complex) []int {
	if s.cfg.DisableMorse {
		return homology.BettiQ(c)
	}
	return homology.BettiQMorse(c)
}

// buildPseudosphere serves psi(S^n; V) (Definition 3) statistics with
// optional Betti numbers and connectivity.
func (s *Server) buildPseudosphere(q url.Values) (endpointQuery, error) {
	n, err := qInt(q, "n", 2)
	if err != nil {
		return endpointQuery{}, err
	}
	values, err := qValues(q)
	if err == nil && (n < 0 || n > modelspec.MaxN) {
		err = badRequest("n=%d out of range [0, %d]", n, modelspec.MaxN)
	}
	if err != nil {
		return endpointQuery{}, err
	}
	withBetti := q.Get("betti") != "false"
	price := func() error {
		facets := int64(1)
		for i := 0; i <= n; i++ {
			facets = satMulServe(facets, int64(len(values)))
		}
		if facets > s.cfg.MaxFacets {
			return overBudget("psi(S^%d; %d values) has %d facets, budget %d", n, len(values), facets, s.cfg.MaxFacets)
		}
		return nil
	}
	return endpointQuery{
		key:   fmt.Sprintf("n=%d|values=%s|betti=%v", n, canonicalValues(values), withBetti),
		price: price,
		compute: func(ctx context.Context, ck *jobs.CheckpointLog) (any, error) {
			if err := price(); err != nil {
				return nil, err
			}
			ps, err := core.Uniform(core.ProcessSimplex(n), values)
			if err != nil {
				return nil, badRequestError{msg: err.Error()}
			}
			out := struct {
				N            int          `json:"n"`
				Values       []string     `json:"values"`
				Complex      complexStats `json:"complex"`
				BettiZ2      []int        `json:"betti_z2,omitempty"`
				Connectivity *int         `json:"connectivity,omitempty"`
			}{N: n, Values: values, Complex: statsOf(ps)}
			if withBetti {
				betti, err := s.bettiZ2(ctx, ps, ck)
				if err != nil {
					return nil, err
				}
				out.BettiZ2 = betti
				conn, err := s.engine.ConnectivityCtx(ctx, ps)
				if err != nil {
					return nil, err
				}
				out.Connectivity = &conn
			}
			return out, nil
		},
	}, nil
}

// priceConstruction prices inst over input: the arithmetic insertion
// floor first — for a graphs adversary the EstimateFacets walk is itself
// as large as the answer, so an absurd spec must be refused without
// walking it — then the exact estimate.
func (s *Server) priceConstruction(inst *modelspec.Instance, input topology.Simplex) (int64, error) {
	if floor := inst.InsertionFloor(); floor > s.cfg.MaxFacets {
		return floor, overBudget("%s has at least %d facet insertions, budget %d", inst.Key, floor, s.cfg.MaxFacets)
	}
	return inst.Estimate(input)
}

// admitConstruction prices the construction with the roundop seam and
// rejects it if it exceeds the facet budget.
func (s *Server) admitConstruction(inst *modelspec.Instance) (int64, error) {
	est, err := s.priceConstruction(inst, inputSimplex(inst.M))
	if err != nil {
		return 0, err
	}
	if est > s.cfg.MaxFacets {
		return est, overBudget("%s estimates %d facet insertions, budget %d", inst.Key, est, s.cfg.MaxFacets)
	}
	return est, nil
}

// buildRounds serves the r-round complex R^r(S^m) of a model.
func (s *Server) buildRounds(q url.Values, spec *modelspec.Spec) (endpointQuery, error) {
	inst, err := resolveModel(q, spec)
	if err != nil {
		return endpointQuery{}, err
	}
	return endpointQuery{
		key:   inst.Key,
		price: func() error { _, err := s.admitConstruction(inst); return err },
		compute: func(ctx context.Context, ck *jobs.CheckpointLog) (any, error) {
			est, err := s.admitConstruction(inst)
			if err != nil {
				return nil, err
			}
			res, err := s.buildModel(ctx, inst, inputSimplex(inst.M), ck)
			if err != nil {
				return nil, err
			}
			return struct {
				Model           string               `json:"model"`
				Params          modelspec.ParamsJSON `json:"params"`
				EstimatedFacets int64                `json:"estimated_facet_insertions"`
				Complex         complexStats         `json:"complex"`
				Views           int                  `json:"views"`
			}{inst.Model, inst.Params, est, statsOf(res.Complex), len(res.Views)}, nil
		},
	}, nil
}

// buildModel constructs the r-round complex, checkpointing at roundop
// shard boundaries when a job checkpoint log is attached. Model
// conventions (like async's empty-below-threshold inputs) live in the
// compiled instance — serve has no per-model checks.
func (s *Server) buildModel(ctx context.Context, inst *modelspec.Instance, input topology.Simplex, ck *jobs.CheckpointLog) (*pc.Result, error) {
	if res, handled, err := s.distBuild(ctx, inst, input, ck); handled {
		return res, err
	}
	if ck == nil {
		return inst.Build(ctx, input, s.cfg.Workers)
	}
	return inst.BuildCkpt(ctx, input, s.cfg.Workers, s.cfg.JobCheckpointEvery, ck)
}

// buildConnectivity serves Betti numbers and connectivity of a model's
// round complex over GF(2) (cancellable, cached by canonical hash via the
// engine), GF(p), or Q. All three fields run behind the engine's
// coreduction pass (unless the server was started with -no-morse). An
// optional upto=k parameter (GF(2) only) caps the reduction at dimension
// k: the response then reports Betti numbers 0..k and min(connectivity, k)
// — top-dimensional boundary matrices are never reduced, which is the
// cheap way to ask "is this complex at least k-connected?".
func (s *Server) buildConnectivity(q url.Values, spec *modelspec.Spec) (endpointQuery, error) {
	inst, err := resolveModel(q, spec)
	if err != nil {
		return endpointQuery{}, err
	}
	field := q.Get("field")
	if field == "" {
		field = "z2"
	}
	upto := -1
	if raw := q.Get("upto"); raw != "" {
		if upto, err = qInt(q, "upto", -1); err != nil {
			return endpointQuery{}, err
		}
		if upto < 0 {
			return endpointQuery{}, badRequest("upto=%d must be nonnegative", upto)
		}
		if field != "z2" {
			return endpointQuery{}, badRequest("upto requires field=z2 (got field=%q)", field)
		}
	}
	p := 0
	switch field {
	case "z2", "q":
	case "gfp":
		if p, err = qInt(q, "p", 3); err != nil {
			return endpointQuery{}, err
		}
		// Validate the modulus here, not in homology.BettiGFp after a full
		// construction: a bad p must cost a 400, not a built complex — and
		// BettiGFp's Fermat inverses are silently wrong for composite p.
		if p > maxGFpP {
			return endpointQuery{}, badRequest("p=%d exceeds the limit of %d", p, maxGFpP)
		}
		if !isPrime(p) {
			return endpointQuery{}, badRequest("p=%d is not a prime", p)
		}
	default:
		return endpointQuery{}, badRequest("unknown field %q (want z2, gfp, or q)", field)
	}
	key := inst.Key + "|field=" + field
	if field == "gfp" {
		key += "|p=" + strconv.Itoa(p)
	}
	if upto >= 0 {
		key += "|upto=" + strconv.Itoa(upto)
	}
	return endpointQuery{
		key:   key,
		price: func() error { _, err := s.admitConstruction(inst); return err },
		compute: func(ctx context.Context, ck *jobs.CheckpointLog) (any, error) {
			if _, err := s.admitConstruction(inst); err != nil {
				return nil, err
			}
			res, err := s.buildModel(ctx, inst, inputSimplex(inst.M), ck)
			if err != nil {
				return nil, err
			}
			c := res.Complex
			var betti []int
			switch {
			case field == "z2" && upto >= 0:
				// Capped vectors are partial, so they bypass the rank
				// checkpoint seam (whose entries must stay full-matrix
				// ranks); the engine caches them under cap-decorated keys.
				if betti, err = s.engine.BettiZ2UpToCtx(ctx, c, upto); err != nil {
					return nil, err
				}
			case field == "z2":
				if betti, err = s.bettiZ2(ctx, c, ck); err != nil {
					return nil, err
				}
			case field == "gfp":
				if betti, err = s.bettiGFp(c, int64(p)); err != nil {
					return nil, badRequestError{msg: err.Error()}
				}
			case field == "q":
				betti = s.bettiQ(c)
			}
			conn := connectivityOf(c, betti)
			var uptoOut *int
			if upto >= 0 {
				uptoOut = &upto
			}
			return struct {
				Model        string               `json:"model"`
				Params       modelspec.ParamsJSON `json:"params"`
				Field        string               `json:"field"`
				P            int                  `json:"p,omitempty"`
				Upto         *int                 `json:"upto,omitempty"`
				Complex      complexStats         `json:"complex"`
				Betti        []int                `json:"betti"`
				Connectivity int                  `json:"connectivity"`
			}{inst.Model, inst.Params, field, p, uptoOut, statsOf(c), betti, conn}, nil
		},
	}, nil
}

// connectivityOf derives the connectivity verdict from non-reduced Betti
// numbers, matching homology.Connectivity's conventions.
func connectivityOf(c *topology.Complex, betti []int) int {
	if c.IsEmpty() {
		return -2
	}
	reduced := make([]int, len(betti))
	copy(reduced, betti)
	if len(reduced) > 0 {
		reduced[0]--
	}
	k := -1
	for d := 0; d < len(reduced); d++ {
		if reduced[d] != 0 {
			return k
		}
		k = d
	}
	return k
}

// buildDecision runs the exact k-set-agreement solvability search
// (Theorems 5/7 shape: is the task solvable on this protocol complex?)
// over the model's round complex built from every input assignment. The
// search itself is not checkpointed — its state is a backtracking
// frontier, not a partition of independent shards — so a resumed
// decision job recomputes (the per-complex Betti ranks it needs still
// restore from the engine's persistent cache).
func (s *Server) buildDecision(q url.Values, spec *modelspec.Spec) (endpointQuery, error) {
	inst, err := resolveModel(q, spec)
	if err != nil {
		return endpointQuery{}, err
	}
	agree, err := qInt(q, "agree", 1)
	if err == nil && agree < 1 {
		err = badRequest("agree=%d must be positive", agree)
	}
	if err != nil {
		return endpointQuery{}, err
	}
	values, err := qValues(q)
	if err != nil {
		return endpointQuery{}, err
	}
	limit := s.cfg.NodeLimit
	if raw := q.Get("limit"); raw != "" {
		v, err := strconv.ParseInt(raw, 10, 64)
		if err != nil || v <= 0 {
			return endpointQuery{}, badRequest("limit=%q is not a positive integer", raw)
		}
		if v < limit {
			limit = v
		}
	}
	includeMap := q.Get("include_map") == "true"
	price := func() error {
		// There are |values|^(n+1) input facets, so the enumeration itself
		// is the memory hazard: price the count arithmetically (saturating)
		// and refuse before materializing a single simplex.
		numInputs := int64(1)
		for i := 0; i <= inst.N; i++ {
			numInputs = satMulServe(numInputs, int64(len(values)))
		}
		if numInputs > s.cfg.MaxFacets {
			return overBudget("%d^%d = %d input facets exceeds budget %d", len(values), inst.N+1, numInputs, s.cfg.MaxFacets)
		}
		// The protocol complex unions R^r over every input facet; facets
		// differ only in labels, so one uniform representative prices them
		// all without enumerating the rest.
		perInput, err := s.priceConstruction(inst, uniformInputFacet(inst.N, values[0]))
		if err != nil {
			return err
		}
		if total := satMulServe(perInput, numInputs); total > s.cfg.MaxFacets {
			return overBudget("%d inputs x %d facet insertions exceeds budget %d", numInputs, perInput, s.cfg.MaxFacets)
		}
		return nil
	}
	return endpointQuery{
		key:   fmt.Sprintf("%s|agree=%d|values=%s|limit=%d|map=%v", inst.Key, agree, canonicalValues(values), limit, includeMap),
		price: price,
		compute: func(ctx context.Context, _ *jobs.CheckpointLog) (any, error) {
			if err := price(); err != nil {
				return nil, err
			}
			inputs := core.InputFacets(inst.N, values)
			res := pc.NewResult()
			for _, input := range inputs {
				sub, err := inst.Build(ctx, input, s.cfg.Workers)
				if err != nil {
					return nil, err
				}
				res.Merge(sub)
			}
			ann := task.AnnotateViews(res.Complex, res.Views)
			bits := task.SearchSpaceLog2(ann)
			if bits > s.cfg.MaxSearchBits {
				return nil, overBudget("decision search space is 2^%.0f candidates, budget 2^%.0f", bits, s.cfg.MaxSearchBits)
			}
			dm, found, err := task.FindDecisionParallelCtx(ctx, ann, agree, limit, s.cfg.Workers)
			if err != nil {
				return nil, err
			}
			out := struct {
				Model         string               `json:"model"`
				Params        modelspec.ParamsJSON `json:"params"`
				Agree         int                  `json:"agree"`
				Values        []string             `json:"values"`
				Complex       complexStats         `json:"complex"`
				SearchBits    float64              `json:"search_space_bits"`
				NodeLimit     int64                `json:"node_limit"`
				Solvable      bool                 `json:"solvable"`
				DecisionMap   []decisionRow        `json:"decision_map,omitempty"`
				DecisionVerts int                  `json:"decision_vertices,omitempty"`
			}{inst.Model, inst.Params, agree, values, statsOf(res.Complex), bits, limit, found, nil, len(dm)}
			if includeMap && found {
				out.DecisionMap = decisionRows(dm)
			}
			return out, nil
		},
	}, nil
}

// decisionRow is one vertex assignment of a decision map.
type decisionRow struct {
	P        int    `json:"p"`
	View     string `json:"view"`
	Decision string `json:"decision"`
}

func decisionRows(dm task.DecisionMap) []decisionRow {
	rows := make([]decisionRow, 0, len(dm))
	for v, val := range dm {
		rows = append(rows, decisionRow{P: v.P, View: v.Label, Decision: val})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].P != rows[j].P {
			return rows[i].P < rows[j].P
		}
		return rows[i].View < rows[j].View
	})
	return rows
}

// canonicalValues renders a value set for cache keys.
func canonicalValues(values []string) string {
	sorted := make([]string, len(values))
	copy(sorted, values)
	sort.Strings(sorted)
	out := ""
	for i, v := range sorted {
		if i > 0 {
			out += ","
		}
		out += v
	}
	return out
}

// satMulServe mirrors roundop's saturating multiply for local budgets.
func satMulServe(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	const max = int64(^uint64(0) >> 1)
	if a > max/b {
		return max
	}
	return a * b
}
