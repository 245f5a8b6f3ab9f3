package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"sort"
	"strings"

	"pseudosphere/internal/modelspec"
)

// request is one HTTP request of a workload, plus what the replay and the
// checks need to know about it.
type request struct {
	Endpoint string // pseudosphere, rounds, connectivity, or decision
	Method   string // GET or POST
	Path     string // path with query for GET, path alone for POST
	Body     []byte // POST body: {"model": spec, "params": {...}}
	Params   url.Values
	Spec     []byte // inline model spec of a POST, nil for GET
}

func getRequest(path string) request {
	u, err := url.Parse(path)
	if err != nil {
		panic(fmt.Sprintf("perfbench: bad built-in query %q: %v", path, err))
	}
	return request{
		Endpoint: strings.TrimPrefix(u.Path, "/v1/"),
		Method:   "GET",
		Path:     path,
		Params:   u.Query(),
	}
}

func postRequest(endpoint string, spec []byte, params map[string]string) request {
	doc := map[string]any{"model": json.RawMessage(spec)}
	q := url.Values{}
	if len(params) > 0 {
		doc["params"] = params
		for k, v := range params {
			q.Set(k, v)
		}
	}
	body, err := json.Marshal(doc)
	if err != nil {
		panic(err)
	}
	return request{Endpoint: endpoint, Method: "POST", Path: "/v1/" + endpoint, Body: body, Params: q, Spec: spec}
}

// label names the request for logs and errors.
func (r request) label() string {
	if r.Method == "POST" {
		return "POST " + r.Path + " " + string(r.Body)
	}
	return "GET " + r.Path
}

// modelParams are the query parameters that belong to a preset model.
var modelParams = map[string]bool{"model": true, "n": true, "m": true, "f": true, "k": true, "c1": true, "c2": true, "d": true, "r": true}

// asInline turns a GET on a model endpoint into the equivalent POST with
// an inline preset-form spec; the server compiles both to one canonical
// key. ok is false for the pseudosphere endpoint, which takes no model.
func (r request) asInline() (request, bool) {
	name := r.Params.Get("model")
	if name == "" || r.Method != "GET" {
		return request{}, false
	}
	spec := modelspec.Spec{Name: name, Params: map[string]int{}}
	rest := map[string]string{}
	for k := range r.Params {
		v := r.Params.Get(k)
		switch {
		case k == "model":
		case modelParams[k]:
			var n int
			if _, err := fmt.Sscan(v, &n); err != nil {
				return request{}, false
			}
			spec.Params[k] = n
		default:
			rest[k] = v
		}
	}
	doc, err := json.Marshal(spec)
	if err != nil {
		return request{}, false
	}
	return postRequest(r.Endpoint, doc, rest), true
}

// loadgenUniverse is cmd/loadgen's rank-ordered query universe (rank 0
// is the hottest under a Zipf draw), repeated here because a main
// package cannot be imported.
func loadgenUniverse() []request {
	var qs []string
	for _, model := range []string{"async", "sync", "iis"} {
		for n := 2; n <= 3; n++ {
			for r := 1; r <= 2; r++ {
				switch model {
				case "async":
					qs = append(qs, fmt.Sprintf("/v1/connectivity?model=async&n=%d&f=1&r=%d", n, r))
				case "sync":
					qs = append(qs, fmt.Sprintf("/v1/connectivity?model=sync&n=%d&k=1&r=%d", n, r))
				case "iis":
					qs = append(qs, fmt.Sprintf("/v1/connectivity?model=iis&n=%d&r=%d", n, r))
				}
			}
		}
	}
	qs = append(qs,
		"/v1/connectivity?model=semisync&n=2&k=1&c1=1&c2=2&d=2&r=1",
		"/v1/rounds?model=async&n=3&f=2&r=1",
		"/v1/rounds?model=custom&n=2&k=1&r=2",
		"/v1/pseudosphere?n=2&values=0,1",
		"/v1/pseudosphere?n=3&values=0,1",
		"/v1/decision?model=async&n=2&f=1&r=1&agree=2",
		"/v1/decision?model=sync&n=2&k=1&r=1&agree=1",
	)
	out := make([]request, len(qs))
	for i, q := range qs {
		out[i] = getRequest(q)
	}
	return out
}

// zipfS is cmd/loadgen's default Zipf exponent.
const zipfS = 1.2

// clientRand is closed-loop client c's generator under seed.
func clientRand(seed int64, c int) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + int64(c)))
}

// A drawer makes one closed-loop client's request stream from the
// client's seeded generator.
type drawer func(rng *rand.Rand) func() request

// zipfDraw draws Zipf(s=zipfS) over the universe, rank 0 hottest.
func zipfDraw(universe []request) drawer {
	return func(rng *rand.Rand) func() request {
		z := rand.NewZipf(rng, zipfS, 1, uint64(len(universe)-1))
		return func() request { return universe[z.Uint64()] }
	}
}

// warmDraw runs cmd/loadgen's two request modes in equal measure: each
// client alternates a Zipf draw sent as a GET (loadgen's default) with
// one sent as a POST inline-spec body (loadgen -inline-spec, which leaves
// pseudosphere queries as GETs). Both forms compile to one canonical key.
func warmDraw(universe []request) drawer {
	twins := make([]request, len(universe))
	for i, r := range universe {
		if in, ok := r.asInline(); ok {
			twins[i] = in
		} else {
			twins[i] = r
		}
	}
	return func(rng *rand.Rand) func() request {
		z := rand.NewZipf(rng, zipfS, 1, uint64(len(universe)-1))
		post := false
		return func() request {
			i := z.Uint64()
			post = !post
			if post {
				return twins[i]
			}
			return universe[i]
		}
	}
}

// coldPresets is the fixed preset part of one cold-compute cycle: every
// endpoint over all five presets, complexes from about 10^2 to 2.5*10^5
// simplices. A^1 n=4 f=2 (161051 facets, 248831 simplices) is the top.
var coldPresets = []string{
	"/v1/connectivity?model=async&n=4&f=2&r=1",
	"/v1/connectivity?model=iis&n=3&r=2",
	"/v1/rounds?model=iis&n=2&r=3",
	"/v1/rounds?model=async&n=4&f=1&r=1",
	"/v1/connectivity?model=async&n=3&f=3&r=1",
	"/v1/connectivity?model=iis&n=4&r=1",
	"/v1/connectivity?model=semisync&n=3&k=1&c1=1&c2=2&d=2&r=2",
	"/v1/connectivity?model=async&n=3&f=2&r=1&field=q",
	"/v1/connectivity?model=async&n=3&f=2&r=1&field=gfp&p=3",
	"/v1/connectivity?model=async&n=3&f=2&r=1",
	"/v1/rounds?model=async&n=3&f=2&r=1",
	"/v1/rounds?model=custom&n=3&k=2&r=2",
	"/v1/rounds?model=sync&n=3&k=2&r=2",
	"/v1/connectivity?model=sync&n=4&k=2&r=1",
	"/v1/connectivity?model=sync&n=3&k=1&r=2",
	"/v1/connectivity?model=iis&n=2&r=2",
	"/v1/rounds?model=custom&n=3&k=1&r=2",
	"/v1/connectivity?model=sync&n=2&k=1&r=3",
	"/v1/connectivity?model=custom&n=2&k=2&r=3",
	"/v1/connectivity?model=iis&n=3&r=1",
	"/v1/rounds?model=async&n=3&f=1&r=1",
	"/v1/rounds?model=semisync&n=2&k=1&c1=1&c2=2&d=2&r=2",
	"/v1/rounds?model=sync&n=4&k=1&r=1",
	"/v1/connectivity?model=semisync&n=3&k=1&c1=1&c2=2&d=2&r=1",
	"/v1/connectivity?model=custom&n=2&k=1&r=2",
	"/v1/connectivity?model=semisync&n=2&k=1&c1=1&c2=2&d=2&r=1",
	"/v1/connectivity?model=async&n=2&f=1&r=1",
	"/v1/rounds?model=iis&n=2&r=1",
}

// coldDecisions are the decision searches of a cycle; each is issued
// with seeded value labels, so its key is fresh while its cost is not.
var coldDecisions = []struct {
	query  string
	values int
}{
	{"model=async&n=2&f=1&r=1&agree=1", 2},
	{"model=async&n=2&f=1&r=1&agree=2", 2},
	{"model=async&n=2&f=2&r=1&agree=2", 2},
	{"model=async&n=2&f=1&r=1&agree=2", 3},
	{"model=sync&n=2&k=1&r=1&agree=1", 2},
	{"model=sync&n=2&k=1&r=2&agree=1", 2},
	{"model=iis&n=2&r=1&agree=2", 2},
	{"model=async&n=2&f=1&r=1&agree=1", 3},
	{"model=async&n=2&f=2&r=1&agree=1", 2},
	{"model=sync&n=2&k=1&r=1&agree=1", 3},
	{"model=sync&n=2&k=1&r=2&agree=1", 3},
}

// coldSpheres are the pseudosphere shapes of a cycle (n, value count),
// also issued with seeded labels.
var coldSpheres = [][2]int{{2, 2}, {2, 3}, {2, 5}, {3, 2}, {3, 3}, {4, 2}, {4, 3}, {4, 4}, {5, 2}, {5, 3},
	{2, 8}, {2, 10}, {3, 4}, {3, 5}, {3, 6}, {4, 5}, {6, 2}}

// coldGraphMenus are the inline graph-menu adversaries of a cycle: a
// process count, rounds, and directed graphs. Each cycle relabels the
// processes by a seeded permutation, which changes the canonical key but
// not the cost.
var coldGraphMenus = []struct {
	processes, rounds int
	graphs            [][][2]int
}{
	{3, 2, [][][2]int{{{0, 1}, {1, 2}}, {{1, 0}, {2, 1}}, {{0, 1}, {0, 2}}}},
	{3, 3, [][][2]int{{{0, 1}, {1, 2}, {2, 0}}, {{0, 2}}, {{1, 0}, {1, 2}}}},
	{4, 2, [][][2]int{{{0, 1}, {1, 2}, {2, 3}}, {{3, 2}, {2, 1}, {1, 0}}, {{0, 3}, {1, 3}}, {{2, 0}}}},
	{4, 3, [][][2]int{{{0, 1}, {2, 3}}, {{1, 2}, {3, 0}}, {{0, 2}, {1, 3}, {2, 1}}}},
	{5, 2, [][][2]int{{{0, 1}, {1, 2}, {2, 3}, {3, 4}}, {{4, 0}, {0, 2}}, {{1, 3}, {3, 1}, {2, 4}}, {{0, 4}}, {{2, 0}, {4, 1}}}},
}

// coldCycle returns one cold-compute cycle: every request of the fixed
// menu once, with seeded relabelings. The order is fixed, so the heap and
// GC state each request meets does not vary with the seed. Within a cycle
// no canonical key repeats, so against a fresh store every response is a
// miss and every request computes.
func coldCycle(seed int64, cycle int) []request {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(cycle)))
	var out []request
	for _, q := range coldPresets {
		out = append(out, getRequest(q))
	}
	tag := func() string { return fmt.Sprintf("%04x", rng.Intn(1<<16)) }
	for _, d := range coldDecisions {
		// One prefix per request keeps the labels' sort order, and with it
		// the search order, identical to the plain 0,1,2 labelling.
		values := labels("v"+tag(), d.values)
		out = append(out, getRequest(fmt.Sprintf("/v1/decision?%s&values=%s", d.query, strings.Join(values, ","))))
	}
	for _, s := range coldSpheres {
		values := labels("x"+tag(), s[1])
		out = append(out, getRequest(fmt.Sprintf("/v1/pseudosphere?n=%d&values=%s", s[0], strings.Join(values, ","))))
	}
	for gi, g := range coldGraphMenus {
		perm := rng.Perm(g.processes)
		spec := graphSpec(g.processes, g.rounds, g.graphs, perm)
		endpoint := "connectivity"
		if gi%2 == 1 {
			endpoint = "rounds"
		}
		out = append(out, postRequest(endpoint, spec, nil))
	}
	// The inline preset-form twin of a GET would share its key, so the POST
	// share of presets uses models the GET list above leaves out.
	for _, q := range []string{"model=sync&n=3&k=2&r=1", "model=custom&n=4&k=1&r=1", "model=iis&n=4&r=1&field=q"} {
		if in, ok := getRequest("/v1/connectivity?" + q).asInline(); ok {
			out = append(out, in)
		}
	}
	return out
}

func labels(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%d", prefix, i)
	}
	return out
}

// graphSpec renders an adversary-form spec with process ids relabelled
// by perm.
func graphSpec(processes, rounds int, graphs [][][2]int, perm []int) []byte {
	type graph struct {
		Edges [][2]int `json:"edges"`
	}
	gs := make([]graph, len(graphs))
	for i, g := range graphs {
		edges := make([][2]int, len(g))
		for j, e := range g {
			edges[j] = [2]int{perm[e[0]], perm[e[1]]}
		}
		gs[i] = graph{Edges: edges}
	}
	doc, err := json.Marshal(map[string]any{
		"processes": processes,
		"rounds":    rounds,
		"adversary": map[string]any{"kind": "graphs", "graphs": gs},
	})
	if err != nil {
		panic(err)
	}
	return doc
}

// canonicalKey is the response-store key the server files a request
// under ("resp|endpoint|key"), derived through modelspec the way the
// handlers derive it. The replay looks responses up by it, and the
// self-tests use it to prove a cold cycle never repeats a key.
func canonicalKey(r request) (string, error) {
	if r.Endpoint == "pseudosphere" {
		return keyOf(r, nil), nil
	}
	inst, err := compile(r)
	if err != nil {
		return "", err
	}
	return keyOf(r, inst), nil
}

// keyOf renders the response-store key of r, whose model compiled to
// inst (nil for the pseudosphere endpoint).
func keyOf(r request, inst *modelspec.Instance) string {
	q := r.Params
	values := func() string {
		raw := q.Get("values")
		if raw == "" {
			raw = "0,1"
		}
		vs := strings.Split(raw, ",")
		sort.Strings(vs)
		return strings.Join(vs, ",")
	}
	if inst == nil {
		n := q.Get("n")
		if n == "" {
			n = "2"
		}
		return fmt.Sprintf("resp|pseudosphere|n=%s|values=%s|betti=%v", n, values(), q.Get("betti") != "false")
	}
	key := inst.Key
	switch r.Endpoint {
	case "connectivity":
		field := q.Get("field")
		if field == "" {
			field = "z2"
		}
		key += "|field=" + field
		if field == "gfp" {
			p := q.Get("p")
			if p == "" {
				p = "3"
			}
			key += "|p=" + p
		}
		if u := q.Get("upto"); u != "" {
			key += "|upto=" + u
		}
	case "decision":
		agree := q.Get("agree")
		if agree == "" {
			agree = "1"
		}
		key = fmt.Sprintf("%s|agree=%s|values=%s|limit=%d|map=%v", key, agree, values(), nodeLimit, q.Get("include_map") == "true")
	}
	return "resp|" + r.Endpoint + "|" + key
}

// nodeLimit is the server's default decision-search node budget.
const nodeLimit = 20_000_000

// compile resolves a request's model the way the handlers do: the inline
// spec of a POST, otherwise the preset query.
func compile(r request) (*modelspec.Instance, error) {
	if r.Spec == nil {
		return modelspec.FromQuery(r.Params)
	}
	spec, err := modelspec.Parse(r.Spec)
	if err != nil {
		return nil, err
	}
	return spec.Compile()
}
