package main

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// complexJSON is the complex description every endpoint returns.
type complexJSON struct {
	Dim       int    `json:"dim"`
	FVector   []int  `json:"f_vector"`
	Facets    int    `json:"facets"`
	Simplices int    `json:"simplices"`
	Euler     int    `json:"euler_characteristic"`
	Hash      string `json:"canonical_hash"`
}

// bodyJSON is the union of the endpoints' response fields the checks read.
type bodyJSON struct {
	Complex      *complexJSON `json:"complex"`
	Betti        []int        `json:"betti"`
	BettiZ2      []int        `json:"betti_z2"`
	Connectivity *int         `json:"connectivity"`
	Upto         *int         `json:"upto"`
	Estimated    *int64       `json:"estimated_facet_insertions"`
	Solvable     *bool        `json:"solvable"`
	Values       []string     `json:"values"`
}

// checkResponse validates a 200 response body against what the paper and
// the request fix, independently of any stored answer:
//   - the f-vector's alternating sum is the reported Euler characteristic,
//     and its sum the simplex count;
//   - Euler–Poincaré: the alternating sum of the Betti numbers equals it
//     too, on every full (not dimension-capped) Betti vector;
//   - Lemma 4: a pseudosphere psi(S^n; V), and A^1 with m = n (a
//     pseudosphere by Lemma 11), has top Betti number prod(|V_i| - 1)
//     and no other reduced homology;
//   - asynchronous k-set agreement is solvable exactly when k > f, or
//     trivially when k covers the value set or the processes.
func checkResponse(r request, body []byte) (bodyJSON, error) {
	var b bodyJSON
	if err := json.Unmarshal(body, &b); err != nil {
		return b, fmt.Errorf("decode: %v", err)
	}
	c := b.Complex
	if c == nil {
		return b, fmt.Errorf("no complex in response")
	}
	if len(c.Hash) != 64 {
		return b, fmt.Errorf("canonical hash %q is not 64 hex digits", c.Hash)
	}
	if chi, size := alternating(c.FVector), sum(c.FVector); chi != c.Euler || size != c.Simplices {
		return b, fmt.Errorf("f-vector %v gives chi=%d size=%d, response says %d/%d", c.FVector, chi, size, c.Euler, c.Simplices)
	}
	if c.Facets < 1 || c.Facets > c.Simplices {
		return b, fmt.Errorf("facets=%d out of range for %d simplices", c.Facets, c.Simplices)
	}
	betti := b.Betti
	if r.Endpoint == "pseudosphere" {
		betti = b.BettiZ2
	}
	full := betti != nil && b.Upto == nil
	if full && alternating(betti) != c.Euler {
		return b, fmt.Errorf("Euler–Poincaré: betti %v alternate to %d, f-vector to %d", betti, alternating(betti), c.Euler)
	}
	if full && b.Connectivity != nil && *b.Connectivity != connectivityOf(betti) {
		return b, fmt.Errorf("connectivity %d disagrees with betti %v", *b.Connectivity, betti)
	}
	if r.Endpoint == "rounds" && (b.Estimated == nil || *b.Estimated < int64(c.Facets)) {
		return b, fmt.Errorf("estimated insertions %v below %d facets", b.Estimated, c.Facets)
	}
	if full {
		if views, n, ok := pseudosphereShape(r); ok {
			want := 1
			for i := 0; i <= n; i++ {
				want *= views - 1
			}
			if err := wedgeOfSpheres(betti, n, want); err != nil {
				return b, fmt.Errorf("Lemma 4: %v", err)
			}
		}
	}
	if r.Endpoint == "decision" && r.Params.Get("model") == "async" {
		k, f, n := intParam(r, "agree", 1), intParam(r, "f", 1), intParam(r, "n", 2)
		want := k > f || k >= len(b.Values) || k >= n+1
		if b.Solvable == nil || *b.Solvable != want {
			return b, fmt.Errorf("async %d-set agreement with f=%d over %d values: solvable=%v, want %v", k, f, len(b.Values), b.Solvable, want)
		}
	}
	return b, nil
}

// pseudosphereShape reports (|V_i|, n) when the request's complex is a
// single pseudosphere with |V_i| labels per process.
func pseudosphereShape(r request) (views, n int, ok bool) {
	q := r.Params
	switch {
	case r.Endpoint == "pseudosphere":
		values := 2
		if raw := q.Get("values"); raw != "" {
			values = len(strings.Split(raw, ","))
		}
		return values, intParam(r, "n", 2), true
	case r.Endpoint == "connectivity" && r.Spec == nil && q.Get("model") == "async" &&
		intParam(r, "r", 1) == 1 && q.Get("m") == "" && (q.Get("field") == "" || q.Get("field") == "z2"):
		// A^1 over the full input simplex: process i sees itself plus any
		// set of at least n-f of the other n processes.
		n, f := intParam(r, "n", 2), intParam(r, "f", 1)
		views := 0
		for j := max(0, n-f); j <= n; j++ {
			views += binomial(n, j)
		}
		return views, n, true
	}
	return 0, 0, false
}

// wedgeOfSpheres checks betti = (1, 0, ..., 0, top) for a dimension-n
// complex.
func wedgeOfSpheres(betti []int, n, top int) error {
	if len(betti) != n+1 {
		return fmt.Errorf("betti %v has %d entries, want %d", betti, len(betti), n+1)
	}
	for d, b := range betti {
		want := 0
		switch {
		case d == n && n == 0:
			want = top + 1
		case d == n:
			want = top
		case d == 0:
			want = 1
		}
		if b != want {
			return fmt.Errorf("betti %v: b_%d = %d, want %d", betti, d, b, want)
		}
	}
	return nil
}

// connectivityOf is the largest k with reduced Betti numbers 0..k all
// zero (-1 when b~_0 is not), for a nonempty complex.
func connectivityOf(betti []int) int {
	k := -1
	for d, b := range betti {
		if d == 0 {
			b--
		}
		if b != 0 {
			return k
		}
		k = d
	}
	return k
}

func alternating(xs []int) int {
	s := 0
	for i, x := range xs {
		if i%2 == 0 {
			s += x
		} else {
			s -= x
		}
	}
	return s
}

func sum(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}

func binomial(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	out := 1
	for i := 0; i < k; i++ {
		out = out * (n - i) / (i + 1)
	}
	return out
}

func intParam(r request, name string, def int) int {
	raw := r.Params.Get(name)
	if raw == "" {
		return def
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return def
	}
	return v
}

// bigJob is the big-job instance: z2 connectivity of A^1 n=4 f=2, whose
// canonical hash the job-resume test pins (internal/jobs/resume_test.go).
var bigJob = struct {
	spec   string
	req    request
	hash   string
	facets int
}{
	spec:   `{"endpoint":"connectivity","params":{"model":"async","n":"4","f":"2","r":"1"}}`,
	req:    getRequest("/v1/connectivity?model=async&n=4&f=2&r=1"),
	hash:   "a632d9743fd7b42e57c0ab972a10022671401c376e8e95af98afc07fa8161716",
	facets: 161051,
}

// checkBigJob adds the pinned hash and facet count to checkResponse.
func checkBigJob(body []byte) (bodyJSON, error) {
	b, err := checkResponse(bigJob.req, body)
	if err != nil {
		return b, err
	}
	if b.Complex.Hash != bigJob.hash || b.Complex.Facets != bigJob.facets {
		return b, fmt.Errorf("A^1 n=4 f=2: hash %s facets %d, want %s %d", b.Complex.Hash, b.Complex.Facets, bigJob.hash, bigJob.facets)
	}
	return b, nil
}
