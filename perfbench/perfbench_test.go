package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"pseudosphere/internal/store"
)

func TestSameSeedSameRequests(t *testing.T) {
	for cycle := 0; cycle < 3; cycle++ {
		a, b := coldCycle(7, cycle), coldCycle(7, cycle)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("cold cycle %d differs between two draws with seed 7", cycle)
		}
		if reflect.DeepEqual(a, coldCycle(8, cycle)) {
			t.Fatalf("cold cycle %d is the same for seeds 7 and 8", cycle)
		}
	}
	u := loadgenUniverse()
	stream := func(d drawer, seed int64, c int) []request {
		next := d(clientRand(seed, c))
		out := make([]request, 2000)
		for i := range out {
			out[i] = next()
		}
		return out
	}
	for name, d := range map[string]drawer{"warm": warmDraw(u), "fleet": zipfDraw(u)} {
		a := stream(d, 7, 1)
		if !reflect.DeepEqual(a, stream(d, 7, 1)) {
			t.Fatalf("%s stream differs between two draws with seed 7", name)
		}
		if reflect.DeepEqual(a, stream(d, 8, 1)) || reflect.DeepEqual(a, stream(d, 7, 0)) {
			t.Fatalf("%s stream does not change with the seed and the client", name)
		}
	}
}

func TestColdCycleKeysDistinct(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		if _, err := coldPlan(seed, 8); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestColdCycleCoversEveryEndpointAndPreset(t *testing.T) {
	endpoints, models := map[string]bool{}, map[string]bool{}
	posts := 0
	for _, r := range coldCycle(1, 0) {
		endpoints[r.Endpoint] = true
		if m := r.Params.Get("model"); m != "" {
			models[m] = true
		}
		if r.Method == "POST" {
			posts++
		}
	}
	for _, e := range []string{"pseudosphere", "rounds", "connectivity", "decision"} {
		if !endpoints[e] {
			t.Errorf("no %s request in a cold cycle", e)
		}
	}
	for _, m := range []string{"async", "sync", "semisync", "iis", "custom"} {
		if !models[m] {
			t.Errorf("no %s preset in a cold cycle", m)
		}
	}
	if posts == 0 {
		t.Error("no inline-spec POST in a cold cycle")
	}
}

func TestInlineTwinSharesKey(t *testing.T) {
	for _, r := range loadgenUniverse() {
		in, ok := r.asInline()
		if !ok {
			continue
		}
		a, err := canonicalKey(r)
		if err != nil {
			t.Fatal(err)
		}
		b, err := canonicalKey(in)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("%s: GET key %s, POST key %s", r.label(), a, b)
		}
	}
}

func TestWarmDrawAlternatesLoadgenForms(t *testing.T) {
	next := warmDraw(loadgenUniverse())(clientRand(7, 0))
	for i := 0; i < 400; i++ {
		r := next()
		want := "GET"
		if i%2 == 0 && r.Endpoint != "pseudosphere" {
			want = "POST"
		}
		if r.Method != want {
			t.Fatalf("request %d: %s, want %s", i, r.label(), want)
		}
	}
}

func TestDropFillsKeepsOwnedKeys(t *testing.T) {
	nodes, err := startFleet(t.TempDir(), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(nodes)
	bodies := map[string][]byte{}
	for _, r := range loadgenUniverse() {
		key, err := canonicalKey(r)
		if err != nil {
			t.Fatal(err)
		}
		bodies[key] = []byte(`{}`)
	}
	stores := make([]*store.Store, len(nodes))
	for i, n := range nodes {
		if stores[i], err = store.Open(n.dirs[0]); err != nil {
			t.Fatal(err)
		}
		for key, body := range bodies {
			if err := stores[i].Put(key, body); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := dropFills(nodes, bodies, &trashDir{dir: t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	ring := ringOf(urlsOf(nodes))
	for i, n := range nodes {
		for key := range bodies {
			_, has := stores[i].Get(key)
			if own := ring.Owner(key) == n.url; has != own {
				t.Errorf("%s: holds %s = %v, owns it = %v", n.url, key, has, own)
			}
		}
	}
}

func TestTailPicksHighestSupportedPercentile(t *testing.T) {
	for _, tc := range []struct {
		n      int
		q      float64
		beyond int
	}{
		{10000, 99.9, 10},
		{1000, 99, 10},
		{100, 90, 10},
		{50, 50, 25},
		{5, 50, 2},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		got := tailOf(xs)
		if got.Q != tc.q || got.Beyond != tc.beyond || got.Samples != tc.n {
			t.Errorf("n=%d: got %+v, want q=%v beyond=%d samples=%d", tc.n, got, tc.q, tc.beyond, tc.n)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if got := percentile(xs, 50); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
	if got := percentile(xs, 100); got != 4 {
		t.Errorf("max = %v", got)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 40},
		{ID: 2, Parent: 0, Start: 30, End: 50}, // overlaps its sibling
		{ID: 3, Parent: 1, Start: 15, End: 20},
	}
	if got, want := selfTimes(spans), []int64{60, 25, 20, 5}; !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

// a1Body is a connectivity response for A^1 n=4 f=2 as the server
// renders it, with the given Betti vector and an f-vector whose top
// entry is shifted to give Euler characteristic chi.
func a1Body(betti []int, chi int) []byte {
	top := 161051 + chi - 100001
	body, _ := json.Marshal(map[string]any{
		"complex": map[string]any{
			"dim": 4, "f_vector": []int{55, 1210, 13310, 73205, top}, "facets": 161051,
			"simplices": 87780 + top, "euler_characteristic": chi, "canonical_hash": bigJob.hash,
		},
		"betti":        betti,
		"connectivity": 3,
	})
	return body
}

func TestChecksCatchWrongAnswers(t *testing.T) {
	if _, err := checkBigJob(a1Body([]int{1, 0, 0, 0, 100000}, 100001)); err != nil {
		t.Fatalf("the right answer failed: %v", err)
	}
	for name, tc := range map[string]struct {
		betti []int
		chi   int
	}{
		"Euler–Poincaré": {[]int{1, 0, 0, 0, 99999}, 100001},
		"connectivity":   {[]int{1, 0, 0, 1, 100001}, 100001},
		"Lemma 4":        {[]int{1, 0, 0, 0, 100001}, 100002},
	} {
		_, err := checkBigJob(a1Body(tc.betti, tc.chi))
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("betti %v: error %v, want a %s failure", tc.betti, err, name)
		}
	}
	wrongHash := bytes.Replace(a1Body([]int{1, 0, 0, 0, 100000}, 100001), []byte(bigJob.hash[:8]), []byte("00000000"), 1)
	if _, err := checkBigJob(wrongHash); err == nil {
		t.Error("a wrong canonical hash passed")
	}
	flp := getRequest("/v1/decision?model=async&n=2&f=1&r=1&agree=1")
	body := []byte(`{"complex":{"dim":2,"f_vector":[48,204,216],"facets":216,"simplices":468,"euler_characteristic":60,"canonical_hash":"` + bigJob.hash + `"},"values":["0","1"],"solvable":true}`)
	if _, err := checkResponse(flp, body); err == nil {
		t.Error("solvable async consensus with f=1 passed")
	}
}

func TestFleetRunEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a fleet and computes the loadgen universe")
	}
	var out, errs bytes.Buffer
	code := realMain([]string{"--workload", "fleet-zipf", "--seed", "3", "--seconds", "1", "--workdir", t.TempDir()}, &out, &errs)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errs.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]metric
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("result %+v; stderr %s", res, errs.String())
	}
	for _, name := range []string{"setup_s", "p50_ms", "p90_ms", "qps", "peak_heap_mb"} {
		if m, ok := res.Metrics[name]; !ok || m.Value <= 0 {
			t.Errorf("metric %s = %+v", name, m)
		}
	}
	var rec struct {
		Record struct {
			Nproc       int                `json:"nproc"`
			FilledShare map[string]float64 `json:"filled_share"`
		} `json:"record"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &rec); err != nil || rec.Record.Nproc == 0 {
		t.Fatalf("no run record before the result: %q (%v)", lines[len(lines)-2], err)
	}
	if rec.Record.FilledShare["median"] <= 0 {
		t.Errorf("no request crossed the hop: filled_share %v", rec.Record.FilledShare)
	}
}
