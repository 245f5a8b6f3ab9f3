package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"pseudosphere/internal/cluster"
	"pseudosphere/internal/jobs"
	"pseudosphere/internal/obs"
	"pseudosphere/internal/serve"
	"pseudosphere/internal/store"
)

// env is one run's configuration.
type env struct {
	name    string // workload
	seed    int64
	seconds time.Duration
	trace   bool
	workdir string // this run's stores and job logs, removed at exit
	nproc   int
	log     func(format string, args ...any)
}

// outcome is what a workload measured.
type outcome struct {
	setup     []time.Duration // one per set-up repetition
	lat       []time.Duration // one per completed request, untraced
	windows   []window        // lat split into the run's measuring windows
	attempted int
	failed    int
	elapsed   time.Duration // timed phase
	peakHeap  float64       // MB
	gc0, gc1  gcSnapshot
	counters  map[string]uint64 // server counter deltas over the timed phase
	invalid   []string          // guard violations: the run does not count
	params    map[string]any    // the workload's parameters, for the record
	failures  []string          // the first few failed requests, for the record
	record    map[string]any    // further workload facts for the run record

	// pooled: p50_ms and p90_ms are taken over every request of the timed
	// phase at once, not per window. The workloads with short windows (a
	// cold cycle, a fleet window) pool, so at least 10 samples lie beyond
	// the p90 they report.
	pooled bool

	// Traced run only.
	report     layerReport
	units      int     // passes the replay made (cycles, jobs, or 1)
	facets     uint64  // replay facet insertions
	morseRem   uint64  // replay coreduction removals
	morseCrit  uint64  // replay critical cells
	flushes    uint64  // replay checkpoint flushes
	bytesPut   int64   // replay store payload bytes
	ckptBytes  int64   // replay checkpoint log bytes
	queueWait  float64 // ms, median job queue wait
	overheadMs float64 // traced minus untraced replay time per request
	spansPath  string
	describeOf map[string]float64 // big-job describe/construct/reduce split
}

// window is a slice of the timed phase: a cold cycle, a job, a fleet
// window, or one second of a steady loop. The request rate (and, unless
// the outcome is pooled, each latency percentile) is taken per window and
// the run reports the median, so one noisy stretch of a shared machine
// does not decide a run.
type window struct {
	lat  []time.Duration
	secs float64
}

func (o *outcome) addWindow(lat []time.Duration, secs float64) {
	o.windows = append(o.windows, window{lat: lat, secs: secs})
	o.lat = append(o.lat, lat...)
}

func newOutcome() *outcome {
	return &outcome{counters: map[string]uint64{}, params: map[string]any{}, record: map[string]any{}}
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if o.failed <= 5 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) guard(format string, args ...any) {
	o.invalid = append(o.invalid, fmt.Sprintf(format, args...))
}

// A run sets its workload up at least minSetupReps times, and up to
// maxSetupReps while the repetitions stay within setupBudget; setup_s
// is the median. A set-up that is a bare server start (about 40 us) so
// repeats for a second, not for a few milliseconds that one burst of
// another process on the machine can cover.
const (
	minSetupReps = 3
	maxSetupReps = 20_000
	setupBudget  = time.Second
)

// setUp runs boot repeatedly and returns the last result; the earlier
// ones are torn down. Each repetition counts the time boot reports.
func setUp[T any](o *outcome, boot func() (T, time.Duration, error), teardown func(T)) (T, error) {
	var last T
	var spent time.Duration
	for i := 0; i < minSetupReps || (i < maxSetupReps && spent < setupBudget); i++ {
		t0 := time.Now()
		v, took, err := boot()
		if err != nil {
			if i > 0 {
				teardown(last)
			}
			var zero T
			return zero, fmt.Errorf("set-up: %w", err)
		}
		o.setup = append(o.setup, took)
		spent += time.Since(t0)
		if i > 0 {
			teardown(last)
		}
		last = v
	}
	return last, nil
}

// timed makes boot report its whole run time to setUp.
func timed[T any](boot func() (T, error)) func() (T, time.Duration, error) {
	return func() (T, time.Duration, error) {
		t0 := time.Now()
		v, err := boot()
		return v, time.Since(t0), err
	}
}

// bootServer boots a standalone server on fresh directories and reports
// how long the server took to start: making the directories is the
// benchmark's own work, and on a shared file system its time swings from
// 10 to 350 us between runs.
func (e *env) bootServer(jobsToo bool) (*node, time.Duration, error) {
	storeDir, jobDir, err := nodeDirs(e.workdir, jobsToo)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	n, err := startNode(serve.Config{StoreDir: storeDir, JobDir: jobDir, Workers: e.nproc}, nil)
	return n, time.Since(t0), err
}

// startTimed begins the timed phase. It first collects the garbage set-up
// left, so peak_heap_mb is the timed phase's own.
func (e *env) startTimed(o *outcome) (time.Time, *heapSampler) {
	runtime.GC()
	o.gc0 = readGC()
	return time.Now(), startHeapSampler(20 * time.Millisecond)
}

func (e *env) endTimed(o *outcome, start time.Time, h *heapSampler) {
	o.elapsed = time.Since(start)
	o.peakHeap = h.Stop()
	o.gc1 = readGC()
}

// ---- cold-compute ----

// answered is a cold request with its checked response.
type answered struct {
	req  request
	body bodyJSON
	ok   bool
}

func runCold(e *env) (*outcome, error) {
	o := newOutcome()
	o.pooled = true
	client := newClient(1)
	defer client.CloseIdleConnections()
	// The run's cycles are planned, and proven to repeat no canonical key,
	// before set-up: setup_s times the server start alone, on a heap
	// collected of the planning's garbage.
	plan, err := coldPlan(e.seed, 2*int(e.seconds/time.Second))
	if err != nil {
		return nil, err
	}
	runtime.GC()
	boot := func() (*node, time.Duration, error) { return e.bootServer(false) }
	n, err := setUp(o, boot, (*node).close)
	if err != nil {
		return nil, err
	}
	var cycles [][]answered
	start, heap := e.startTimed(o)
	for cycle := 0; cycle < len(plan); cycle++ {
		if cycle > 0 {
			if n, _, err = boot(); err != nil {
				heap.Stop()
				return nil, err
			}
		}
		// Every cycle starts from a collected heap, as a fresh server
		// process would.
		runtime.GC()
		reqs := plan[cycle]
		m0, err := fetchMetrics(client, n.url)
		if err != nil {
			n.close()
			heap.Stop()
			return nil, err
		}
		var done []answered
		var lats []time.Duration
		cycleStart := time.Now()
		for _, r := range reqs {
			t0 := time.Now()
			resp, err := send(client, n.url, r)
			lat := time.Since(t0)
			o.attempted++
			a := answered{req: r}
			switch {
			case err != nil:
				o.fail("%s: %v", r.label(), err)
			case resp.status != http.StatusOK:
				o.fail("%s: status %d: %s", r.label(), resp.status, resp.body)
			case resp.cache != "miss":
				o.fail("%s: X-Cache %q on a cold request", r.label(), resp.cache)
				o.guard("cold request answered with X-Cache %q", resp.cache)
			default:
				if a.body, err = checkResponse(r, resp.body); err != nil {
					o.fail("%s: %v", r.label(), err)
				} else {
					a.ok = true
					lats = append(lats, lat)
				}
			}
			done = append(done, a)
		}
		o.addWindow(lats, time.Since(cycleStart).Seconds())
		m1, err := fetchMetrics(client, n.url)
		client.CloseIdleConnections()
		n.close()
		if err != nil {
			heap.Stop()
			return nil, err
		}
		if dup := sharedComplex(done); dup != "" {
			o.guard("cycle %d: %s", cycle, dup)
		}
		delta := counterDelta(m0.Counters, m1.Counters)
		if got := delta["computes"]; got != uint64(len(reqs)) {
			o.guard("cycle %d: /metrics computes delta %d, want %d (one per request)", cycle, got, len(reqs))
		}
		addCounters(o.counters, delta)
		cycles = append(cycles, done)
		if time.Since(start) >= e.seconds {
			break
		}
	}
	e.endTimed(o, start, heap)
	o.params["cycles"] = len(cycles)
	o.params["requests_per_cycle"] = len(cycles[0])
	o.params["clients"] = 1
	o.params["loop"] = "closed"
	if !e.trace {
		return o, nil
	}

	cycles = cycles[:min(len(cycles), maxReplayUnits)]
	o.units = len(cycles)
	err = o.replayTraced(e, o.units*len(cycles[0]), func(t *tracer) error {
		var id int32
		for _, cycle := range cycles {
			st, err := e.freshStore()
			if err != nil {
				return err
			}
			rp := newReplayer(t, st, e.nproc)
			for _, a := range cycle {
				out, err := rp.replay(context.Background(), id, a.req, nil)
				id++
				if err != nil {
					return err
				}
				if a.ok && (out.hash != a.body.Complex.Hash || !sameInts(out.betti, a.body.Betti, a.body.BettiZ2)) {
					o.guard("replay of %s drifted from the handler: hash %s betti %v, served %s %v", a.req.label(), out.hash, out.betti, a.body.Complex.Hash, a.body.Betti)
				}
			}
			o.absorb(rp)
		}
		return nil
	})
	return o, err
}

// coldPlan returns a run's first cycles of cold requests, or an error if
// one of them repeats a canonical key: against a fresh store every
// request of a cycle must be a miss.
func coldPlan(seed int64, cycles int) ([][]request, error) {
	plan := make([][]request, cycles)
	for c := range plan {
		plan[c] = coldCycle(seed, c)
		seen := map[string]bool{}
		for _, r := range plan[c] {
			key, err := canonicalKey(r)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", r.label(), err)
			}
			if seen[key] {
				return nil, fmt.Errorf("cycle %d repeats key %s", c, key)
			}
			seen[key] = true
		}
	}
	return plan, nil
}

// sharedComplex reports two requests of a cycle that reduced the same
// complex over GF(2): the second would be a Betti cache hit, hiding its
// reduction from the split.
func sharedComplex(done []answered) string {
	seen := map[string]string{}
	for _, a := range done {
		f := a.req.Params.Get("field")
		if !a.ok || a.req.Endpoint == "rounds" || a.req.Endpoint == "decision" || (f != "" && f != "z2") {
			continue
		}
		if prev, ok := seen[a.body.Complex.Hash]; ok {
			return fmt.Sprintf("%s and %s reduce the same complex", prev, a.req.label())
		}
		seen[a.body.Complex.Hash] = a.req.label()
	}
	return ""
}

// sameInts compares a replayed Betti vector with whichever of the two
// response fields carries it.
func sameInts(got, a, b []int) bool {
	want := a
	if want == nil {
		want = b
	}
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

func (e *env) freshStore() (*store.Store, error) {
	dir, _, err := nodeDirs(e.workdir, false)
	if err != nil {
		return nil, err
	}
	return store.Open(dir)
}

// absorb adds a finished replayer's counts to the outcome; the untraced
// pass of a replay adds none.
func (o *outcome) absorb(rp *replayer) {
	if rp.t.off {
		return
	}
	c := rp.tracker.Counters()
	o.facets += c["facets"]
	o.morseRem += c["morse_removed"]
	o.morseCrit += c["morse_critical"]
	o.flushes += c["ckpt_flushes"]
	o.bytesPut += rp.bytesPut
}

// maxReplayUnits caps the cold cycles and big jobs a traced run replays:
// every one of them repeats the same work, and the replay runs three
// times.
const maxReplayUnits = 2

// replayTraced runs a workload's replay of its requests three times:
// with spans off, on, and off again. The traced pass gives the per-layer
// split. Its time per request minus the mean of the two untraced passes'
// is the tracing overhead; bracketing the traced pass cancels the drift
// of a warming process.
func (o *outcome) replayTraced(e *env, requests int, replay func(t *tracer) error) error {
	timed := func(t *tracer) (time.Duration, error) {
		t0 := time.Now()
		err := replay(t)
		return time.Since(t0), err
	}
	before, err := timed(&tracer{off: true})
	if err != nil {
		return err
	}
	t := newTracer()
	traced, err := timed(t)
	if err != nil {
		return err
	}
	after, err := timed(&tracer{off: true})
	if err != nil {
		return err
	}
	o.overheadMs = float64((traced - (before+after)/2).Microseconds()) / 1000 / float64(max(requests, 1))
	o.finishTrace(e, t, requests)
	return nil
}

func (o *outcome) finishTrace(e *env, t *tracer, requests int) {
	o.report = summarize(t.spans, requests)
	dir := filepath.Join(filepath.Dir(e.workdir), "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		e.log("trace: %v", err)
		return
	}
	o.spansPath = filepath.Join(dir, fmt.Sprintf("%s-seed%d.spans.jsonl.gz", e.name, e.seed))
	if err := t.write(o.spansPath); err != nil {
		e.log("trace: %v", err)
	}
}

// ---- warm-hits ----

// sent is one request of a closed loop, with its send time from the
// start of its loop.
type sent struct {
	at  time.Duration
	req request
}

// closedLoop runs clients clients against base until the timed phase
// ends. Each sends requests drawn from draw on its own seeded generator,
// and check decides whether a response is right. It fills o's latencies
// (in one-second windows), attempts and failures. In a traced run it
// also returns every request sent, in send order, for the replay; an
// untraced run keeps no per-request record beyond the latencies, so
// peak_heap_mb is not the generator's bookkeeping.
func closedLoop(e *env, o *outcome, clients int, client *http.Client, draw drawer, base string, check func(request, response) error) []request {
	// Each client files its latencies by the one-second window the request
	// started in, so the generator holds nothing but them.
	windows := int(e.seconds / time.Second)
	results := make([]struct {
		byWin     [][]time.Duration
		sent      []sent
		attempted int
		failures  []string
	}, clients)
	var wg sync.WaitGroup
	start, heap := e.startTimed(o)
	deadline := start.Add(e.seconds)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res := &results[c]
			res.byWin = make([][]time.Duration, windows)
			next := draw(clientRand(e.seed, c))
			for time.Now().Before(deadline) {
				r := next()
				t0 := time.Now()
				resp, err := send(client, base, r)
				lat := time.Since(t0)
				res.attempted++
				if e.trace {
					res.sent = append(res.sent, sent{at: t0.Sub(start), req: r})
				}
				if err == nil {
					err = check(r, resp)
				}
				if err != nil {
					res.failures = append(res.failures, fmt.Sprintf("%s: %v", r.label(), err))
					continue
				}
				w := min(int(t0.Sub(start)/time.Second), windows-1)
				res.byWin[w] = append(res.byWin[w], lat)
			}
		}(c)
	}
	wg.Wait()
	e.endTimed(o, start, heap)
	var order []sent
	for _, res := range results {
		order = append(order, res.sent...)
		o.attempted += res.attempted
		for _, f := range res.failures {
			o.fail("%s", f)
		}
	}
	for w := 0; w < windows; w++ {
		var lat []time.Duration
		for _, res := range results {
			lat = append(lat, res.byWin[w]...)
		}
		o.addWindow(lat, 1)
	}
	o.params["clients"] = clients
	o.params["loop"] = "closed"
	return inSendOrder(order)
}

// inSendOrder returns the requests of a loop's clients by send time.
func inSendOrder(order []sent) []request {
	sort.Slice(order, func(i, j int) bool { return order[i].at < order[j].at })
	reqs := make([]request, len(order))
	for i, s := range order {
		reqs[i] = s.req
	}
	return reqs
}

func runWarm(e *env) (*outcome, error) {
	o := newOutcome()
	client := newClient(e.nproc)
	defer client.CloseIdleConnections()
	universe := loadgenUniverse()
	keys := map[string]string{} // request label -> canonical key
	var twins []request
	for _, r := range universe {
		k, err := canonicalKey(r)
		if err != nil {
			return nil, err
		}
		keys[r.label()] = k
		if in, ok := r.asInline(); ok {
			keys[in.label()] = k
			twins = append(twins, in)
		}
	}
	type warmState struct {
		n      *node
		bodies map[string][]byte // canonical key -> body recorded at set-up
	}
	boot := func() (*warmState, error) {
		n, _, err := e.bootServer(false)
		if err != nil {
			return nil, err
		}
		ws := &warmState{n: n, bodies: map[string][]byte{}}
		for _, r := range universe {
			resp, err := send(client, n.url, r)
			if err == nil && resp.status != http.StatusOK {
				err = fmt.Errorf("status %d: %s", resp.status, resp.body)
			}
			if err == nil {
				_, err = checkResponse(r, resp.body)
			}
			if err != nil {
				n.close()
				return nil, fmt.Errorf("warming %s: %w", r.label(), err)
			}
			ws.bodies[keys[r.label()]] = resp.body
		}
		for _, r := range twins {
			resp, err := send(client, n.url, r)
			if err != nil || resp.cache != "hit" || !bytes.Equal(resp.body, ws.bodies[keys[r.label()]]) {
				n.close()
				return nil, fmt.Errorf("warming %s: inline twin is not a byte-identical hit (%v)", r.label(), err)
			}
		}
		return ws, nil
	}
	ws, err := setUp(o, timed(boot), func(ws *warmState) {
		client.CloseIdleConnections()
		ws.n.close()
	})
	if err != nil {
		return nil, err
	}
	defer ws.n.close()

	m0, err := fetchMetrics(client, ws.n.url)
	if err != nil {
		return nil, err
	}
	order := closedLoop(e, o, e.nproc, client, warmDraw(universe), ws.n.url,
		func(r request, resp response) error {
			switch {
			case resp.status != http.StatusOK || resp.cache != "hit":
				return fmt.Errorf("status %d X-Cache %q", resp.status, resp.cache)
			case !bytes.Equal(resp.body, ws.bodies[keys[r.label()]]):
				return fmt.Errorf("body differs from the one recorded at set-up")
			}
			return nil
		})
	m1, err := fetchMetrics(client, ws.n.url)
	if err != nil {
		return nil, err
	}
	o.counters = counterDelta(m0.Counters, m1.Counters)
	if hits, misses := o.counters["resp_store_hits"], o.counters["resp_store_misses"]; hits != uint64(o.attempted) || misses != 0 {
		o.guard("store hit ratio below 1: %d hits, %d misses over %d requests", hits, misses, o.attempted)
	}
	o.params["forms"] = "GET and POST inline-spec, alternating"
	o.params["universe"] = len(universe)
	if !e.trace {
		return o, nil
	}

	// The replay looks every request up in the warm store the server
	// answered from.
	st, err := store.Open(ws.n.dirs[0])
	if err != nil {
		return nil, err
	}
	o.units = 1
	err = o.replayTraced(e, len(order), func(t *tracer) error {
		rp := newReplayer(t, st, e.nproc)
		for i, r := range order {
			out, err := rp.replay(context.Background(), int32(i), r, nil)
			if err != nil {
				return err
			}
			if !out.hit {
				o.guard("replay missed the warm store for %s", r.label())
				break
			}
		}
		o.absorb(rp)
		return nil
	})
	return o, err
}

// ---- big-job ----

// jobPoll is how often big-job polls its job's status.
const jobPoll = 10 * time.Millisecond

func runBigJob(e *env) (*outcome, error) {
	o := newOutcome()
	client := newClient(1)
	defer client.CloseIdleConnections()
	boot := func() (*node, time.Duration, error) { return e.bootServer(true) }
	n, err := setUp(o, boot, (*node).close)
	if err != nil {
		return nil, err
	}
	var waits []float64
	start, heap := e.startTimed(o)
	for iter := 0; ; iter++ {
		if iter > 0 {
			if n, _, err = boot(); err != nil {
				heap.Stop()
				return nil, err
			}
		}
		m0, err := fetchMetrics(client, n.url)
		if err != nil {
			n.close()
			heap.Stop()
			return nil, err
		}
		t0 := time.Now()
		st, body, err := runJob(client, n.url, []byte(bigJob.spec), jobPoll)
		lat := time.Since(t0)
		o.attempted++
		if err == nil {
			_, err = checkBigJob(body)
		}
		if err != nil {
			o.fail("job %s: %v", st.ID, err)
		} else {
			o.addWindow([]time.Duration{lat}, lat.Seconds())
			if st.StartedAt != nil {
				waits = append(waits, float64(st.StartedAt.Sub(st.SubmittedAt).Microseconds())/1000)
			}
		}
		m1, err := fetchMetrics(client, n.url)
		client.CloseIdleConnections()
		n.close()
		if err != nil {
			heap.Stop()
			return nil, err
		}
		addCounters(o.counters, counterDelta(m0.Counters, m1.Counters))
		if time.Since(start) >= e.seconds {
			break
		}
	}
	e.endTimed(o, start, heap)
	if len(waits) > 0 {
		o.queueWait = median(waits)
	}
	o.params["instance"] = "connectivity z2 of A^1 n=4 f=2 r=1 (161051 facets)"
	o.params["jobs"] = o.attempted
	o.params["workers"] = e.nproc
	o.params["checkpoint_every"] = defaultCkptEvery
	o.params["loop"] = "closed"
	if !e.trace {
		return o, nil
	}

	o.units = min(o.attempted, maxReplayUnits)
	err = o.replayTraced(e, o.units, func(t *tracer) error {
		for i := 0; i < o.units; i++ {
			st, err := e.freshStore()
			if err != nil {
				return err
			}
			path := filepath.Join(st.Root(), "job.ckpt")
			ck, err := jobs.OpenCheckpointLog(path)
			if err != nil {
				return err
			}
			rp := newReplayer(t, st, e.nproc)
			out, err := rp.replay(context.Background(), int32(i), bigJob.req, ck)
			if info, serr := os.Stat(path); serr == nil && !t.off {
				o.ckptBytes += info.Size()
			}
			ck.Close()
			if err != nil {
				return err
			}
			if out.hash != bigJob.hash {
				o.guard("replayed big-job hash %s, want %s", out.hash, bigJob.hash)
			}
			o.absorb(rp)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sm := o.report.SelfMs
	o.describeOf = map[string]float64{
		"construct_ms": sm["roundop.build"] + sm["jobs.ckpt_flush"],
		"describe_ms":  sm["topology.facets"] + sm["topology.fvector"] + sm["topology.euler"] + sm["topology.hash"],
		"reduce_ms":    sm["homology.betti"],
	}
	return o, nil
}

// ---- fleet-zipf ----

// fleetSize is the number of replicas in the fleet workload.
const fleetSize = 2

// fleetWindowEvery is how often a fleet window starts. A window's
// requests take about 3 ms, and its fills each create a file in the
// filling replica's store. Back to back, windows create some 3000 files a
// second; on a disk that slows creates at that rate (ext4 with online
// discard in a 2-vCPU VM) p90_ms rose run by run over five consecutive
// runs, from 0.13 to 0.28 ms. At one window per 20 ms, about 450 files a
// second, nine of ten runs read 0.36 to 0.38 ms.
const fleetWindowEvery = 20 * time.Millisecond

// runFleet measures requests that cross the cluster hop. Set-up boots a
// fleet from empty stores and sends every universe key to the replica
// that does not own it, which delegates it to the owner. In each window
// of the timed phase (one every fleetWindowEvery) nproc clients then
// send len(universe) Zipf draws each, round-robin over the replicas: a
// replica's first request for a key its peer owns is a read-through fill
// over the hop, its repeats are local hits. Before each window the replicas drop the copies they
// filled, so each one again holds just the keys it owns; otherwise every
// fill would fall in the run's first second. Windows compute nothing:
// the universe's cold computes (2 s for async n=3 f=1 r=2 alone) would
// bury the hop.
func runFleet(e *env) (*outcome, error) {
	o := newOutcome()
	o.pooled = true
	client := newClient(e.nproc)
	defer client.CloseIdleConnections()
	universe := loadgenUniverse()
	keys := map[string]string{} // request label -> canonical key
	for _, r := range universe {
		k, err := canonicalKey(r)
		if err != nil {
			return nil, err
		}
		keys[r.label()] = k
	}
	bodies := map[string][]byte{} // canonical key -> body served at set-up
	boot := func() ([]*node, error) {
		nodes, err := startFleet(e.workdir, fleetSize, e.nproc)
		if err != nil {
			return nil, err
		}
		ring := ringOf(urlsOf(nodes))
		for _, r := range universe {
			target := nodes[0]
			if ring.Owner(keys[r.label()]) == target.url {
				target = nodes[1]
			}
			resp, err := send(client, target.url, r)
			if err == nil && resp.status != http.StatusOK {
				err = fmt.Errorf("status %d: %s", resp.status, resp.body)
			}
			if err == nil {
				_, err = checkResponse(r, resp.body)
			}
			if err != nil {
				closeAll(nodes)
				return nil, fmt.Errorf("warming %s: %w", r.label(), err)
			}
			bodies[keys[r.label()]] = resp.body
		}
		return nodes, nil
	}
	nodes, err := setUp(o, timed(boot), func(nodes []*node) {
		client.CloseIdleConnections()
		closeAll(nodes)
	})
	if err != nil {
		return nil, err
	}
	defer closeAll(nodes)
	// Set-up went through delegation: every key reached its owner from
	// the other replica.
	setupCounters, err := fleetCounters(client, nodes)
	if err != nil {
		return nil, err
	}
	o.record["setup_delegated"] = setupCounters["cluster_delegated"]

	check := func(r request, resp response) error {
		switch {
		case resp.status != http.StatusOK || resp.cache != "hit":
			return fmt.Errorf("status %d X-Cache %q", resp.status, resp.cache)
		case !bytes.Equal(resp.body, bodies[keys[r.label()]]):
			return fmt.Errorf("body differs from the one served at set-up")
		}
		return nil
	}
	trash := &trashDir{dir: filepath.Join(e.workdir, "trash")}
	if err := os.MkdirAll(trash.dir, 0o755); err != nil {
		return nil, err
	}
	var windows [][]request // traced: each window's requests in send order
	var fillShare []float64
	start, heap := e.startTimed(o)
	next := start
	for w := 0; ; w++ {
		time.Sleep(time.Until(next))
		next = time.Now().Add(fleetWindowEvery)
		if err := dropFills(nodes, bodies, trash); err != nil {
			heap.Stop()
			return nil, err
		}
		before, err := fleetCounters(client, nodes)
		if err != nil {
			heap.Stop()
			return nil, err
		}
		order := fleetWindow(e, o, w, nodes, client, universe, len(universe), check)
		after, err := fleetCounters(client, nodes)
		if err != nil {
			heap.Stop()
			return nil, err
		}
		delta := counterDelta(before, after)
		for _, c := range []string{"computes", "resp_store_misses", "cluster_delegated", "cluster_fill_misses"} {
			if delta[c] != 0 {
				o.guard("window %d: /metrics %s delta %d, want 0 (every key is on its owner)", w, c, delta[c])
			}
		}
		addCounters(o.counters, delta)
		fillShare = append(fillShare, float64(delta["cluster_fills"])/float64(len(order)))
		if e.trace {
			windows = append(windows, order)
		}
		if time.Since(start) >= e.seconds {
			break
		}
	}
	e.endTimed(o, start, heap)
	if o.counters["cluster_fills"] == 0 {
		o.guard("no request crossed the hop: cluster_fills is 0")
	}
	sort.Float64s(fillShare)
	o.record["filled_share"] = map[string]float64{"min": fillShare[0], "median": percentile(fillShare, 50), "max": fillShare[len(fillShare)-1]}
	o.record["delegated_share"] = float64(o.counters["cluster_delegated"]) / float64(o.attempted)
	o.params["replicas"] = fleetSize
	o.params["universe"] = len(universe)
	o.params["requests_per_window"] = e.nproc * len(universe)
	o.params["window_every_ms"] = fleetWindowEvery.Milliseconds()
	o.params["clients"] = e.nproc
	o.params["loop"] = "closed"
	if !e.trace {
		return o, nil
	}

	// The replay plays each window as a fresh clone of replica 0 against
	// the fleet: the clone's store holds the keys replica 0 owns, so its
	// own keys hit locally and its peer's keys fill over the hop.
	peers := urlsOf(nodes)
	ring := ringOf(peers)
	o.units = len(windows)
	requests := 0
	for _, w := range windows {
		requests += len(w)
	}
	err = o.replayTraced(e, requests, func(t *tracer) error {
		var id int32
		for _, w := range windows {
			st, err := e.freshStore()
			if err != nil {
				return err
			}
			for key, body := range bodies {
				if ring.Owner(key) == peers[0] {
					if err := st.Put(key, body); err != nil {
						return err
					}
				}
			}
			rp := newReplayer(t, st, e.nproc)
			rt := cluster.NewReadThrough(rp.st, ring, peers[0], obs.NewTracker())
			rp.useReadThrough(rt)
			for _, r := range w {
				out, err := rp.replay(context.Background(), id, r, nil)
				id++
				if err == nil && !out.hit {
					err = fmt.Errorf("replay of %s missed the fleet", r.label())
				}
				if err != nil {
					rt.Close()
					return err
				}
			}
			rt.Close()
			o.absorb(rp)
		}
		return nil
	})
	return o, err
}

// dropFills returns a fleet's stores to their state after set-up: each
// replica keeps the keys of bodies that it owns and loses the copies it
// filled from its peer. The store has no delete, so this moves the entry
// files from where store.Store keeps them (root/<2 hex>/<62 hex> of the
// key's SHA-256) into trash, then checks through the store that each
// entry is gone. Moving rather than unlinking frees no disk blocks while
// the run measures: on a file system mounted with online discard, a
// stream of frees slows every later file create, which a fill does.
func dropFills(nodes []*node, bodies map[string][]byte, trash *trashDir) error {
	ring := ringOf(urlsOf(nodes))
	for _, n := range nodes {
		st, err := store.Open(n.dirs[0])
		if err != nil {
			return err
		}
		for key := range bodies {
			if ring.Owner(key) == n.url {
				continue
			}
			sum := fmt.Sprintf("%x", sha256.Sum256([]byte(key)))
			err = os.Rename(filepath.Join(n.dirs[0], sum[:2], sum[2:]), trash.next())
			if err != nil && !errors.Is(err, fs.ErrNotExist) {
				return err
			}
			if _, ok := st.Get(key); ok {
				return fmt.Errorf("%s still holds %s after its entry was moved out", n.url, key)
			}
		}
	}
	return nil
}

// trashDir is a directory of moved-out files, named by a counter.
type trashDir struct {
	dir   string
	files int
}

func (t *trashDir) next() string {
	t.files++
	return filepath.Join(t.dir, strconv.Itoa(t.files))
}

// fleetWindow sends one fleet window: nproc clients, each sending draws
// Zipf draws from its own generator for (seed, window), client c's j-th
// to replica (c+j) mod size. It files the window's latencies in o and
// returns its requests in send order.
func fleetWindow(e *env, o *outcome, w int, nodes []*node, client *http.Client, universe []request, draws int, check func(request, response) error) []request {
	type result struct {
		lat      []time.Duration
		sent     []sent
		failures []string
	}
	results := make([]result, e.nproc)
	var wg sync.WaitGroup
	start := time.Now()
	for c := range results {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res := &results[c]
			next := zipfDraw(universe)(clientRand(e.seed*100_003+int64(w), c))
			for j := 0; j < draws; j++ {
				r, base := next(), nodes[(c+j)%len(nodes)].url
				t0 := time.Now()
				resp, err := send(client, base, r)
				lat := time.Since(t0)
				res.sent = append(res.sent, sent{at: t0.Sub(start), req: r})
				if err == nil {
					err = check(r, resp)
				}
				if err != nil {
					res.failures = append(res.failures, fmt.Sprintf("%s -> %s: %v", r.label(), base, err))
					continue
				}
				res.lat = append(res.lat, lat)
			}
		}(c)
	}
	wg.Wait()
	secs := time.Since(start).Seconds()
	var lat []time.Duration
	var order []sent
	for _, res := range results {
		lat = append(lat, res.lat...)
		order = append(order, res.sent...)
		for _, f := range res.failures {
			o.fail("%s", f)
		}
	}
	o.attempted += len(order)
	o.addWindow(lat, secs)
	return inSendOrder(order)
}

// fleetCounters sums the replicas' /metrics counters.
func fleetCounters(client *http.Client, nodes []*node) (map[string]uint64, error) {
	sum := map[string]uint64{}
	for _, n := range nodes {
		m, err := fetchMetrics(client, n.url)
		if err != nil {
			return nil, err
		}
		addCounters(sum, m.Counters)
	}
	return sum, nil
}
