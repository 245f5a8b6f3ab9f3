// Command perfbench is the repository's benchmark. It runs one workload
// against serve.New servers behind loopback listeners in its own
// process, checks every response, and prints the workload's metrics as
// the last line of its output:
//
//	bash perfbench/run.sh --workload cold-compute --seed 1 --seconds 10 --trace 0
//
// Workloads:
//
//	cold-compute  one closed-loop client; every request a distinct cold
//	              query (all endpoints, all five presets, inline graph
//	              specs) against a fresh store
//	warm-hits     nproc closed-loop clients drawing Zipf over the
//	              cmd/loadgen universe, every response a store hit
//	big-job       one closed-loop client running z2 connectivity of
//	              A^1 n=4 f=2 through the job API with checkpointing
//	fleet-zipf    nproc closed-loop clients spreading Zipf draws over two
//	              in-process replicas that delegate and read through
//
// Every response is checked (Euler–Poincaré, Lemma 4, pinned hashes,
// byte-identical warm hits), and guards void a run that would flatter:
// a cold request that hit a cache, a warm one that missed. The line
// before the result is a run record: machine, Go version, commit, seed,
// the workload's parameters, and the latency tail the sample supports.
//
// With --trace 0 it reports the end-to-end metrics. With --trace 1 it
// runs the workload untraced, then replays every request through the
// layers' public entry points in the handler's order, each call a span,
// and reports the per-layer metrics plus a self-time table. Construction
// numbers come from that split (big-job's describe/construct/reduce
// line), not from BENCH_construction.json's unified_millis, whose
// construction column is mostly facet extraction.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// processStart stands in for the process start time in setup_s.
var processStart = time.Now()

var workloads = map[string]func(*env) (*outcome, error){
	"cold-compute": runCold,
	"warm-hits":    runWarm,
	"big-job":      runBigJob,
	"fleet-zipf":   runFleet,
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: cold-compute, warm-hits, big-job, or fleet-zipf")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "length of the timed phase")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	workdir := fs.String("workdir", ".bench_build/perfbench", "directory for stores, job logs, and traces")
	commit := fs.String("commit", "unknown", "commit being measured, for the run record")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %v), --seconds >= 1, --trace 0|1\n", workloadNames())
		return 2
	}
	e := &env{
		name:    *name,
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		workdir: filepath.Join(*workdir, fmt.Sprintf("run-%d", os.Getpid())),
		nproc:   runtime.NumCPU(),
		log:     func(format string, args ...any) { fmt.Fprintf(stderr, "perfbench: "+format+"\n", args...) },
	}
	defer os.RemoveAll(e.workdir)
	beforeSetup := time.Since(processStart)
	o, err := run(e)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	o.params["seconds"] = *seconds
	for _, g := range o.invalid {
		fmt.Fprintf(stderr, "perfbench: %s: invalid run: %s\n", *name, g)
	}
	for _, f := range o.failures {
		fmt.Fprintf(stderr, "perfbench: %s: failed: %s\n", *name, f)
	}

	lat := msOf(o.lat)
	record := map[string]any{
		"workload":   *name,
		"seed":       *seed,
		"trace":      *trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
		"commit":     *commit,
		"params":     o.params,
		"latency":    tailOf(lat),
		"windows":    len(o.windows),
		"invalid":    o.invalid,
		"failures":   o.failures,
		"timed_s":    o.elapsed.Seconds(),
	}
	for k, v := range o.record {
		record[k] = v
	}
	var metrics map[string]metric
	if e.trace {
		metrics = layerMetrics(o, lat)
		printTraceReport(stdout, *name, o, metrics)
		record["spans"] = o.spansPath
	} else {
		metrics = endToEnd(o, beforeSetup, record)
	}
	for k, m := range metrics {
		metrics[k] = metric{finite(m.Value), m.Unit}
	}
	line, _ := json.Marshal(map[string]any{"record": record})
	fmt.Fprintln(stdout, string(line))
	result := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{o.failed == 0 && len(o.invalid) == 0 && len(lat) > 0, o.attempted, o.failed, metrics}
	line, err = json.Marshal(result)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() []string {
	out := make([]string, 0, len(workloads))
	for k := range workloads {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finite maps the NaN of a statistic over no samples (a run whose
// requests all failed) to 0, so the result still prints.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// endToEnd derives the untraced run's metrics. The request rate is taken
// per window and the median over windows reported. So are p50 and p90,
// except on pooled workloads, where they are percentiles of every request
// of the timed phase. The p99 goes into the run record, not the metrics:
// on a shared 2-vCPU machine its run-to-run spread (IQR over median, 0.19
// to 0.39 on warm-hits) is wider than the largest regression bound a
// metric may have, 0.25.
func endToEnd(o *outcome, beforeSetup time.Duration, record map[string]any) map[string]metric {
	setups := make([]float64, len(o.setup))
	for i, d := range o.setup {
		setups[i] = d.Seconds()
	}
	var p50, p90, p99, rate []float64
	for _, w := range o.windows {
		if len(w.lat) == 0 {
			continue
		}
		ms := msOf(w.lat)
		p50 = append(p50, percentile(ms, 50))
		p90 = append(p90, percentile(ms, 90))
		p99 = append(p99, percentile(ms, 99))
		rate = append(rate, float64(len(ms))/w.secs)
	}
	record["percentiles_of"] = fmt.Sprintf("median over %d windows", len(p50))
	if o.pooled {
		record["percentiles_of"] = "all requests (the latency tail's sample)"
		ms := msOf(o.lat)
		p50, p90, p99 = []float64{percentile(ms, 50)}, []float64{percentile(ms, 90)}, []float64{percentile(ms, 99)}
	}
	record["p99_ms"] = finite(median(p99))
	record["setup"] = map[string]any{"reps": len(setups), "median_s": median(setups), "before_s": beforeSetup.Seconds()}
	return map[string]metric{
		"setup_s":      {beforeSetup.Seconds() + median(setups), "s"},
		"p50_ms":       {median(p50), "ms"},
		"p90_ms":       {median(p90), "ms"},
		"qps":          {median(rate), "req/s"},
		"peak_heap_mb": {o.peakHeap, "MB"},
	}
}

// layerMetrics derives the traced run's per-layer metrics. Times are mean
// self time per replayed request; counts are per replay pass (a cold
// cycle, a job, or the whole run), so they repeat exactly.
func layerMetrics(o *outcome, lat []float64) map[string]metric {
	rep := o.report
	sm := rep.SelfMs
	units := float64(max(o.units, 1))
	untraced := mean(lat)
	describe := sm["topology.facets"] + sm["topology.fvector"] + sm["topology.euler"] + sm["topology.hash"]
	c := o.counters
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	var insPerS float64
	if build := sm["roundop.build"] * float64(rep.Requests) / 1000; build > 0 {
		insPerS = float64(o.facets) / build
	}
	m := map[string]metric{
		"modelspec.compile_us":     {1000 * sm["modelspec.compile"], "us"},
		"modelspec.price_ms":       {sm["modelspec.price"], "ms"},
		"roundop.build_ms":         {sm["roundop.build"], "ms"},
		"roundop.facet_insertions": {float64(o.facets) / units, "count"},
		"roundop.insertions_per_s": {insPerS, "1/s"},
		"topology.facets_ms":       {sm["topology.facets"], "ms"},
		"topology.hash_ms":         {sm["topology.hash"], "ms"},
		"topology.fvector_ms":      {sm["topology.fvector"], "ms"},
		"topology.describe_share":  {share(describe, rep.RootMs), "ratio"},
		"homology.reduce_ms":       {sm["homology.betti"], "ms"},
		"homology.morse_removed":   {float64(o.morseRem) / units, "count"},
		"homology.morse_critical":  {float64(o.morseCrit) / units, "count"},
		"task.annotate_ms":         {sm["task.annotate"], "ms"},
		"task.search_ms":           {sm["task.search"], "ms"},
		"store.get_us":             {1000 * sm["store.get"], "us"},
		"store.put_us":             {1000 * sm["store.put"], "us"},
		"store.hit_ratio":          {ratio(c["resp_store_hits"], c["resp_store_hits"]+c["resp_store_misses"]), "ratio"},
		"store.bytes_written":      {float64(o.bytesPut) / units, "bytes"},
		"serve.encode_ms":          {sm["serve.encode"], "ms"},
		"serve.residual_ms":        {untraced - rep.LayerMs, "ms"},
		"serve.computes_per_miss":  {ratio(c["computes"], c["resp_store_misses"]+c["jobs_submitted"]), "ratio"},
		"serve.flight_waits":       {float64(c["resp_flight_waits"]), "count"},
		"serve.rejected":           {float64(c["rejected_saturated"] + c["rejected_budget"]), "count"},
		"jobs.queue_wait_ms":       {o.queueWait, "ms"},
		"jobs.ckpt_flushes":        {float64(o.flushes) / units, "count"},
		"jobs.ckpt_bytes":          {float64(o.ckptBytes) / units, "bytes"},
		"jobs.ckpt_flush_ms":       {sm["jobs.ckpt_flush"], "ms"},
		"cluster.delegated":        {float64(c["cluster_delegated"]), "count"},
		"cluster.fills":            {float64(c["cluster_fills"]), "count"},
		"cluster.fill_misses":      {float64(c["cluster_fill_misses"]), "count"},
		"cluster.pushes":           {float64(c["cluster_pushes"]), "count"},
		"cluster.hop_ms":           {mean(rep.fill), "ms"},
		"runtime.gc_cycles":        {float64(o.gc1.cycles - o.gc0.cycles), "count"},
		"runtime.gc_pause_ms":      {float64(o.gc1.pauseNs-o.gc0.pauseNs) / 1e6, "ms"},
		"runtime.gc_cpu_fraction":  {o.gc1.cpu, "ratio"},
		"trace.overhead_ms":        {o.overheadMs, "ms"},
	}
	return m
}

func share(part, whole float64) float64 {
	if whole <= 0 {
		return 0
	}
	return part / whole
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// printTraceReport writes the traced run's human-readable report.
func printTraceReport(w io.Writer, name string, o *outcome, m map[string]metric) {
	rep := o.report
	fmt.Fprintf(w, "%s: traced replay of %d requests (%d passes); self time per request:\n", name, rep.Requests, o.units)
	fmt.Fprint(w, rep.table())
	fmt.Fprintf(w, "  traced request %.4fms, served request %.4fms: tracing overhead %.4fms, serve residual %.4fms\n",
		rep.RootMs, mean(msOf(o.lat)), m["trace.overhead_ms"].Value, m["serve.residual_ms"].Value)
	fmt.Fprintf(w, "  describe share of traced request time: %.1f%%\n", 100*m["topology.describe_share"].Value)
	if d := o.describeOf; d != nil {
		fmt.Fprintf(w, "  A^1 n=4 f=2 job split: construct %.1fms, describe %.1fms, reduce %.1fms\n", d["construct_ms"], d["describe_ms"], d["reduce_ms"])
	}
}
