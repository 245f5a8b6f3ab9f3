// Command benchconstruct times the round-complex constructions and the
// crash-schedule enumeration that back the repository's benchmark
// envelope, and optionally records the measurements as a JSON run report
// (the tracked before/after numbers live in BENCH_construction.json at
// the repository root).
//
// Usage:
//
//	benchconstruct [-workers 4] [-deep] [-report out.json]
//	               [-progress] [-debug-addr :6060]
//
// -workers sets the constructor worker pool (0 = NumCPU; 1 = serial).
// -deep adds the large n=4 asynchronous instances, including the
// 16^5-facet A^1 n=4 f=4 pseudosphere (1.4M simplexes) that the
// pre-interning string-keyed builder could not construct in reasonable
// time.
//
// Every complex case is split into stages: "<case> construct" times the
// build alone, and "<case> describe" times what a served response
// reports about the complex (facet count, f-vector, canonical hash), so
// construction numbers no longer include facet extraction.
//
// -reduce (default true) follows every described complex with two
// GF(2) reduction stages — "<case> reduce plain" (coreduction disabled)
// and "<case> reduce morse" (the default engine) — so the report carries
// the before/after numbers for the Morse preprocessing pass alongside
// the construction envelope; the collapse counters (morse_removed,
// morse_critical) land in the report's counter section.
//
// Each stage is one obs stage; -report serializes the stages (name,
// wall millis, size/facet/count metadata) and the facet/schedule counters
// as an obs.Report. SIGINT abandons the remaining cases at the next shard
// boundary; -report still records the cases completed so far with
// "interrupted" set, so a partial -deep run leaves a well-formed record.
// -json is an alias for -report, kept for the documented regeneration
// command lines.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"time"

	"pseudosphere/internal/asyncmodel"
	"pseudosphere/internal/homology"
	"pseudosphere/internal/iis"
	"pseudosphere/internal/obs"
	"pseudosphere/internal/pc"
	"pseudosphere/internal/semisync"
	"pseudosphere/internal/sim"
	"pseudosphere/internal/syncmodel"
	"pseudosphere/internal/topology"
)

// labeled builds the (n+1)-process input simplex; the vertices are
// generated in ascending process order, which is the Simplex invariant,
// so no validating constructor is needed.
func labeled(n int) topology.Simplex {
	vs := make(topology.Simplex, n+1)
	for i := range vs {
		vs[i] = topology.Vertex{P: i, Label: fmt.Sprintf("v%d", i)}
	}
	return vs
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	workers := flag.Int("workers", 0, "constructor worker goroutines (0 = NumCPU, 1 = serial)")
	deep := flag.Bool("deep", false, "include the large n=4 asynchronous instances")
	reduce := flag.Bool("reduce", true, "time GF(2) reduction (plain vs morse) after each construction")
	reportPath := flag.String("report", "", "write the measurements as a JSON run report to this file")
	jsonOut := flag.String("json", "", "alias for -report")
	progress := flag.Bool("progress", false, "print periodic progress lines to stderr")
	debugAddr := flag.String("debug-addr", "", "serve expvar and pprof on this address (e.g. :6060)")
	flag.Parse()
	w := *workers
	if w <= 0 {
		w = runtime.NumCPU()
	}
	out := *reportPath
	if out == "" {
		out = *jsonOut
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	tracker := obs.NewTracker()
	ctx = obs.WithTracker(ctx, tracker)
	if *progress {
		rep := tracker.StartProgress(os.Stderr, 2*time.Second)
		defer rep.Stop()
	}
	if *debugAddr != "" {
		tracker.PublishExpvar("benchconstruct.counters", "benchconstruct.stages")
		ds, err := obs.StartDebugServer(*debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchconstruct:", err)
			return 1
		}
		defer ds.Close()
		fmt.Fprintf(os.Stderr, "benchconstruct: debug server at http://%s/debug/vars\n", ds.Addr)
	}

	err := run(ctx, os.Stdout, w, *deep, *reduce)
	if out != "" {
		rep := tracker.Snapshot("benchconstruct")
		rep.Workers = w
		rep.Deep = *deep
		rep.Interrupted = ctx.Err() != nil
		if werr := rep.WriteFile(out); werr != nil {
			fmt.Fprintln(os.Stderr, "benchconstruct:", werr)
			return 1
		}
	}
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "benchconstruct: interrupted")
			return 130
		}
		fmt.Fprintln(os.Stderr, "benchconstruct:", err)
		return 1
	}
	return 0
}

func run(ctx context.Context, w io.Writer, workers int, deep bool, reduce bool) error {
	tracker := obs.FromContext(ctx)
	// timed runs f as one obs stage and prints its wall time; f attaches
	// the measured sizes as stage metadata and returns the row's summary —
	// the -report serialization is the report plumbing, not a bespoke row
	// type.
	timed := func(name string, f func(*obs.Stage) (string, error)) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		stage := tracker.Stage(name)
		start := time.Now()
		summary, err := f(stage)
		elapsed := time.Since(start)
		stage.End()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintf(w, "%-40s %12v  %s\n", name, elapsed, summary)
		return nil
	}
	// complexCase times one construction and what follows it as separate
	// stages: "<case> construct" (the build alone), "<case> describe"
	// (facet count, f-vector and canonical hash: what every served
	// response reports), and, with -reduce, "<case> reduce plain"
	// (coreduction disabled) and "<case> reduce morse" (the engine
	// default), each on a fresh uncached engine so every run really
	// reduces.
	complexCase := func(name string, build func() (*pc.Result, error)) error {
		var c *topology.Complex
		err := timed(name+" construct", func(st *obs.Stage) (string, error) {
			res, err := build()
			if err != nil {
				return "", err
			}
			c = res.Complex
			st.Meta("size", int64(c.Size()))
			return fmt.Sprintf("size=%d", c.Size()), nil
		})
		if err != nil {
			return err
		}
		err = timed(name+" describe", func(st *obs.Stage) (string, error) {
			facets := c.FacetCount()
			fv := c.FVector()
			hash := c.CanonicalHash()
			st.Meta("facets", int64(facets))
			return fmt.Sprintf("facets=%d f=%v hash=%.12s", facets, fv, hash), nil
		})
		if err != nil || !reduce {
			return err
		}
		for _, mode := range []struct {
			label   string
			noMorse bool
		}{{"plain", true}, {"morse", false}} {
			err := timed(name+" reduce "+mode.label, func(*obs.Stage) (string, error) {
				e := homology.NewEngine(workers, nil)
				e.DisableMorse = mode.noMorse
				betti, err := e.BettiZ2Ctx(ctx, c)
				return fmt.Sprintf("betti=%v", betti), err
			})
			if err != nil {
				return err
			}
		}
		return nil
	}

	asyncCases := []struct{ n, f, r int }{
		{3, 3, 1}, {3, 2, 1}, {2, 1, 2}, {2, 2, 2},
	}
	if deep {
		asyncCases = append(asyncCases,
			struct{ n, f, r int }{4, 2, 1},
			struct{ n, f, r int }{4, 3, 1},
			struct{ n, f, r int }{4, 4, 1})
	}
	for _, c := range asyncCases {
		c := c
		name := fmt.Sprintf("A^%d n=%d f=%d", c.r, c.n, c.f)
		err := complexCase(name, func() (*pc.Result, error) {
			return asyncmodel.RoundsParallelCtx(ctx, labeled(c.n), asyncmodel.Params{N: c.n, F: c.f}, c.r, workers)
		})
		if err != nil {
			return err
		}
	}
	cases := []struct {
		name  string
		build func() (*pc.Result, error)
	}{
		{"S^1 n=3 k=3", func() (*pc.Result, error) {
			return syncmodel.OneRoundParallelCtx(ctx, labeled(3), syncmodel.Params{PerRound: 3, Total: 3}, workers)
		}},
		{"S^2 n=3 k=1 f=2", func() (*pc.Result, error) {
			return syncmodel.RoundsParallelCtx(ctx, labeled(3), syncmodel.Params{PerRound: 1, Total: 2}, 2, workers)
		}},
		{"S^3 n=3 k=1 f=3", func() (*pc.Result, error) {
			return syncmodel.RoundsParallelCtx(ctx, labeled(3), syncmodel.Params{PerRound: 1, Total: 3}, 3, workers)
		}},
		{"M^1 n=2 k=2 c1=1 c2=2 d=2", func() (*pc.Result, error) {
			return semisync.OneRoundParallelCtx(ctx, labeled(2), semisync.Params{C1: 1, C2: 2, D: 2, PerRound: 2, Total: 2}, workers)
		}},
		{"M^2 n=2 k=1 f=2", func() (*pc.Result, error) {
			return semisync.RoundsParallelCtx(ctx, labeled(2), semisync.Params{C1: 1, C2: 2, D: 2, PerRound: 1, Total: 2}, 2, workers)
		}},
		{"IIS^1 n=3", func() (*pc.Result, error) { return iis.OneRound(labeled(3)), nil }},
	}
	if deep {
		cases = append(cases, struct {
			name  string
			build func() (*pc.Result, error)
		}{"IIS^1 n=4", func() (*pc.Result, error) { return iis.OneRound(labeled(4)), nil }})
	}
	for _, c := range cases {
		if err := complexCase(c.name, c.build); err != nil {
			return err
		}
	}
	for _, e := range []struct{ n, f, r int }{{4, 2, 3}, {3, 2, 2}} {
		name := fmt.Sprintf("EnumerateCrashSchedules(%d,%d,%d)", e.n, e.f, e.r)
		err := timed(name, func(st *obs.Stage) (string, error) {
			out, err := sim.EnumerateCrashSchedulesParallelCtx(ctx, e.n, e.f, e.r, workers)
			st.Meta("count", int64(len(out)))
			return fmt.Sprintf("count=%d", len(out)), err
		})
		if err != nil {
			return err
		}
	}
	return nil
}
