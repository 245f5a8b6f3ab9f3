package pseudosphere_test

// One benchmark per reproduced table/figure (E1-E12 in DESIGN.md; E13-E15 are
// covered by their packages), plus ablation benches for engine-level design choices: sparse-GF(2)
// versus dense-field homology and the decision-map search fast path.

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"pseudosphere/internal/asyncmodel"
	"pseudosphere/internal/bounds"
	"pseudosphere/internal/core"
	"pseudosphere/internal/experiments"
	"pseudosphere/internal/homology"
	"pseudosphere/internal/jobs"
	"pseudosphere/internal/pc"
	"pseudosphere/internal/protocols"
	"pseudosphere/internal/roundop"
	"pseudosphere/internal/semisync"
	"pseudosphere/internal/sim"
	"pseudosphere/internal/sperner"
	"pseudosphere/internal/syncmodel"
	"pseudosphere/internal/task"
	"pseudosphere/internal/topology"
)

func inputSimplex(m int) topology.Simplex {
	labels := []string{"a", "b", "c", "d", "e"}
	vs := make([]topology.Vertex, m+1)
	for i := 0; i <= m; i++ {
		vs[i] = topology.Vertex{P: i, Label: labels[i]}
	}
	return mustSimplex(vs...)
}

func BenchmarkE1Figure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ps := mustUniform(core.ProcessSimplex(2), []string{"0", "1"})
		if homology.BettiZ2(ps)[2] != 1 {
			b.Fatal("not a sphere")
		}
	}
}

func BenchmarkE2Figure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		circle := mustUniform(core.ProcessSimplex(1), []string{"0", "1"})
		k33 := mustUniform(core.ProcessSimplex(1), []string{"0", "1", "2"})
		if homology.BettiZ2(circle)[1]+homology.BettiZ2(k33)[1] != 5 {
			b.Fatal("wrong homology")
		}
	}
}

func BenchmarkE3AsyncOneRound(b *testing.B) {
	input := inputSimplex(3)
	p := asyncmodel.Params{N: 3, F: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := asyncmodel.OneRound(input, p)
		if err != nil {
			b.Fatal(err)
		}
		ps, err := asyncmodel.Lemma11Pseudosphere(input, p)
		if err != nil {
			b.Fatal(err)
		}
		m, err := asyncmodel.Lemma11Map(res, input)
		if err != nil {
			b.Fatal(err)
		}
		if err := topology.VerifyIsomorphism(res.Complex, ps, m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE4AsyncConnectivity(b *testing.B) {
	input := inputSimplex(2)
	p := asyncmodel.Params{N: 2, F: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := asyncmodel.Rounds(input, p, 2)
		if err != nil {
			b.Fatal(err)
		}
		if !homology.IsKConnected(res.Complex, 0) {
			b.Fatal("Lemma 12 violated")
		}
	}
}

// The parallel/cached engine variants of BenchmarkE4AsyncConnectivity:
// the complex is rebuilt every iteration (construction is part of the E4
// workload), so the cached variant measures what the experiments see when
// they re-query a complex already reduced once.
func benchE4Engine(b *testing.B, e *homology.Engine) {
	input := inputSimplex(2)
	p := asyncmodel.Params{N: 2, F: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := asyncmodel.Rounds(input, p, 2)
		if err != nil {
			b.Fatal(err)
		}
		if !e.IsKConnected(res.Complex, 0) {
			b.Fatal("Lemma 12 violated")
		}
	}
}

func BenchmarkE4AsyncConnectivityParallel(b *testing.B) {
	benchE4Engine(b, homology.NewEngine(4, nil))
}

func BenchmarkE4AsyncConnectivityCached(b *testing.B) {
	benchE4Engine(b, homology.NewEngine(4, homology.NewCache()))
}

func BenchmarkE5SyncOneRound(b *testing.B) {
	input := inputSimplex(3)
	p := syncmodel.Params{PerRound: 1, Total: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := syncmodel.OneRound(input, p)
		if err != nil {
			b.Fatal(err)
		}
		if res.Complex.IsEmpty() {
			b.Fatal("empty complex")
		}
	}
}

func BenchmarkE6SyncIntersections(b *testing.B) {
	input := inputSimplex(3)
	sets := syncmodel.FailureSets(input.IDs(), 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prefix := topology.NewComplex()
		for ti, fail := range sets {
			cur, err := syncmodel.OneRoundExactly(input, fail)
			if err != nil {
				b.Fatal(err)
			}
			if ti > 0 {
				lhs := prefix.Intersection(cur.Complex)
				rhs, err := syncmodel.Lemma15RHS(input, fail)
				if err != nil {
					b.Fatal(err)
				}
				if !lhs.Equal(rhs.Complex) {
					b.Fatal("Lemma 15 violated")
				}
			}
			prefix.UnionWith(cur.Complex)
		}
	}
}

func BenchmarkE7SyncConnectivity(b *testing.B) {
	input := inputSimplex(3)
	p := syncmodel.Params{PerRound: 1, Total: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := syncmodel.Rounds(input, p, 2)
		if err != nil {
			b.Fatal(err)
		}
		if !homology.IsKConnected(res.Complex, 0) {
			b.Fatal("Lemma 17 violated")
		}
	}
}

// The engine variants of BenchmarkE7SyncConnectivity (see benchE4Engine).
func benchE7Engine(b *testing.B, e *homology.Engine) {
	input := inputSimplex(3)
	p := syncmodel.Params{PerRound: 1, Total: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := syncmodel.Rounds(input, p, 2)
		if err != nil {
			b.Fatal(err)
		}
		if !e.IsKConnected(res.Complex, 0) {
			b.Fatal("Lemma 17 violated")
		}
	}
}

func BenchmarkE7SyncConnectivityParallel(b *testing.B) {
	benchE7Engine(b, homology.NewEngine(4, nil))
}

func BenchmarkE7SyncConnectivityCached(b *testing.B) {
	benchE7Engine(b, homology.NewEngine(4, homology.NewCache()))
}

func BenchmarkE8SyncBoundTable(b *testing.B) {
	inputs := []string{"0", "1", "2"}
	schedules := sim.EnumerateCrashSchedules(len(inputs), 1, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cs := range schedules {
			out, err := sim.RunSync(inputs, protocols.NewFloodSet(1), cs, 3)
			if err != nil {
				b.Fatal(err)
			}
			if err := out.CheckConsensus(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkE9SemiSyncOneRound(b *testing.B) {
	input := inputSimplex(2)
	p := semisync.Params{C1: 1, C2: 2, D: 2, PerRound: 1, Total: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := semisync.OneRound(input, p)
		if err != nil {
			b.Fatal(err)
		}
		if res.Complex.IsEmpty() {
			b.Fatal("empty complex")
		}
	}
}

func BenchmarkE10SemiSyncBound(b *testing.B) {
	timing := sim.Timing{C1: 1, C2: 2, D: 2}
	inputs := []string{"2", "0", "1"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run, err := sim.RunTimed(inputs, protocols.NewSemiSyncKSet(1, 1), timing,
			sim.LockstepSchedule{Timing: timing}, nil, 10000)
		if err != nil {
			b.Fatal(err)
		}
		lb, err := bounds.SemiSyncTimeLowerBound(1, 1, timing.C1, timing.C2, timing.D)
		if err != nil {
			b.Fatal(err)
		}
		for _, at := range run.DecidedAt {
			if float64(at) < lb.Float() {
				b.Fatal("decision below the lower bound")
			}
		}
	}
}

func BenchmarkE11PseudosphereAlgebra(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E11PseudosphereAlgebra(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE12Sperner(b *testing.B) {
	base := inputSimplex(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sd, carrier, err := sperner.Subdivide(base, 2)
		if err != nil {
			b.Fatal(err)
		}
		col := sperner.FirstOwnerColoring(sd, carrier)
		if _, err := sperner.VerifyLemma(base, sd, carrier, col); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE19BuildReduceA1n3f3 is the E19 reduction canary gated by
// .github/bench_baseline.json: one A^1 n=3 f=3 round complex (6560
// simplexes) built and GF(2)-reduced end to end by a fresh
// coreduction-enabled engine, so a regression in either the unified
// round operator or the Morse preprocessing moves it.
func BenchmarkE19BuildReduceA1n3f3(b *testing.B) {
	input := inputSimplex(3)
	p := asyncmodel.Params{N: 3, F: 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := asyncmodel.OneRound(input, p)
		if err != nil {
			b.Fatal(err)
		}
		e := homology.NewEngine(1, nil)
		if betti := e.BettiZ2(res.Complex); betti[0] != 1 {
			b.Fatal("unexpected homology")
		}
	}
}

// BenchmarkDescribe is the describe canary gated by
// .github/bench_baseline.json: the facet count and canonical hash every
// served response reports, on a fresh Clone of one A^1 n=3 f=3 round
// complex (6560 simplexes) per iteration, so the per-complex memo never
// answers and every iteration sorts and hashes the whole complex.
func BenchmarkDescribe(b *testing.B) {
	res, err := asyncmodel.OneRound(inputSimplex(3), asyncmodel.Params{N: 3, F: 3})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := res.Complex.Clone()
		b.StartTimer()
		if c.FacetCount() != 4096 || c.CanonicalHash() == "" {
			b.Fatal("unexpected description")
		}
	}
}

// benchCkpt is an in-memory roundop.Checkpointer: each Flush dumps the
// delta as jobs.CheckpointLog.Flush does (vertex table plus index rows)
// and keeps only the done count, so a checkpointed build pays the dump
// without the encoding and the disk write.
type benchCkpt struct{ done, rows int }

func (b *benchCkpt) Restore(int) ([]bool, *pc.Result, error) { return nil, nil, nil }

func (b *benchCkpt) Flush(done []int, delta *pc.Result) error {
	_, simps := delta.Complex.IndexedSimplices()
	b.done += len(done)
	b.rows += len(simps)
	return nil
}

// BenchmarkBuildCkpt is the checkpointed-construction canary gated by
// .github/bench_baseline.json: A^1 n=3 f=3 (6560 simplexes) built through
// roundop.RoundsParallelCkpt at 2 workers with a flush every 8 shards,
// the path a job-API build takes.
func BenchmarkBuildCkpt(b *testing.B) {
	input := inputSimplex(3)
	op := asyncmodel.Params{N: 3, F: 3}.Operator()
	for i := 0; i < b.N; i++ {
		ck := &benchCkpt{}
		res, err := roundop.RoundsParallelCkpt(context.Background(), op, input, 1, 2, 8, ck)
		if err != nil {
			b.Fatal(err)
		}
		if res.Complex.Size() != 6560 || ck.rows < 6560 {
			b.Fatalf("size %d, %d rows flushed", res.Complex.Size(), ck.rows)
		}
	}
}

// BenchmarkBuildA1n4f2 times construction of the A^1 n=4 f=2 round
// complex (248,831 simplexes) per path (EXPERIMENTS.md E23):
// RoundsParallel at 1 and 2 workers, and the checkpointed build a job
// runs, through jobs.CheckpointLog at 2 workers with a flush every 8
// shards. Run with -benchmem for the bytes each path allocates.
func BenchmarkBuildA1n4f2(b *testing.B) {
	input := inputSimplex(4)
	p := asyncmodel.Params{N: 4, F: 2}
	for _, w := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := asyncmodel.RoundsParallel(input, p, 1, w)
				if err != nil || res.Complex.Size() != 248831 {
					b.Fatalf("build: %v", err)
				}
			}
		})
	}
	b.Run("ckpt-log", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			log, err := jobs.OpenCheckpointLog(filepath.Join(b.TempDir(), "build.ckpt"))
			if err != nil {
				b.Fatal(err)
			}
			res, err := roundop.RoundsParallelCkpt(context.Background(), p.Operator(), input, 1, 2, 8, log)
			if err != nil || res.Complex.Size() != 248831 {
				b.Fatalf("build: %v", err)
			}
			if err := log.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDescribeA1n4f2 times each describe path on the A^1 n=4 f=2
// round complex (248,831 simplexes, 161,051 facets), every iteration on
// a fresh Clone so the memo never answers (EXPERIMENTS.md E22).
func BenchmarkDescribeA1n4f2(b *testing.B) {
	res, err := asyncmodel.OneRound(inputSimplex(4), asyncmodel.Params{N: 4, F: 2})
	if err != nil {
		b.Fatal(err)
	}
	for _, op := range []struct {
		name string
		run  func(*topology.Complex) int
	}{
		{"FacetCount", func(c *topology.Complex) int { return c.FacetCount() }},
		{"Facets", func(c *topology.Complex) int { return len(c.Facets()) }},
		{"CanonicalHash", func(c *topology.Complex) int { return len(c.CanonicalHash()) }},
		{"AllSimplices", func(c *topology.Complex) int { return len(c.AllSimplices()) }},
	} {
		b.Run(op.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c := res.Complex.Clone()
				b.StartTimer()
				if op.run(c) == 0 {
					b.Fatal("empty description")
				}
			}
		})
	}
}

// --- ablation benches for engine design choices ---

// BenchmarkAblationHomologySparseZ2 measures the production engine (sparse
// GF(2) column reduction) on a mid-sized protocol complex.
func BenchmarkAblationHomologySparseZ2(b *testing.B) {
	res, err := asyncmodel.OneRound(inputSimplex(3), asyncmodel.Params{N: 3, F: 3})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if homology.BettiZ2(res.Complex)[0] != 1 {
			b.Fatal("unexpected homology")
		}
	}
}

// BenchmarkAblationHomologyDenseGFp measures the dense GF(3) fallback on
// the same complex; the gap justifies the sparse default.
func BenchmarkAblationHomologyDenseGFp(b *testing.B) {
	res, err := asyncmodel.OneRound(inputSimplex(2), asyncmodel.Params{N: 2, F: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		betti, err := homology.BettiGFp(res.Complex, 3)
		if err != nil || betti[0] != 1 {
			b.Fatal("unexpected homology")
		}
	}
}

// BenchmarkAblationConsensusFastPath measures the exact k=1 component
// procedure against the generic backtracking search on the same instance.
func BenchmarkAblationConsensusFastPath(b *testing.B) {
	res, err := asyncmodel.RoundsOverInputs([]string{"0", "1"}, asyncmodel.Params{N: 2, F: 1}, 1)
	if err != nil {
		b.Fatal(err)
	}
	ann := task.AnnotateViews(res.Complex, res.Views)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, found, err := task.FindDecision(ann, 1, 0); err != nil || found {
			b.Fatal("consensus should be impossible")
		}
	}
}

// BenchmarkAblationSearchBacktracking exercises the generic search (k=2,
// solvable instance) for comparison with the fast path above.
func BenchmarkAblationSearchBacktracking(b *testing.B) {
	res, err := asyncmodel.RoundsOverInputs([]string{"0", "1", "2"}, asyncmodel.Params{N: 2, F: 1}, 1)
	if err != nil {
		b.Fatal(err)
	}
	ann := task.AnnotateViews(res.Complex, res.Views)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, found, err := task.FindDecision(ann, 2, 0); err != nil || !found {
			b.Fatal("2-set agreement should be solvable")
		}
	}
}
