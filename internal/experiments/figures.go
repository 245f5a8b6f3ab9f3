package experiments

import (
	"context"
	"fmt"

	"pseudosphere/internal/core"
	"pseudosphere/internal/homology"
)

var binary = []string{"0", "1"}

// E1Figure1 reproduces Figure 1: psi(S^2; {0,1}) is a combinatorial
// 2-sphere.
func E1Figure1(ctx context.Context) (*Table, error) {
	t := newTable("E1", "three-process binary pseudosphere", "Figure 1",
		"quantity", "paper", "measured")
	ps, err := core.Uniform(core.ProcessSimplex(2), binary)
	if err != nil {
		return nil, err
	}
	fv := ps.FVector()
	t.addRow(fv[0] == 6, "vertices", "6", itoa(fv[0]))
	t.addRow(fv[1] == 12, "edges", "12", itoa(fv[1]))
	t.addRow(fv[2] == 8, "triangles", "8", itoa(fv[2]))
	chi := ps.EulerCharacteristic()
	t.addRow(chi == 2, "Euler characteristic", "2 (sphere)", itoa(chi))
	betti, err := conn.BettiZ2Ctx(ctx, ps)
	if err != nil {
		return nil, err
	}
	t.addRow(betti[0] == 1 && betti[1] == 0 && betti[2] == 1,
		"Betti numbers", "[1 0 1] (S^2)", ints(betti))
	trivial, conclusive := homology.Pi1Trivial(ps)
	t.addRow(trivial && conclusive, "pi_1 trivial", "yes", boolStr(trivial && conclusive))
	return t, nil
}

// E2Figure2 reproduces Figure 2: psi(S^1;{0,1}) is a circle and
// psi(S^1;{0,1,2}) is K_{3,3}.
func E2Figure2(ctx context.Context) (*Table, error) {
	t := newTable("E2", "one-dimensional pseudospheres", "Figure 2",
		"complex", "quantity", "paper", "measured")
	circle, err := core.Uniform(core.ProcessSimplex(1), binary)
	if err != nil {
		return nil, err
	}
	fv := circle.FVector()
	t.addRow(fv[0] == 4 && fv[1] == 4, "psi(S^1;{0,1})", "f-vector", "[4 4] (4-cycle)", ints(fv))
	betti, err := conn.BettiZ2Ctx(ctx, circle)
	if err != nil {
		return nil, err
	}
	t.addRow(betti[0] == 1 && betti[1] == 1, "psi(S^1;{0,1})", "Betti", "[1 1] (circle)", ints(betti))

	k33, err := core.Uniform(core.ProcessSimplex(1), []string{"0", "1", "2"})
	if err != nil {
		return nil, err
	}
	fv = k33.FVector()
	t.addRow(fv[0] == 6 && fv[1] == 9, "psi(S^1;{0,1,2})", "f-vector", "[6 9] (K33)", ints(fv))
	betti, err = conn.BettiZ2Ctx(ctx, k33)
	if err != nil {
		return nil, err
	}
	t.addRow(betti[0] == 1 && betti[1] == 4, "psi(S^1;{0,1,2})", "Betti", "[1 4]", ints(betti))

	// Higher-dimensional sanity: psi(S^n;{0,1}) ~ S^n for n = 3.
	s3, err := core.Uniform(core.ProcessSimplex(3), binary)
	if err != nil {
		return nil, err
	}
	betti, err = conn.BettiZ2Ctx(ctx, s3)
	if err != nil {
		return nil, err
	}
	t.addRow(betti[0] == 1 && betti[1] == 0 && betti[2] == 0 && betti[3] == 1,
		"psi(S^3;{0,1})", "Betti", "[1 0 0 1] (S^3)", ints(betti))
	return t, nil
}

// E11PseudosphereAlgebra verifies Lemma 4 and Corollaries 6 and 8.
func E11PseudosphereAlgebra(ctx context.Context) (*Table, error) {
	t := newTable("E11", "pseudosphere algebra", "Lemma 4, Corollaries 6 and 8",
		"identity", "instance", "holds")

	// Lemma 4 (1): singleton sets give the base simplex.
	base := core.ProcessSimplex(3)
	single, err := core.Uniform(base, []string{"v"})
	if err != nil {
		return nil, err
	}
	ok := single.FacetCount() == 1 && single.Dim() == 3
	t.addRow(ok, "psi(S;{v}) ~ S", "n=3", boolStr(ok))

	// Lemma 4 (2): empty set removes the vertex.
	with, err := core.Pseudosphere(base, [][]string{binary, {}, binary, binary})
	if err != nil {
		return nil, err
	}
	sub := core.ProcessSimplex(3).WithoutID(1)
	without, err := core.Uniform(sub, binary)
	if err != nil {
		return nil, err
	}
	ok = with.Equal(without)
	t.addRow(ok, "empty factor elimination", "n=3, U_1 = {}", boolStr(ok))

	// Lemma 4 (3): intersection law on overlapping bases.
	s0 := core.ProcessSimplex(2)
	s1 := core.ProcessSimplex(3).WithoutID(0)
	u := [][]string{{"0", "1"}, {"1", "2"}, {"0", "2"}}
	w := [][]string{{"1"}, {"0", "2"}, {"2"}}
	ps0, err := core.Pseudosphere(s0, u)
	if err != nil {
		return nil, err
	}
	ps1, err := core.Pseudosphere(s1, w)
	if err != nil {
		return nil, err
	}
	common := s0.Intersect(s1)
	sets := core.IntersectSets([][]string{u[1], u[2]}, [][]string{w[0], w[1]})
	want, err := core.Pseudosphere(common, sets)
	if err != nil {
		return nil, err
	}
	ok = ps0.Intersection(ps1).Equal(want)
	t.addRow(ok, "intersection law", "ids {1,2} shared", boolStr(ok))

	// Corollary 6: (m-1)-connectivity.
	for m := 1; m <= 3; m++ {
		ps, err := core.Uniform(core.ProcessSimplex(m), binary)
		if err != nil {
			return nil, err
		}
		ok, err = conn.IsKConnectedCtx(ctx, ps, m-1)
		if err != nil {
			return nil, err
		}
		t.addRow(ok, "Corollary 6: (m-1)-connected", fmt.Sprintf("m=%d, binary", m), boolStr(ok))
	}

	// Corollary 8: union over sets with a common element.
	u8, err := core.Uniform(core.ProcessSimplex(2), []string{"0", "1"})
	if err != nil {
		return nil, err
	}
	for _, vals := range [][]string{{"1", "2"}, {"1", "3"}} {
		next, err := core.Uniform(core.ProcessSimplex(2), vals)
		if err != nil {
			return nil, err
		}
		u8.UnionWith(next)
	}
	ok, err = conn.IsKConnectedCtx(ctx, u8, 1)
	if err != nil {
		return nil, err
	}
	t.addRow(ok, "Corollary 8: union (m-1)-connected", "m=2, common value 1", boolStr(ok))
	return t, nil
}
