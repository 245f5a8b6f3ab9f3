// Command psgen constructs pseudospheres (Definition 3) and prints their
// combinatorial and topological statistics.
//
// Usage:
//
//	psgen [-n 2] [-values 0,1] [-facets] [-betti]
//
// builds psi(S^n; V) for the given uniform value set.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"pseudosphere/internal/core"
	"pseudosphere/internal/homology"
)

func main() {
	n := flag.Int("n", 2, "dimension of the base process simplex (n+1 processes)")
	values := flag.String("values", "0,1", "comma-separated value set")
	facets := flag.Bool("facets", false, "list the facets")
	betti := flag.Bool("betti", true, "compute Betti numbers (disable for very large complexes)")
	flag.Parse()
	if err := run(os.Stdout, *n, *values, *facets, *betti); err != nil {
		fmt.Fprintln(os.Stderr, "psgen:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, n int, valueList string, listFacets, withBetti bool) error {
	if n < 0 {
		return fmt.Errorf("n must be nonnegative, got %d", n)
	}
	vals := strings.Split(valueList, ",")
	if len(vals) == 0 || vals[0] == "" {
		return fmt.Errorf("need at least one value")
	}
	ps, err := core.Uniform(core.ProcessSimplex(n), vals)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "psi(S^%d; {%s})\n", n, strings.Join(vals, ","))
	fmt.Fprintf(w, "dimension:            %d\n", ps.Dim())
	fmt.Fprintf(w, "f-vector:             %v\n", ps.FVector())
	fmt.Fprintf(w, "facets:               %d\n", ps.FacetCount())
	fmt.Fprintf(w, "simplexes:            %d\n", ps.Size())
	fmt.Fprintf(w, "Euler characteristic: %d\n", ps.EulerCharacteristic())
	if withBetti {
		fmt.Fprintf(w, "Betti numbers (Z2):   %v\n", homology.BettiZ2(ps))
		fmt.Fprintf(w, "connectivity:         %d\n", homology.Connectivity(ps))
	}
	if listFacets {
		fmt.Fprint(w, ps.DescribeFacets())
	}
	return nil
}
