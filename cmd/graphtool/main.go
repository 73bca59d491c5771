// Command graphtool characterizes graphs the way Table 1 of the paper
// does (vertex/edge counts, clustering coefficients, assortativity) and
// fits the §2.2 degree-distribution models (Zeta, Geometric, Weibull,
// Poisson) to the observed degrees.
//
// Usage:
//
//	graphtool -graph social.e                 # characterize a file
//	graphtool -surrogate patents -fit         # characterize + fit a surrogate
//	graphtool -table1                         # print all five surrogate rows
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"graphalytics/internal/gen/surrogate"
	"graphalytics/internal/graph"
	"graphalytics/internal/graph/gmetrics"
	"graphalytics/internal/stats"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "graphtool:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		graphPath = flag.String("graph", "", "edge list file (.e) to characterize")
		vertsPath = flag.String("vertices", "", "optional vertex file (.v)")
		directed  = flag.Bool("directed", false, "treat edges as directed")
		loadWork  = flag.Int("load-workers", 0, "ingest workers for -graph (0 = all cores, 1 = one chunk); the graph is the same at every count")
		surrName  = flag.String("surrogate", "", "characterize a Table 1 surrogate (amazon, youtube, ...)")
		scaleDiv  = flag.Int("scale-div", 0, "surrogate downscale divisor (0 = default)")
		table1    = flag.Bool("table1", false, "print all five Table 1 surrogate rows")
		fit       = flag.Bool("fit", false, "fit degree-distribution models")
	)
	flag.Parse()

	switch {
	case *table1:
		fmt.Printf("%-12s %10s %12s %8s %8s %8s\n", "Dataset", "Nodes", "Edges", "Gl. CC", "Avg. CC", "Asrt.")
		for _, spec := range surrogate.Table1 {
			g, err := surrogate.Generate(spec, surrogate.Options{ScaleDiv: *scaleDiv, Rewire: true})
			if err != nil {
				return err
			}
			c := gmetrics.Measure(g)
			fmt.Printf("%-12s %10d %12d %8.4f %8.4f %8.4f\n",
				c.Name, c.Vertices, c.Edges, c.GlobalCC, c.AvgCC, c.Assortativity)
		}
		return nil
	case *surrName != "":
		spec, err := surrogate.Find(*surrName)
		if err != nil {
			return err
		}
		g, err := surrogate.Generate(spec, surrogate.Options{ScaleDiv: *scaleDiv, Rewire: true})
		if err != nil {
			return err
		}
		return characterize(g, *fit)
	case *graphPath != "":
		g, err := graph.LoadEdgeList(*graphPath, *vertsPath, graph.LoadOptions{Directed: *directed, Workers: *loadWork})
		if err != nil {
			return err
		}
		return characterize(g, *fit)
	default:
		flag.Usage()
		return fmt.Errorf("one of -graph, -surrogate, -table1 is required")
	}
}

func characterize(g *graph.Graph, fit bool) error {
	return characterizeTo(os.Stdout, g, fit)
}

func characterizeTo(w io.Writer, g *graph.Graph, fit bool) error {
	c := gmetrics.Measure(g)
	fmt.Fprintf(w, "%s\n", g)
	fmt.Fprintf(w, "  nodes          %d\n", c.Vertices)
	fmt.Fprintf(w, "  edges          %d\n", c.Edges)
	fmt.Fprintf(w, "  global CC      %.4f\n", c.GlobalCC)
	fmt.Fprintf(w, "  average CC     %.4f\n", c.AvgCC)
	fmt.Fprintf(w, "  assortativity  %.4f\n", c.Assortativity)

	if !fit {
		return nil
	}
	sample, err := stats.NewSample(gmetrics.Degrees(g))
	if err != nil {
		return err
	}
	d := sample.Describe()
	fmt.Fprintf(w, "  degrees        mean %.2f median %.1f max %d\n", d.Mean, d.Median, d.Max)
	fmt.Fprintln(w, "  degree-distribution fits (best first):")
	for _, f := range sample.FitAll() {
		fmt.Fprintf(w, "    %-10s %-22s logL %12.1f  KS %.4f  AIC %12.1f\n",
			f.Model.Name(), f.Model.Params(), f.LogLikelihood, f.KS, f.AIC)
	}
	return nil
}
