// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -list
//	experiments -exp fig3,fig4 -scale 0.1 -trials 5
//	experiments -exp all -scale 1 -trials 10 -csv
//	experiments -exp ablation:refiner
//
// At -scale 1 the datasets match the paper's sizes (389,894 and 667,574
// users); figures that need report-level simulation (fig3, fig4) take a
// few minutes there. Smaller scales preserve the qualitative shapes.
// Grid cells and the trials within a cell run in parallel; the output at
// a fixed seed is the same at any core count.
package main

import (
	"cmp"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"ldprecover/internal/experiment"
)

// defaultSeed is experiment.Config's zero-value seed.
const defaultSeed = 20240403

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run regenerates the experiments args select onto stdout and returns
// the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	var (
		exps   = fs.String("exp", "all", "comma-separated experiment ids (see -list), 'all', or 'ablation:<id>'")
		scale  = fs.Float64("scale", 1.0, "dataset scale factor (1 = paper scale)")
		trials = fs.Int("trials", experiment.DefaultTrials, "trials per experimental cell (0 = paper default)")
		seed   = fs.Uint64("seed", defaultSeed, "random seed (0 = default)")
		csv    = fs.Bool("csv", false, "emit CSV instead of aligned tables")
		list   = fs.Bool("list", false, "list available experiment ids and exit")
	)
	fs.Parse(args) // ExitOnError: a bad flag exits here, like flag.Parse

	if *list {
		fmt.Fprintln(stdout, "experiments (paper tables/figures):")
		for _, id := range experiment.RegistryOrder {
			fmt.Fprintf(stdout, "  %s\n", id)
		}
		fmt.Fprintln(stdout, "ablations (prefix with 'ablation:'):")
		for _, id := range experiment.AblationOrder {
			fmt.Fprintf(stdout, "  ablation:%s\n", id)
		}
		return 0
	}

	// Zero flags select the generators' defaults; resolve them here so the
	// run footer names the values the tables were computed with.
	cfg := experiment.Config{
		Scale:  cmp.Or(*scale, 1),
		Trials: cmp.Or(*trials, experiment.DefaultTrials),
		Seed:   cmp.Or(*seed, defaultSeed),
	}

	var ids []string
	if *exps == "all" {
		ids = append(ids, experiment.RegistryOrder...)
	} else {
		for _, id := range strings.Split(*exps, ",") {
			id = strings.TrimSpace(id)
			if id != "" {
				ids = append(ids, id)
			}
		}
	}
	if len(ids) == 0 {
		fmt.Fprintln(stderr, "experiments: nothing to run (see -list)")
		return 2
	}

	for _, id := range ids {
		gen := experiment.Registry[id]
		if gen == nil && strings.HasPrefix(id, "ablation:") {
			gen = experiment.AblationRegistry[strings.TrimPrefix(id, "ablation:")]
		}
		if gen == nil {
			fmt.Fprintf(stderr, "experiments: unknown experiment %q (see -list)\n", id)
			return 2
		}
		//ldplint:allow nowallclock wall-time measurement for the run report only
		start := time.Now()
		tables, err := gen(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "experiments: %s: %v\n", id, err)
			return 1
		}
		for _, t := range tables {
			if *csv {
				fmt.Fprintf(stdout, "# %s\n%s\n", t.Title, t.CSV())
			} else {
				fmt.Fprintln(stdout, t.Render())
			}
		}
		//ldplint:allow nowallclock wall-time measurement for the run report only
		elapsed := time.Since(start).Round(time.Millisecond)
		fmt.Fprintf(stdout, "[%s completed in %v: scale=%g trials=%d seed=%d]\n\n",
			id, elapsed, cfg.Scale, cfg.Trials, cfg.Seed)
	}
	return 0
}
