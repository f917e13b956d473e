// Command knnbench regenerates the kNN figures of the paper (Figures
// 13–16): query time and precision of the eight algorithm variants
// {HS, DF} × {Hyper, MinMax, MBR, GP} over an SS-tree.
//
// Usage:
//
//	knnbench [-fig N] [-scale S] [-seed N] [-quant none|f32] [-parallel 1,2,4,8]
//
//	-fig      figure to run: 13, 14, 15, 16, or 0 for all (default 0);
//	          17 runs the index-comparison extension experiment
//	-scale    dataset/query scale relative to the paper's (default 0.02;
//	          1.0 reproduces the full cardinalities — budget hours)
//	-seed     RNG seed (default 1)
//	-shadow   audit every dominance check against Hyperbola and count
//	          per-criterion disagreements (Table 1 in vivo; slows checks)
//	-quant    coarse-filter mode for frozen-snapshot searches (none, f32;
//	          default f32 — results are identical across modes, only the
//	          traversal cost changes; see DESIGN.md §12)
//	-parallel comma-separated worker-pool widths; runs the batch-engine
//	          scaling experiment over a frozen SS-tree instead of the
//	          figures and prints a queries/s table per width
//	-shards   comma-separated shard counts; runs the scatter-gather
//	          shard-scaling experiment (DESIGN.md §13) instead of the
//	          figures and prints a queries/s table per count
//	-load     open a snapshot directory written by datagen -freeze or
//	          hyperdomd/shard SaveDir and benchmark serving straight off
//	          the mmapped files (no tree rebuild) instead of the figures;
//	          prints open latency and queries/s
//
// The shared observability flags apply as well; in particular
// `-trace out.json` samples every `-trace-every`-th search (default 16,
// matching README "Tracing a slow query") for execution tracing and
// exports the slowest retained searches — each with its sampled execution
// trace nested under its span, the same export /debug/requests serves — as
// Chrome trace_event JSON on exit (DESIGN.md §9).
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"hyperdom/internal/dominance"
	"hyperdom/internal/experiments"
	"hyperdom/internal/geom"
	"hyperdom/internal/knn"
	"hyperdom/internal/obs"
	"hyperdom/internal/shard"
)

func main() {
	fig := flag.Int("fig", 0, "figure to run (13-16, 0 = all)")
	scale := flag.Float64("scale", 0.02, "workload scale relative to the paper")
	seed := flag.Int64("seed", 1, "random seed")
	shadow := flag.Bool("shadow", false,
		"shadow-evaluate every dominance check against Hyperbola and count per-criterion disagreements")
	parallel := flag.String("parallel", "",
		"comma-separated engine pool widths (e.g. 1,2,4,8); runs the batch-engine scaling experiment instead of the figures")
	shards := flag.String("shards", "",
		"comma-separated shard counts (e.g. 1,2,4); runs the scatter-gather shard-scaling experiment instead of the figures")
	load := flag.String("load", "",
		"snapshot directory to open and benchmark (skips the figures and any index build)")
	quant := flag.String("quant", "f32",
		"coarse-filter mode for frozen-snapshot searches (none, f32)")
	pf := obs.RegisterFlags(flag.CommandLine)
	flag.Parse()

	if *shadow {
		dominance.SetShadow(true)
	}
	qm, err := knn.ParseQuantMode(*quant)
	if err != nil {
		fmt.Fprintf(os.Stderr, "knnbench: -quant: %v\n", err)
		os.Exit(2)
	}
	knn.SetQuantMode(qm)

	// Figure timings must stay comparable to the paper's, so the counter
	// gate stays off unless observability output was actually asked for.
	if !pf.Wanted() {
		obs.SetEnabled(false)
	}
	stop, err := pf.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "knnbench: %v\n", err)
		os.Exit(2)
	}
	defer stop()

	cfg := experiments.Config{Scale: *scale, Seed: *seed}
	if *load != "" {
		if err := runLoaded(*load, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "knnbench: -load: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *parallel != "" {
		widths, err := parseWidths(*parallel)
		if err != nil {
			fmt.Fprintf(os.Stderr, "knnbench: -parallel: %v\n", err)
			os.Exit(2)
		}
		before := figureMetricsStart(pf)
		fmt.Println(experiments.RunParallel(cfg, widths).Table().Render())
		figureMetricsEnd(pf, 0, before)
		return
	}
	if *shards != "" {
		counts, err := parseWidths(*shards)
		if err != nil {
			fmt.Fprintf(os.Stderr, "knnbench: -shards: %v\n", err)
			os.Exit(2)
		}
		before := figureMetricsStart(pf)
		fmt.Println(experiments.RunSharded(cfg, counts).Table().Render())
		figureMetricsEnd(pf, 0, before)
		return
	}
	if *fig == 17 {
		before := figureMetricsStart(pf)
		fmt.Println(experiments.RunIndexComparison(cfg).Table().Render())
		figureMetricsEnd(pf, 17, before)
		return
	}
	runners := map[int]func(experiments.Config) experiments.KnnResult{
		13: experiments.Fig13,
		14: experiments.Fig14,
		15: experiments.Fig15,
		16: experiments.Fig16,
	}
	order := []int{13, 14, 15, 16}

	selected := order
	if *fig != 0 {
		if _, ok := runners[*fig]; !ok {
			fmt.Fprintf(os.Stderr, "knnbench: unknown figure %d (want 13-16)\n", *fig)
			os.Exit(2)
		}
		selected = []int{*fig}
	}

	for _, f := range selected {
		before := figureMetricsStart(pf)
		res := runners[f](cfg)
		fmt.Println(res.TimeTable().Render())
		fmt.Println(res.PrecisionTable().Render())
		figureMetricsEnd(pf, f, before)
	}
}

// runLoaded opens a snapshot directory and benchmarks serving directly off
// it: open+validate latency first (the cold-start the zero-copy format
// exists for), then sustained queries/s over the standard Gaussian query
// mix (centers 100±25 per coordinate, matching the synthetic corpora).
func runLoaded(dir string, seed int64) error {
	start := time.Now()
	x, err := shard.OpenDir(dir, shard.OpenOptions{Algorithm: knn.HS})
	if err != nil {
		return err
	}
	defer x.Close()
	openLat := time.Since(start)
	fmt.Printf("opened %s in %v: %d items, dim %d, %d shards\n",
		dir, openLat.Round(time.Microsecond), x.Len(), x.Dim(), x.Shards())

	rng := rand.New(rand.NewSource(seed))
	const nq, k = 2000, 10
	queries := make([]geom.Sphere, nq)
	for i := range queries {
		c := make([]float64, x.Dim())
		for j := range c {
			c[j] = 100 + rng.NormFloat64()*25
		}
		queries[i] = geom.NewSphere(c, rng.Float64()*2)
	}
	for i := 0; i < 64; i++ { // warm the mapping and the scratch pools
		x.Search(queries[i%nq], k)
	}
	bstart := time.Now()
	for _, q := range queries {
		x.Search(q, k)
	}
	el := time.Since(bstart)
	fmt.Printf("%d queries (k=%d) in %v: %.0f queries/s\n",
		nq, k, el.Round(time.Millisecond), float64(nq)/el.Seconds())
	return nil
}

// parseWidths parses the -parallel value: comma-separated positive pool
// widths.
func parseWidths(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	widths := make([]int, 0, len(parts))
	for _, p := range parts {
		w, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || w < 1 {
			return nil, fmt.Errorf("bad pool width %q (want positive integers, e.g. 1,2,4,8)", p)
		}
		widths = append(widths, w)
	}
	return widths, nil
}

// figureMetricsStart honors an explicit -metrics per figure: the counter
// gate is (re-)enabled before each figure — regardless of what an earlier
// figure or timing loop left it at — and the registry snapshotted so the
// figure's own counter diff can be printed afterwards.
func figureMetricsStart(pf *obs.ProfileFlags) obs.Snap {
	if !pf.Metrics {
		return nil
	}
	obs.SetEnabled(true)
	return obs.Snapshot()
}

// figureMetricsEnd prints the counters one figure moved, to stderr so the
// figure tables on stdout stay machine-readable.
func figureMetricsEnd(pf *obs.ProfileFlags, fig int, before obs.Snap) {
	if before == nil {
		return
	}
	fmt.Fprintf(os.Stderr, "-- fig %d counters --\n", fig)
	obs.Snapshot().Diff(before).Fprint(os.Stderr)
}
