package main

import (
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"
)

var countWorkloads = []workload{
	{name: "lookup", n: 4000, dim: 4, qradius: -1, k: 10, queries: 120},
	{name: "scan", n: 3000, dim: 10, snapshot: true, qradius: -1, k: 10, queries: 60},
	{name: "wide", n: 4000, dim: 4, qradius: 5, k: 50, queries: 60},
}

// TestCountsRepeat runs the traced run's count pass in two fresh processes
// per workload shape, as two benchmark runs would, and requires the
// deterministic figures to repeat exactly: allocations per call at each
// layer, snapshot bytes per item, and single-index nodes, items and
// dominance checks per query.
func TestCountsRepeat(t *testing.T) {
	if name := os.Getenv("PERFBENCH_COUNTS"); name != "" {
		printCounts(t, name)
		return
	}
	for _, w := range countWorkloads {
		t.Run(w.name, func(t *testing.T) {
			var got [2]string
			for r := range got {
				cmd := exec.Command(os.Args[0], "-test.run=^TestCountsRepeat$", "-test.v")
				cmd.Env = append(os.Environ(), "PERFBENCH_COUNTS="+w.name, "PERFBENCH_COUNTS_DIR="+t.TempDir())
				out, err := cmd.CombinedOutput()
				if err != nil {
					t.Fatalf("count pass: %v\n%s", err, out)
				}
				for _, line := range strings.Split(string(out), "\n") {
					if c, ok := strings.CutPrefix(line, "counts "); ok {
						got[r] = c
					}
				}
				if got[r] == "" {
					t.Fatalf("no counts in output:\n%s", out)
				}
			}
			if got[0] != got[1] {
				t.Fatalf("counts differ between runs of one seed:\n%s\n%s", got[0], got[1])
			}
		})
	}
}

// printCounts is the child side of TestCountsRepeat.
func printCounts(t *testing.T, name string) {
	for _, w := range countWorkloads {
		if w.name != name {
			continue
		}
		fx, err := newFixture(w, 7, os.Getenv("PERFBENCH_COUNTS_DIR"))
		if err != nil {
			t.Fatal(err)
		}
		ly, err := newLayers(fx, 1)
		if err != nil {
			t.Fatal(err)
		}
		defer ly.close()
		c, err := ly.counts(fx)
		if err != nil {
			t.Fatal(err)
		}
		if c.nodes == 0 || c.domChecks == 0 || c.knnAllocs == 0 || c.snapshotBytesPerItem == 0 {
			t.Fatalf("implausible counts: %+v", c)
		}
		fmt.Printf("counts %+v\n", c)
		return
	}
	t.Fatalf("unknown workload %q", name)
}
