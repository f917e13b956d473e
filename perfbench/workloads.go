package main

// workload is one traffic mix the benchmark drives against hyperdomd.
// BENCHMARK.json at the repository root lists the same names with the
// reason each exists; the numbers live here because that file's keys are
// fixed.
type workload struct {
	name string
	// Corpus: n items in dim dimensions, centers N(100, 25²) per
	// coordinate, radii U[0, 2) — the serving fixture's generator.
	n, dim int
	// snapshot boots the server from a SaveDir directory through
	// shard.OpenDir (the mmap cold-start path) instead of from CSV.
	snapshot bool
	// qradius < 0 queries with each sampled member's own sphere (the
	// paper's §7.2 query model); otherwise the member's center with this
	// radius.
	qradius float64
	k       int
	// queries is the number of distinct queries; the load loops cycle
	// through them and every answer is diffed against the oracle.
	queries int
	// rate is the open-loop arrival rate in requests/s: a little under
	// half the closed-loop throughput on the reference box (2 cores), so a
	// slow spell of the shared machine does not push it into saturation.
	rate float64
	// boots is how many times set-up runs; setup_s reports the median.
	boots int
}

var workloads = []workload{
	{name: "lookup-d4", n: 100000, dim: 4, qradius: -1, k: 10, queries: 2000, rate: 800, boots: 3},
	{name: "scan-d10", n: 50000, dim: 10, snapshot: true, qradius: -1, k: 10, queries: 400, rate: 450, boots: 5},
	{name: "wide-d4", n: 100000, dim: 4, qradius: 5, k: 50, queries: 1500, rate: 110, boots: 3},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
