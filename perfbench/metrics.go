package main

import "failstutter/internal/experiments"

// metric is one named, unit-carrying figure the benchmark reports.
type metric struct {
	name, unit string
}

// endToEnd are the figures a user of the simulator sees, taken from the
// untraced passes.
var endToEnd = []metric{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
}

// planes lists the suite's experiment planes, one per experiments source
// file; E32's fleet plane is timed by the fleet workloads instead.
var planes = []string{"storage", "disk", "cpu", "net", "cluster", "model", "river", "variance", "diversity", "wind"}

// planeOf maps every suite experiment to its plane. The disk plane is
// the one that exercises the device layer's service model.
var planeOf = map[string]string{
	"E01": "storage", "E02": "storage", "E03": "storage", "E04": "storage", "E21": "storage", "A2": "storage",
	"E05": "disk", "E06": "disk", "E07": "disk", "E08": "disk", "E13": "disk",
	"E09": "cpu", "E16": "cpu", "E17": "cpu",
	"E10": "net", "E11": "net", "E12": "net",
	"E14": "cluster", "E15": "cluster", "E23": "cluster", "E24": "cluster", "E29": "cluster",
	"E18": "model", "E19": "model", "E20": "model", "E22": "model", "A1": "model", "A3": "model",
	"E25": "river", "E26": "river",
	"E27": "variance", "E28": "variance",
	"E30": "diversity", "A4": "diversity",
	"E31": "wind",
}

// perLayer lists the per-layer figures of a traced pass. Every workload
// reports every one; a layer the workload does not reach reads 0.
func perLayer(suite []experiments.Experiment) []metric {
	ms := []metric{
		{"bench.traced_wall_s", "s"},
		{"bench.trace_overhead_s", "s"},
		{"bench.self_s", "s"},
	}
	for _, e := range suite {
		ms = append(ms, metric{"experiments." + e.ID + ".wall_s", "s"})
	}
	for _, p := range planes {
		ms = append(ms, metric{"plane." + p + ".wall_s", "s"}, metric{"plane." + p + ".alloc_mb", "MiB"})
	}
	for _, p := range []string{"net", "cluster"} {
		ms = append(ms,
			metric{"sim." + p + ".windows", "count"},
			metric{"sim." + p + ".solo_frac", "ratio"},
			metric{"sim." + p + ".delivered", "count"},
			metric{"sim." + p + ".barrier_s", "s"})
	}
	return append(ms,
		metric{"sim.window_s", "s"},
		metric{"sim.ns_per_event", "ns/event"},
		metric{"sim.windows", "count"},
		metric{"sim.solo_windows", "count"},
		metric{"sim.shard_imbalance", "ratio"},
		metric{"sim.deliver_s", "s"},
		metric{"sim.events_per_s", "1/s"},
		metric{"detect.sweep_s", "s"},
		metric{"detect.ns_per_member", "ns/member"},
		metric{"experiments.fleet_other_s", "s"},
		metric{"experiments.fleet_alloc_mb", "MiB"},
		metric{"trace.recorded_spans", "count"},
		metric{"trace.retained_spans", "count"},
		metric{"trace.ns_per_span", "ns/span"},
	)
}
