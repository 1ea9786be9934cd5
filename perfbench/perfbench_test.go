package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"failstutter/internal/experiments"
)

// TestMain lets the test binary stand in for the benchmark when
// timeSetup re-executes it in probe mode.
func TestMain(m *testing.M) {
	for _, a := range os.Args[1:] {
		if a == "-probe" {
			main()
			os.Exit(0)
		}
	}
	os.Exit(m.Run())
}

// tiny resolves a workload and shrinks it: a 2^10-disk fleet, or three
// quick experiments from different planes (storage, net, cluster).
func tiny(t *testing.T, name string) *workload {
	t.Helper()
	w, err := newWorkload(name, 2)
	if err != nil {
		t.Fatal(err)
	}
	if w.suite != nil {
		w.suite.exps = nil
		for _, id := range []string{"E01", "E10", "E14"} {
			e, err := experiments.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			w.suite.exps = append(w.suite.exps, e)
		}
		w.suite.quick = true
	} else {
		w.fleet.disks = 1 << 10
	}
	return w
}

var workloadNames = []string{"suite", "fleet", "fleet-sharded", "fleet-traced"}

// declared reads the metrics BENCHMARK.json at the repository root
// declares, by name, with their units.
func declared(t *testing.T) (endToEnd, perLayer map[string]string, workloads []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var b struct {
		Workloads []named
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		workloads = append(workloads, w.Name)
	}
	byName := func(ns []named) map[string]string {
		out := map[string]string{}
		for _, n := range ns {
			out[n.Name] = n.Unit
		}
		return out
	}
	return byName(b.EndToEnd), byName(b.PerLayer), workloads
}

func units(ms []metric) map[string]string {
	out := map[string]string{}
	for _, m := range ms {
		out[m.name] = m.unit
	}
	return out
}

func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	e2e, layers, wls := declared(t)
	suite, err := suiteExperiments()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := units(endToEnd), e2e; !sameUnits(got, want) {
		t.Errorf("end-to-end metrics %v, BENCHMARK.json declares %v", got, want)
	}
	if got, want := units(perLayer(suite)), layers; !sameUnits(got, want) {
		t.Errorf("per-layer metrics %v, BENCHMARK.json declares %v", got, want)
	}
	if strings.Join(wls, " ") != strings.Join(workloadNames, " ") {
		t.Errorf("BENCHMARK.json workloads %v, want %v", wls, workloadNames)
	}
}

func sameUnits(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	e2e, layers, _ := declared(t)
	suite, err := suiteExperiments()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			res, err := measure(tiny(t, name), 42, 0, traced, []float64{0.001}, perLayer(suite), t.TempDir(), io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct %v, %d of %d failed", name, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := e2e
			if traced {
				want = layers
			}
			got := map[string]string{}
			for k, v := range res.Metrics {
				got[k] = v.Unit
			}
			if !sameUnits(got, want) {
				t.Errorf("%s traced=%v: emitted %v, want %v", name, traced, got, want)
			}
		}
	}
}

func TestTracedFleetAttributesItsWall(t *testing.T) {
	suite, _ := suiteExperiments()
	res, err := measure(tiny(t, "fleet-traced"), 42, 0, true, nil, perLayer(suite), t.TempDir(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if v := res.Metrics["experiments.fleet_other_s"].Value; v < 0 {
		t.Errorf("fleet_other_s = %g: the barrier split exceeds the measured wall", v)
	}
	if res.Metrics["trace.recorded_spans"].Value <= res.Metrics["trace.retained_spans"].Value {
		t.Errorf("flight recorder kept every span: %v", res.Metrics)
	}
}

func TestSetupProbe(t *testing.T) {
	got, err := timeSetup([]string{"-workload", "fleet", "-seed", "1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != setupProbes {
		t.Fatalf("%d set-up samples, want %d", len(got), setupProbes)
	}
	for _, s := range got {
		if s <= 0 {
			t.Fatalf("non-positive set-up time in %v", got)
		}
	}
}

func TestInjectedBadResultFails(t *testing.T) {
	suite, _ := suiteExperiments()
	cases := map[string]func(*workload){
		"oracle row out of band": func(w *workload) {
			w.suite.run = func(e experiments.Experiment, cfg experiments.Config) *experiments.Table {
				tbl := e.Run(cfg)
				if e.ID == "E01" {
					tbl.SetMetric("throughput", 0)
				}
				return tbl
			}
		},
		"panic": func(w *workload) {
			w.suite.run = func(e experiments.Experiment, cfg experiments.Config) *experiments.Table {
				if e.ID == "E10" {
					panic("injected")
				}
				return e.Run(cfg)
			}
		},
		"false alarm": func(w *workload) {
			w.fleet.run = func(p experiments.FleetParams) experiments.FleetResult {
				r := experiments.RunFleetScenario(p)
				r.FalseAlarms++
				return r
			}
		},
		"missed stutter": func(w *workload) {
			w.fleet.run = func(p experiments.FleetParams) experiments.FleetResult {
				r := experiments.RunFleetScenario(p)
				r.DetectedStutter--
				return r
			}
		},
	}
	for name, inject := range cases {
		wl := "suite"
		if strings.Contains(name, "alarm") || strings.Contains(name, "stutter") {
			wl = "fleet"
		}
		w := tiny(t, wl)
		inject(w)
		res, err := measure(w, 42, 0, false, []float64{0.001}, perLayer(suite), t.TempDir(), io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct || res.Failed != 1 {
			t.Errorf("%s: correct %v, %d of %d failed; want exactly the bad operation failed",
				name, res.Correct, res.Failed, res.Attempted)
		}
	}
}

func TestPanicNamesExperimentAndSeed(t *testing.T) {
	e, err := experiments.Get("E01")
	if err != nil {
		t.Fatal(err)
	}
	_, err = guardRun(func(experiments.Experiment, experiments.Config) *experiments.Table { panic("boom") },
		e, experiments.Config{Seed: 7})
	if err == nil || !strings.Contains(err.Error(), "E01") || !strings.Contains(err.Error(), "seed 7") {
		t.Fatalf("guardRun error %v, want one naming E01 and seed 7", err)
	}
}

func TestOutputChangeBetweenPassesFails(t *testing.T) {
	suite, _ := suiteExperiments()
	w := tiny(t, "fleet")
	calls := 0
	w.fleet.run = func(p experiments.FleetParams) experiments.FleetResult {
		r := experiments.RunFleetScenario(p)
		calls++
		r.Events += uint64(calls)
		return r
	}
	// A traced run makes an untraced and a traced pass.
	res, err := measure(w, 42, 0, true, nil, perLayer(suite), t.TempDir(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempted != 2 || res.Failed != 1 || res.Correct {
		t.Fatalf("correct %v, %d of %d failed; want the second pass's changed output to fail",
			res.Correct, res.Failed, res.Attempted)
	}
}

func TestTracedPassWritesSpans(t *testing.T) {
	suite, _ := suiteExperiments()
	dir := t.TempDir()
	if _, err := measure(tiny(t, "suite"), 42, 0, true, nil, perLayer(suite), dir, io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "suite-seed42.spans.json"))
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Workload string
		Spans    []span
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	names := map[string]span{}
	for _, s := range out.Spans {
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
		names[s.Name] = s
	}
	root := names["suite.pass"]
	for _, want := range []string{"experiments.E01.Run", "experiments.E10.Run", "experiments.E14.Run", "oracle.Analyze"} {
		s, ok := names[want]
		if !ok || s.Parent != root.ID || s.Start < root.Start || s.End > root.End {
			t.Errorf("span %s missing or outside suite.pass: %+v (root %+v)", want, s, root)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) and ([1, 2], n=4).
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
	} {
		if got := quartiles(c.in); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestOversubscribedRunIsInvalid(t *testing.T) {
	w := tiny(t, "fleet-sharded")
	w.fleet.shards = runtime.NumCPU()
	if e := describe(w, 1); !e.Valid {
		t.Errorf("%d shards on %d CPUs marked invalid", e.Shards, e.NumCPU)
	}
	w.fleet.shards = runtime.NumCPU() + 1
	if e := describe(w, 1); e.Valid {
		t.Errorf("%d shards on %d CPUs marked valid", e.Shards, e.NumCPU)
	}
}
