package profile

import (
	"strings"
	"testing"

	"failstutter/internal/trace"
)

func art(benches ...Bench) *BenchArtifact {
	return &BenchArtifact{Schema: BenchSchema, Seed: 42, Quick: true, Benchmarks: benches}
}

func samples(base float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		// Small deterministic jitter so medians are realistic, ±2%.
		out[i] = base * (1 + 0.02*float64(i%3-1))
	}
	return out
}

func TestPerfDiffIdenticalInputsPass(t *testing.T) {
	a := art(
		Bench{Name: "BenchmarkKernel", Unit: "ns/op", Samples: samples(1000, 7)},
		Bench{Name: "BenchmarkStation", Unit: "ns/op", Samples: samples(250, 7)},
	)
	rep := PerfDiff(a, a, PerfDiffConfig{})
	if rep.Failed() {
		t.Fatalf("identical artifacts flagged: %+v", rep.Deltas)
	}
	for _, d := range rep.Deltas {
		if d.Status != DiffOK {
			t.Fatalf("benchmark %s status %s on identical inputs", d.Name, d.Status)
		}
	}
}

func TestPerfDiffFlagsTwoXSlower(t *testing.T) {
	old := art(Bench{Name: "BenchmarkKernel", Unit: "ns/op", Samples: samples(1000, 7)})
	slow := art(Bench{Name: "BenchmarkKernel", Unit: "ns/op", Samples: samples(2000, 7)})
	rep := PerfDiff(old, slow, PerfDiffConfig{})
	if !rep.Failed() || rep.Regressions != 1 {
		t.Fatalf("2x-slower fixture not flagged: %+v", rep)
	}
	d := rep.Deltas[0]
	if d.Status != DiffRegression {
		t.Fatalf("status %s, want regression", d.Status)
	}
	if d.Ratio > 0.55 || d.Ratio < 0.45 {
		t.Fatalf("throughput ratio %v, want ~0.5", d.Ratio)
	}
	if d.Verdict != "perf-faulty" {
		t.Fatalf("verdict %q, want perf-faulty", d.Verdict)
	}
}

func TestPerfDiffMissingAndNew(t *testing.T) {
	old := art(
		Bench{Name: "BenchmarkGone", Unit: "ns/op", Samples: samples(100, 5)},
		Bench{Name: "BenchmarkKept", Unit: "ns/op", Samples: samples(100, 5)},
	)
	now := art(
		Bench{Name: "BenchmarkKept", Unit: "ns/op", Samples: samples(100, 5)},
		Bench{Name: "BenchmarkAdded", Unit: "ns/op", Samples: samples(100, 5)},
	)
	rep := PerfDiff(old, now, PerfDiffConfig{})
	got := map[string]string{}
	for _, d := range rep.Deltas {
		got[d.Name] = d.Status
	}
	if got["BenchmarkGone"] != DiffMissing {
		t.Fatalf("vanished benchmark status %q, want missing", got["BenchmarkGone"])
	}
	if got["BenchmarkAdded"] != DiffAdded || got["BenchmarkKept"] != DiffOK {
		t.Fatalf("statuses %v", got)
	}
	if !rep.Failed() {
		t.Fatal("a vanished benchmark must fail the gate")
	}
}

func TestPerfDiffImprovedAndDeclining(t *testing.T) {
	old := art(Bench{Name: "BenchmarkFast", Unit: "ns/op", Samples: samples(1000, 7)})
	fast := art(Bench{Name: "BenchmarkFast", Unit: "ns/op", Samples: samples(500, 7)})
	rep := PerfDiff(old, fast, PerfDiffConfig{})
	if rep.Failed() || rep.Improved != 1 {
		t.Fatalf("2x-faster not reported improved: %+v", rep)
	}

	// A steady slide that stays above the 0.8 window threshold at the
	// median must still trip the trend warning.
	decl := make([]float64, 8)
	for i := range decl {
		decl[i] = 1000 * (1 + 0.025*float64(i)) // 1000 -> 1175 ns/op
	}
	oldD := art(Bench{Name: "BenchmarkDrift", Unit: "ns/op", Samples: decl[:4]})
	newD := art(Bench{Name: "BenchmarkDrift", Unit: "ns/op", Samples: decl[4:]})
	repD := PerfDiff(oldD, newD, PerfDiffConfig{})
	if repD.Failed() {
		t.Fatalf("drift inside threshold flagged as regression: %+v", repD.Deltas)
	}
	if repD.Declining != 1 {
		t.Fatalf("sustained decline not warned: %+v", repD.Deltas)
	}
}

func TestPerfDiffAuditTrail(t *testing.T) {
	log := trace.NewAuditLog()
	old := art(Bench{Name: "BenchmarkKernel", Unit: "ns/op", Samples: samples(1000, 7)})
	slow := art(Bench{Name: "BenchmarkKernel", Unit: "ns/op", Samples: samples(2000, 7)})
	PerfDiff(old, slow, PerfDiffConfig{Audit: log})
	saw := false
	for _, r := range log.Records() {
		if r.Component == "BenchmarkKernel" && strings.Contains(r.To, "perf") {
			saw = true
		}
	}
	if !saw {
		t.Fatalf("no audited verdict transition for the regressed benchmark (%d records)", log.Len())
	}
}

func TestBenchArtifactRoundTripCanonical(t *testing.T) {
	a := art(
		Bench{Name: "BenchmarkB", Unit: "ns/op", Samples: []float64{2.5, 3.125}},
		Bench{Name: "BenchmarkA", Unit: "ns/op", Samples: []float64{0.1}},
	)
	var s1 strings.Builder
	if err := a.WriteJSON(&s1); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBench(strings.NewReader(s1.String()))
	if err != nil {
		t.Fatal(err)
	}
	var s2 strings.Builder
	if err := back.WriteJSON(&s2); err != nil {
		t.Fatal(err)
	}
	if s1.String() != s2.String() {
		t.Fatalf("bench artifact round trip not byte-identical:\n%s\nvs\n%s", s1.String(), s2.String())
	}
	// Canonical order: sorted by name regardless of input order.
	if strings.Index(s1.String(), "BenchmarkA") > strings.Index(s1.String(), "BenchmarkB") {
		t.Fatal("canonical artifact not sorted by benchmark name")
	}
	if _, err := ReadBench(strings.NewReader(`{"schema":"bogus/9"}`)); err == nil {
		t.Fatal("bogus schema accepted")
	}
}

// TestPerfDiffAddedInformational pins the defined behaviour for
// benchmarks present only in the new artifact: an informational "added"
// line and a counter, never a gate failure — the state every fresh
// benchmark passes through before the baseline is regenerated.
func TestPerfDiffAddedInformational(t *testing.T) {
	old := art(Bench{Name: "BenchmarkKept", Unit: "ns/op", Samples: samples(100, 5)})
	now := art(
		Bench{Name: "BenchmarkKept", Unit: "ns/op", Samples: samples(100, 5)},
		Bench{Name: "BenchmarkFresh", Unit: "ns/op", Samples: samples(777, 5)},
	)
	rep := PerfDiff(old, now, PerfDiffConfig{})
	if rep.Failed() {
		t.Fatalf("an added benchmark must not fail the gate: %+v", rep.Deltas)
	}
	if rep.Added != 1 {
		t.Fatalf("Added = %d, want 1", rep.Added)
	}
	var fresh *BenchDelta
	for i := range rep.Deltas {
		if rep.Deltas[i].Name == "BenchmarkFresh" {
			fresh = &rep.Deltas[i]
		}
	}
	if fresh == nil || fresh.Status != DiffAdded {
		t.Fatalf("added benchmark delta %+v, want status %q", fresh, DiffAdded)
	}
	if fresh.NewMedian != 777 {
		t.Fatalf("added benchmark median %v, want its new median 777", fresh.NewMedian)
	}
	var txt strings.Builder
	if err := rep.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt.String(), "added") {
		t.Fatalf("report text missing the added line:\n%s", txt.String())
	}
}

// TestPerfDiffRateUnits covers benchmarks whose unit is already a rate
// (events/s): samples pass straight to the detectors and the ratio is
// new-over-old, so halved throughput regresses and doubled improves —
// the mirror of the ns/op direction.
func TestPerfDiffRateUnits(t *testing.T) {
	old := art(Bench{Name: "fleet/events", Unit: "events/s", Samples: samples(50e6, 5)})
	slow := art(Bench{Name: "fleet/events", Unit: "events/s", Samples: samples(20e6, 5)})
	rep := PerfDiff(old, slow, PerfDiffConfig{})
	if !rep.Failed() || rep.Deltas[0].Status != DiffRegression {
		t.Fatalf("halved events/s not flagged: %+v", rep.Deltas)
	}
	if r := rep.Deltas[0].Ratio; r < 0.35 || r > 0.45 {
		t.Fatalf("rate-unit ratio %v, want ~0.4 (new/old)", r)
	}
	fast := art(Bench{Name: "fleet/events", Unit: "events/s", Samples: samples(110e6, 5)})
	rep = PerfDiff(old, fast, PerfDiffConfig{})
	if rep.Failed() || rep.Improved != 1 {
		t.Fatalf("doubled events/s not improved: %+v", rep.Deltas)
	}
}

// TestPerfDiffParallelismWarnings pins the metadata warning contract:
// both sides non-zero and different warns (and never fails the gate);
// a zero on either side — an artifact predating the fields — is
// unknown, not different, and stays silent.
func TestPerfDiffParallelismWarnings(t *testing.T) {
	bench := Bench{Name: "BenchmarkKernel", Unit: "ns/op", Samples: samples(1000, 5)}
	withMeta := func(shards, procs, cpus int) *BenchArtifact {
		a := art(bench)
		a.Shards, a.GoMaxProcs, a.NumCPU = shards, procs, cpus
		return a
	}

	rep := PerfDiff(withMeta(1, 1, 1), withMeta(8, 16, 16), PerfDiffConfig{})
	if len(rep.Warnings) != 3 {
		t.Fatalf("want 3 metadata warnings, got %d: %v", len(rep.Warnings), rep.Warnings)
	}
	if rep.Failed() {
		t.Fatal("metadata mismatch must warn, never fail the gate")
	}
	var text strings.Builder
	if err := rep.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "warning: shards differs (old 1, new 8)") {
		t.Fatalf("warning missing from text report:\n%s", text.String())
	}

	for _, tc := range []struct {
		name     string
		old, new *BenchArtifact
	}{
		{"equal", withMeta(4, 4, 4), withMeta(4, 4, 4)},
		{"old-unknown", withMeta(0, 0, 0), withMeta(8, 16, 16)},
		{"new-unknown", withMeta(8, 16, 16), withMeta(0, 0, 0)},
	} {
		if rep := PerfDiff(tc.old, tc.new, PerfDiffConfig{}); len(rep.Warnings) != 0 {
			t.Errorf("%s: unexpected warnings %v", tc.name, rep.Warnings)
		}
	}
}

// TestBenchArtifactParallelismRoundTrip checks the metadata fields
// survive the canonical write/read cycle byte-identically.
func TestBenchArtifactParallelismRoundTrip(t *testing.T) {
	a := art(Bench{Name: "BenchmarkA", Unit: "ns/op", Samples: []float64{1}})
	a.Shards, a.GoMaxProcs, a.NumCPU = 8, 16, 32
	var s1 strings.Builder
	if err := a.WriteJSON(&s1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s1.String(), `"shards":8,"gomaxprocs":16,"numcpu":32`) {
		t.Fatalf("metadata missing from canonical artifact:\n%s", s1.String())
	}
	back, err := ReadBench(strings.NewReader(s1.String()))
	if err != nil {
		t.Fatal(err)
	}
	var s2 strings.Builder
	if err := back.WriteJSON(&s2); err != nil {
		t.Fatal(err)
	}
	if s1.String() != s2.String() {
		t.Fatalf("parallelism metadata round trip not byte-identical:\n%s\nvs\n%s", s1.String(), s2.String())
	}
}

// TestPerfDiffOversubscriptionWarning flags an artifact recorded with
// more shards or sweep workers than its host had cores — the committed
// baseline's shards 8 on numcpu 1 — on either side, never failing the
// gate; an unknown numcpu stays silent.
func TestPerfDiffOversubscriptionWarning(t *testing.T) {
	bench := Bench{Name: "BenchmarkKernel", Unit: "ns/op", Samples: samples(1000, 5)}
	withMeta := func(shards, workers, cpus int) *BenchArtifact {
		a := art(bench)
		a.Shards, a.GoMaxProcs, a.NumCPU, a.SweepWorkers = shards, cpus, cpus, workers
		return a
	}

	rep := PerfDiff(withMeta(8, 8, 1), withMeta(1, 1, 1), PerfDiffConfig{})
	want := []string{
		"old artifact ran 8 shards on numcpu 1",
		"old artifact ran 8 sweep workers on numcpu 1",
	}
	var text strings.Builder
	if err := rep.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, w := range want {
		if !strings.Contains(text.String(), "warning: "+w) {
			t.Errorf("warning %q missing from text report:\n%s", w, text.String())
		}
	}
	if rep.Failed() {
		t.Fatal("oversubscription must warn, never fail the gate")
	}

	rep = PerfDiff(withMeta(2, 2, 2), withMeta(2, 4, 2), PerfDiffConfig{})
	if len(rep.Warnings) != 2 || !strings.Contains(rep.Warnings[1], "new artifact ran 4 sweep workers on numcpu 2") {
		t.Fatalf("new-side oversubscription: warnings %v", rep.Warnings)
	}

	for _, tc := range []struct {
		name     string
		old, new *BenchArtifact
	}{
		{"within-cores", withMeta(2, 2, 2), withMeta(2, 2, 2)},
		{"numcpu-unknown", withMeta(8, 8, 0), withMeta(8, 8, 0)},
	} {
		if rep := PerfDiff(tc.old, tc.new, PerfDiffConfig{}); len(rep.Warnings) != 0 {
			t.Errorf("%s: unexpected warnings %v", tc.name, rep.Warnings)
		}
	}
}
