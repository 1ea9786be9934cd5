package oracle

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"testing"

	"failstutter/internal/experiments"
)

// analyzeQuick runs one covered experiment at quick scale with the
// profiling plane on (the configuration `fstutter oracle` uses) and
// returns its conformance report.
func analyzeQuick(t *testing.T, id string, seed uint64, shards int) *Report {
	t.Helper()
	e, err := experiments.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	cfg := experiments.Config{Seed: seed, Quick: true, Profile: true, Shards: shards}
	tbl := e.Run(cfg)
	in := Input{Table: tbl, Seed: seed, Quick: true}
	if tbl.Telemetry != nil {
		in.Metrics = tbl.Telemetry.Metrics
	}
	rep, err := Analyze(in)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// Every covered experiment must conform to its analytic model at the
// reference seeds: this is the repo-level guarantee that the simulation
// stays anchored to the physics it claims to reproduce.
func TestConformanceAtReferenceSeeds(t *testing.T) {
	for _, seed := range []uint64{1, 42, 1337} {
		for _, id := range Covered() {
			rep := analyzeQuick(t, id, seed, 0)
			if len(rep.Rows) == 0 {
				t.Errorf("seed %d %s: no conformance rows", seed, id)
			}
			for _, row := range rep.Rows {
				if !row.Pass() {
					t.Errorf("seed %d %s: %s/%s out of band: predicted %g observed %g residual %+g (%s tol %g)",
						seed, id, row.Model, row.Quantity, row.Predicted, row.Observed,
						row.Residual(), row.Bound, row.Tol)
				}
			}
		}
	}
}

func reportBytes(t *testing.T, rep *Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The oracle artifact must be byte-identical across repeated runs, shard
// counts, and concurrent executions: the reports read only virtual-time
// quantities, so nothing about host parallelism may leak into them.
func TestArtifactDeterminism(t *testing.T) {
	ids := []string{"E05", "E23", "E29"}
	for _, seed := range []uint64{1, 42, 1337} {
		for _, id := range ids {
			want := reportBytes(t, analyzeQuick(t, id, seed, 0))
			// Repeated runs.
			if got := reportBytes(t, analyzeQuick(t, id, seed, 0)); !bytes.Equal(got, want) {
				t.Errorf("seed %d %s: repeated run artifact differs", seed, id)
			}
			// Shard counts.
			for _, shards := range []int{1, 2, 8} {
				if got := reportBytes(t, analyzeQuick(t, id, seed, shards)); !bytes.Equal(got, want) {
					t.Errorf("seed %d %s: artifact differs at %d shards", seed, id, shards)
				}
			}
		}
	}
}

// Concurrent experiment runs (the `all -parallel N` configuration) must
// not perturb each other's oracle reports.
func TestArtifactDeterminismUnderConcurrency(t *testing.T) {
	ids := []string{"E05", "E23", "E29"}
	want := map[string][]byte{}
	for _, id := range ids {
		want[id] = reportBytes(t, analyzeQuick(t, id, 42, 0))
	}
	var wg sync.WaitGroup
	errs := make(chan string, len(ids)*4)
	for round := 0; round < 4; round++ {
		for _, id := range ids {
			wg.Add(1)
			go func(id string, round int) {
				defer wg.Done()
				e, err := experiments.Get(id)
				if err != nil {
					errs <- err.Error()
					return
				}
				cfg := experiments.Config{Seed: 42, Quick: true, Profile: true}
				tbl := e.Run(cfg)
				in := Input{Table: tbl, Seed: 42, Quick: true}
				if tbl.Telemetry != nil {
					in.Metrics = tbl.Telemetry.Metrics
				}
				rep, err := Analyze(in)
				if err != nil {
					errs <- err.Error()
					return
				}
				var buf bytes.Buffer
				if err := rep.WriteJSON(&buf); err != nil {
					errs <- err.Error()
					return
				}
				if !bytes.Equal(buf.Bytes(), want[id]) {
					errs <- fmt.Sprintf("%s round %d: concurrent artifact differs", id, round)
				}
			}(id, round)
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestE32SeedGatedRows pins the fleet predictor's seed gating: every
// seed gets the binomial-injection and conservation rows, but the
// exact-recall and zero-false-alarm equalities only apply at the
// committed seed 42 — at other seeds the detector is merely conservative,
// not provably perfect.
func TestE32SeedGatedRows(t *testing.T) {
	hasQuantity := func(rep *Report, q string) bool {
		for _, row := range rep.Rows {
			if row.Quantity == q {
				return true
			}
		}
		return false
	}
	at42 := analyzeQuick(t, "E32", 42, 0)
	if !hasQuantity(at42, "false_alarms_512") || !hasQuantity(at42, "lag_ticks_2048") {
		t.Errorf("seed 42: exact-count rows missing from report: %+v", at42.Rows)
	}
	at1 := analyzeQuick(t, "E32", 1, 0)
	if hasQuantity(at1, "false_alarms_512") {
		t.Error("seed 1: exact false-alarm row present; it is only provable at the committed seed")
	}
	if !hasQuantity(at1, "injected_stutter_2048") {
		t.Error("seed 1: binomial injection rows missing")
	}
}

// The cluster plane runs on one plain kernel, so the makespans the
// list-scheduling and BSP superstep models derive in closed form are
// exact schedules, not brackets: every such row must match to float
// rounding, far inside its tolerance band.
func TestClusterExactScheduleRows(t *testing.T) {
	exact := map[string][]string{
		"E15": {
			"healthy_ms_static-partition", "healthy_ms_gauged-partition",
			"healthy_ms_work-queue", "healthy_ms_detect-avoid",
			"hog_ms_static-partition", "hog_ms_gauged-partition",
		},
		"E29": {"healthy_ms_static", "slow_ms_static", "healthy_ms_elastic"},
	}
	for _, seed := range []uint64{1, 42, 1337} {
		for _, id := range []string{"E15", "E29"} {
			rep := analyzeQuick(t, id, seed, 0)
			for _, q := range exact[id] {
				seen := false
				for _, row := range rep.Rows {
					if row.Quantity != q {
						continue
					}
					seen = true
					if res := row.Residual(); math.Abs(res) > 1e-12 {
						t.Errorf("seed %d %s: %s predicted %g observed %g, residual %+g exceeds 1e-12",
							seed, id, q, row.Predicted, row.Observed, res)
					}
				}
				if !seen {
					t.Errorf("seed %d %s: no conformance row for %s", seed, id, q)
				}
			}
		}
	}
}

// The disk service model charges each zone segment count × block time,
// the same arithmetic as the zone model's closed form, so the
// deterministic disk-model rows (no remap draw) are exact to float
// rounding, far inside their 1e-9 tolerance bands.
func TestDiskExactModelRows(t *testing.T) {
	exact := map[string][]string{
		"E05": {"healthy_bw", "bw_0"},
		"E08": {"bw_outer", "bw_middle", "bw_inner", "zone_ratio"},
		"E13": {"bw_0", "bw_1", "bw_2", "bw_3", "age_ratio", "fresh_identical"},
	}
	for _, seed := range []uint64{1, 42, 1337} {
		for _, id := range []string{"E05", "E08", "E13"} {
			rep := analyzeQuick(t, id, seed, 0)
			for _, q := range exact[id] {
				seen := false
				for _, row := range rep.Rows {
					if row.Quantity != q {
						continue
					}
					seen = true
					if res := row.Residual(); math.Abs(res) > 1e-15 {
						t.Errorf("seed %d %s: %s predicted %g observed %g, residual %+g exceeds 1e-15",
							seed, id, q, row.Predicted, row.Observed, res)
					}
				}
				if !seen {
					t.Errorf("seed %d %s: no conformance row for %s", seed, id, q)
				}
			}
		}
	}
}

func TestAnalyzeRejectsUncovered(t *testing.T) {
	tbl := experiments.NewTable("E99", "uncovered", "n/a", "col")
	if _, err := Analyze(Input{Table: tbl}); err == nil {
		t.Fatal("Analyze accepted an uncovered experiment")
	}
	if _, err := Analyze(Input{}); err == nil {
		t.Fatal("Analyze accepted a nil table")
	}
}
