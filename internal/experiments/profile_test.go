package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"failstutter/internal/profile"
	"failstutter/internal/trace"
)

// TestClusterTraceGolden pins the E23 cluster-plane Chrome trace at seed
// 42 byte-for-byte: worker station spans, scheduler reissue/clone
// instants, and the sub-run layout. Refresh with
// `go test ./internal/experiments/ -run ClusterTraceGolden -update`
// after verifying the new timeline in Perfetto.
func TestClusterTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := runObserved(t, "E23").Telemetry.Tracer.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "E23.trace.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("E23 Chrome trace diverged from %s (len %d vs %d); "+
			"inspect in Perfetto and refresh with -update if intended",
			path, buf.Len(), len(want))
	}
}

// TestClusterSpanCoverage checks the cluster plane emits the spans the
// profiler depends on: scheduler instants in E23, BSP supersteps in E29,
// DHT puts and audit records in E14.
func TestClusterSpanCoverage(t *testing.T) {
	countCat := func(tr *trace.Tracer, cat string) int {
		n := 0
		for _, sp := range tr.Spans() {
			if sp.Cat == cat {
				n++
			}
		}
		return n
	}
	if tel := runObserved(t, "E23").Telemetry; countCat(tel.Tracer, "sched") == 0 {
		t.Error("E23: no scheduler reissue/clone instants recorded")
	}
	if tel := runObserved(t, "E29").Telemetry; countCat(tel.Tracer, "bsp") == 0 {
		t.Error("E29: no BSP superstep spans recorded")
	}
	tel := runObserved(t, "E14").Telemetry
	if countCat(tel.Tracer, "dht") == 0 {
		t.Error("E14: no DHT spans recorded")
	}
	// The adaptive run's peer-relative detector must leave an audit
	// trail of its hinted-handoff flag transitions.
	saw := false
	for _, r := range tel.Audit.Records() {
		if r.Detector == "peer-relative" && strings.Contains(r.To, "perf") {
			saw = true
		}
	}
	if !saw {
		t.Error("E14: adaptive DHT detector left no flag transition in the audit trail")
	}
}

// profiled is the quick test config with the profiling plane on.
var profiled = Config{Seed: 42, Quick: true, Profile: true}

// TestProfilePlane exercises the full pipeline on real experiments:
// Profile implies Trace+Metrics, the station sampler populates
// queue-depth series, and the derived artifacts are byte-deterministic.
func TestProfilePlane(t *testing.T) {
	render := func(id string, cfg Config) [4]string {
		e, err := Get(id)
		if err != nil {
			t.Fatal(err)
		}
		tbl := e.Run(cfg)
		tel := tbl.Telemetry
		if tel == nil || !tel.Profile || tel.Tracer == nil || tel.Metrics == nil {
			t.Fatalf("%s: Profile config did not attach tracer+metrics telemetry", id)
		}
		rep := profile.Analyze(tel.Tracer, tel.Metrics)
		slo := profile.AnalyzeSLO(tel.Tracer, profile.SLOConfig{})
		var j, f, x, s strings.Builder
		if err := rep.WriteJSON(&j); err != nil {
			t.Fatal(err)
		}
		if err := rep.WriteFolded(&f); err != nil {
			t.Fatal(err)
		}
		if err := rep.WriteText(&x, 10); err != nil {
			t.Fatal(err)
		}
		if err := slo.WriteJSON(&s); err != nil {
			t.Fatal(err)
		}
		return [4]string{j.String(), f.String(), x.String(), s.String()}
	}

	for _, id := range []string{"E01", "E05", "E23"} {
		a, b := render(id, profiled), render(id, profiled)
		if a != b {
			t.Fatalf("%s: profile artifacts not byte-identical across runs", id)
		}
		if len(a[1]) == 0 {
			t.Fatalf("%s: folded stacks empty", id)
		}
	}

	// The profile analyses of the fleet, the one sharded experiment, must
	// see the same merged data at any shard count: the derived artifacts
	// carry no meta stamp here, so they must be byte-identical between one
	// shard and eight.
	one, eight := profiled, profiled
	one.Shards, eight.Shards = 1, 8
	if render("E32", one) != render("E32", eight) {
		t.Fatal("E32: profile analyses differ between -shards=1 and -shards=8")
	}

	// The sampler must have recorded occupancy for at least one station,
	// and the profiler must surface it as queue stats.
	tbl, _ := Get("E23")
	tel := tbl.Run(profiled).Telemetry
	sawSeries := false
	tel.Metrics.VisitSeries("queue-depth", func(_ []trace.Label, s *trace.Series) {
		if s.Len() > 0 {
			sawSeries = true
		}
	})
	if !sawSeries {
		t.Fatal("E23: profiling run recorded no queue-depth samples")
	}
	rep := profile.Analyze(tel.Tracer, tel.Metrics)
	sawQueue := false
	for _, c := range rep.Components {
		if c.Queue != nil && c.Queue.Samples > 0 {
			sawQueue = true
		}
	}
	if !sawQueue {
		t.Fatal("E23: no component carries sampled queue stats")
	}
}
