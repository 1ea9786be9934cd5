package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one call the benchmark made into a layer, in host time since
// the recorder was created. Parent 0 marks a pass's root span.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

// recorder keeps the traced passes' spans in memory until the benchmark
// ends. A nil recorder records nothing, which is the untraced pass.
type recorder struct {
	origin time.Time
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// begin opens a span and returns its id.
func (r *recorder) begin(parent int, name string) int {
	if r == nil {
		return 0
	}
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, Name: name,
		Start: time.Since(r.origin).Nanoseconds(),
	})
	return len(r.spans)
}

// end closes span id with optional counts recorded at the boundary.
func (r *recorder) end(id int, attrs map[string]float64) {
	if r == nil {
		return
	}
	s := &r.spans[id-1]
	s.End = time.Since(r.origin).Nanoseconds()
	s.Attrs = attrs
}

// selfSeconds is span id's duration minus the part its children cover.
func (r *recorder) selfSeconds(id int) float64 {
	s := r.spans[id-1]
	self := s.End - s.Start
	for _, c := range r.spans[id:] {
		if c.Parent == id {
			self -= c.End - c.Start
		}
	}
	return float64(self) / 1e9
}

// write stores every span as JSON in dir, named after the workload and
// seed, and returns the file's path.
func (r *recorder) write(dir, workload string, seed uint64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("writing spans: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.spans.json", workload, seed))
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, r.spans})
	if err != nil {
		return "", fmt.Errorf("writing spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("writing spans: %w", err)
	}
	return path, nil
}
