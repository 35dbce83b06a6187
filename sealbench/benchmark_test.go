package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// BENCHMARK.json must describe exactly what the command reports: the
// same workloads and the same metrics, in order, with the same units.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: file %q/%q, code %q/%q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(b.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in code", len(b.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range b.EndToEnd {
		c := endToEndMetrics[i]
		if m.Name != c.name || m.Unit != c.unit || m.Better != c.better {
			t.Errorf("end-to-end %d: file %+v, code %+v", i, m, c)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(b.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in code", len(b.PerLayer), len(layerMetrics))
	}
	for i, m := range b.PerLayer {
		c := layerMetrics[i]
		if m.Name != c.name || m.Unit != c.unit || m.Better != c.better {
			t.Errorf("per-layer %d: file %+v, code %+v", i, m, c)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated metric name %q", n)
		}
		seen[n] = true
		if !unit.MatchString(u) {
			t.Errorf("%s: bad unit %q", n, u)
		}
	}
	for _, m := range endToEndMetrics {
		check(m.name, m.unit)
	}
	for _, m := range layerMetrics {
		check(m.name, m.unit)
	}
	if !seen["setup_s"] {
		t.Error("setup_s is not an end-to-end metric")
	}
}
