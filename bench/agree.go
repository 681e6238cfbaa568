package main

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"slices"
)

// declared is the part of BENCHMARK.json the program reads back: the bound
// by which each end-to-end metric may worsen.
type declared struct {
	Workloads []struct {
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

// loadDeclared reads BENCHMARK.json from the repository root, whether the
// program runs from there or from its own directory.
func loadDeclared() (*declared, error) {
	var firstErr error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		data, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var d declared
		if err := json.Unmarshal(data, &d); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &d, nil
	}
	return nil, firstErr
}

// checkWorkloads requires the program's workloads to be the declared ones.
func (d *declared) checkWorkloads() error {
	var have, want []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	for _, w := range d.Workloads {
		want = append(want, w.Name)
	}
	if !slices.Equal(have, want) {
		return fmt.Errorf("BENCHMARK.json declares workloads %v, the program has %v", want, have)
	}
	return nil
}

// checkEmitted requires a measurement's metrics to be exactly the declared
// ones of its kind, name and unit. The benchmark is a module of its own that
// the repository's own tests never build, so every run makes this check.
func (d *declared) checkEmitted(m *measurement) error {
	want := map[string]string{}
	if m.Traced {
		for _, p := range d.PerLayer {
			want[p.Name] = p.Unit
		}
	} else {
		for _, e := range d.EndToEnd {
			want[e.Name] = e.Unit
		}
	}
	for _, s := range m.Series {
		if unit, ok := want[s.Name]; !ok || unit != s.Unit {
			return fmt.Errorf("%s emits %s in %q, which BENCHMARK.json does not declare", m.Workload, s.Name, s.Unit)
		}
		delete(want, s.Name)
	}
	if len(want) > 0 {
		return fmt.Errorf("%s does not emit the declared %v", m.Workload, slices.Sorted(maps.Keys(want)))
	}
	return nil
}

// runAgree measures the untraced suite twice on this commit and reports
// every metric whose two values differ by more than its declared bound.
func runAgree(stdout io.Writer, decl *declared, selected []workload, e *env, seconds float64) error {
	var suites [2]map[string]*measurement
	for i := range suites {
		suites[i] = map[string]*measurement{}
		for _, w := range selected {
			m, err := measureE2E(w, e, seconds)
			if err != nil {
				return err
			}
			if m.Failed > 0 {
				return fmt.Errorf("%s: %d of %d output checks failed: %s", w.name, m.Failed, m.Attempted, m.Failure)
			}
			suites[i][w.name] = m
		}
	}
	disagreements := 0
	fmt.Fprintf(stdout, "%-18s %-20s %14s %14s %8s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
	for _, w := range selected {
		first, second := suites[0][w.name].result().Metrics, suites[1][w.name].result().Metrics
		for _, d := range decl.EndToEnd {
			a, b := first[d.Name].Value, second[d.Name].Value
			diff := math.Abs(b-a) / a
			mark := ""
			if diff > d.Bound {
				mark = "  DISAGREE"
				disagreements++
			}
			fmt.Fprintf(stdout, "%-18s %-20s %14.4f %14.4f %7.2f%% %6.0f%%%s\n", w.name, d.Name, a, b, 100*diff, 100*d.Bound, mark)
		}
	}
	if disagreements > 0 {
		return fmt.Errorf("%d metrics disagree between two runs of the same commit", disagreements)
	}
	return nil
}
