package main

import (
	"encoding/json"
	"math"
	"math/rand/v2"
	"os"
	"testing"

	"ageguard/internal/liberty"
)

// TestShortWorkloads runs the short mode of every workload, untraced
// and traced, with every output check on.
func TestShortWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				res, err := runOnce(w, options{seed: 3, seconds: 1, trace: trace, short: true, work: t.TempDir()})
				if err != nil {
					t.Fatalf("trace=%v: %v", trace, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("trace=%v: correct=%v attempted=%d failed=%d", trace, res.Correct, res.Attempted, res.Failed)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("trace=%v: %d metrics, want %d", trace, len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || m.Value < 0 {
						t.Errorf("trace=%v: metric %s = %+v", trace, d.name, m)
					}
					if !trace && m.Value <= 0 {
						t.Errorf("end-to-end metric %s reads %g", d.name, m.Value)
					}
				}
				if trace {
					if u := res.Metrics["trace.unattributed_pct"].Value; u >= 10 {
						t.Errorf("spans leave %.2f%% of the measured wall unattributed", u)
					}
				}
			}
		})
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json declares exactly the
// workloads and metrics the program prints.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: declared %s, implemented %s", i, w.Name, workloads[i].name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("declared %d+%d metrics, the program prints %d+%d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end %d: declared %s/%s, printed %s/%s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer %d: declared %s/%s, printed %s/%s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// TestQuartiles pins the quartiles to Python's
// statistics.quantiles(range(1, 11), n=4) and of an odd count.
func TestQuartiles(t *testing.T) {
	got := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if got != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles(1..10) = %v", got)
	}
	if got := quartiles([]float64{1, 2, 3, 4, 5}); got != [3]float64{1.5, 3, 4.5} {
		t.Errorf("quartiles(1..5) = %v", got)
	}
}

// TestBilinear checks the benchmark's own interpolation against the
// library's inside and outside the grid.
func TestBilinear(t *testing.T) {
	tab := liberty.NewTable([]float64{1, 2, 4}, []float64{10, 20, 50})
	rng := rand.New(rand.NewPCG(1, 2))
	for i := range tab.Values {
		for j := range tab.Values[i] {
			tab.Values[i][j] = rng.Float64()
		}
	}
	for k := 0; k < 1000; k++ {
		s, l := 0.5+4*rng.Float64(), 5+50*rng.Float64()
		if got, want := bilinear(tab, s, l), tab.At(s, l); !near(got, want) {
			t.Fatalf("bilinear(%g, %g) = %g, Table.At gives %g", s, l, got, want)
		}
	}
}
