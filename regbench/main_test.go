package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestSmoke runs every workload for 200 ms on tiny inputs, untraced and
// traced, and holds the result line to BENCHMARK.json: exactly the declared
// metrics, each with its unit and a finite value, and no failed operation.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []declaredMetric        `json:"end_to_end"`
		PerLayer  []declaredMetric        `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, regbench has %d", len(def.Workloads), len(workloads))
	}
	for _, w := range def.Workloads {
		for trace, want := range [][]declaredMetric{def.EndToEnd, def.PerLayer} {
			var out, errOut bytes.Buffer
			args := []string{"-workload", w.Name, "-seed", "3", "-seconds", "0.2", "-scale", "0.02", "-trace", strconv.Itoa(trace)}
			if code := run(args, &out, &errOut); code != 0 {
				t.Fatalf("%v: exit %d\n%s%s", args, code, out.String(), errOut.String())
			}
			res, err := lastResult(out.Bytes())
			if err != nil {
				t.Fatalf("%v: %v\n%s", args, err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%v: correct=%v attempted=%d failed=%d\n%s", args, res.Correct, res.Attempted, res.Failed, out.String())
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%v: %d metrics, BENCHMARK.json declares %d", args, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%v: metric %s missing", args, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%v: metric %s unit %q, BENCHMARK.json says %q", args, d.Name, m.Unit, d.Unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%v: metric %s = %v", args, d.Name, m.Value)
				case trace == 0 && m.Value <= 0:
					t.Errorf("%v: end-to-end metric %s = %v, want > 0", args, d.Name, m.Value)
				}
			}
		}
	}
}

// TestMedianSpread: quartiles follow Python's statistics.quantiles(n=4),
// which gives [2.75, 5.5, 8.25] for 1..10.
func TestMedianSpread(t *testing.T) {
	med, spread := medianSpread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if med != 5.5 || math.Abs(spread-(8.25-2.75)/5.5) > 1e-12 {
		t.Fatalf("median %v spread %v", med, spread)
	}
}

// TestCompareVerdicts exercises each verdict of -compare.
func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	bounds := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bounds, []byte(`{"end_to_end": [
		{"name": "values_per_s", "unit": "values/s", "better": "higher", "bound": 0.1},
		{"name": "lat_p99_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name string, runs map[string][2][]float64) string {
		var recs []record
		for wl, metrics := range runs {
			for i := range metrics[0] {
				recs = append(recs, record{Workload: wl, Result: result{Metrics: map[string]metric{
					"values_per_s": {Value: metrics[0][i]}, "lat_p99_ms": {Value: metrics[1][i]}}}})
			}
		}
		path := filepath.Join(dir, name)
		if err := appendRecords(path, recs); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.jsonl", map[string][2][]float64{
		"w1": {{100, 101, 99, 100}, {1, 1, 1, 1}},
		"w2": {{100, 101, 99, 100}, {1, 1.5, 0.5, 1}},
	})
	b := write("b.jsonl", map[string][2][]float64{
		"w1": {{80, 81, 79, 80}, {0.5, 0.5, 0.5, 0.5}},
		"w2": {{100, 100, 101, 99}, {1, 1, 1, 1}},
	})
	var out bytes.Buffer
	ok, err := compare(a, b, bounds, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"values_per_s", "regressed", "improved", "unresolved", "ok"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("compare output lacks %q:\n%s", want, out.String())
		}
	}
	if ok {
		t.Errorf("compare reported success despite a regression:\n%s", out.String())
	}
}
