package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// spec is the part of BENCHMARK.json the comparison reads.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compare prints one row per workload × end-to-end metric for two result
// files: "regressed" when b's median is worse than a's by more than the
// metric's bound, "improved" when it is better by more than the bound,
// "unresolved" when either side's own spread (interquartile range over
// median) is wider than the bound, "ok" otherwise. It reports whether every
// row is ok or improved.
func compare(pathA, pathB, specPath string, w io.Writer) (bool, error) {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return false, err
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return false, fmt.Errorf("%s: %w", specPath, err)
	}
	a, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	names := map[string]bool{}
	for _, r := range append(append([]record(nil), a...), b...) {
		if r.Trace == 0 {
			names[r.Workload] = true
		}
	}
	wls := make([]string, 0, len(names))
	for n := range names {
		wls = append(wls, n)
	}
	sort.Strings(wls)

	allOK := true
	fmt.Fprintf(w, "%-17s %-16s %14s %7s %14s %7s %8s %6s  %s\n",
		"workload", "metric", "median a", "spread", "median b", "spread", "change", "bound", "verdict")
	for _, wl := range wls {
		for _, m := range sp.EndToEnd {
			va, vb := valuesOf(a, wl, m.Name), valuesOf(b, wl, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				allOK = false
				fmt.Fprintf(w, "%-17s %-16s %s\n", wl, m.Name, "missing")
				continue
			}
			ma, sa := medianSpread(va)
			mb, sb := medianSpread(vb)
			change := (mb - ma) / ma
			worse := change
			if m.Better == "higher" {
				worse = -change
			}
			verdict := "ok"
			switch {
			case sa > m.Bound || sb > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "regressed"
			case -worse > m.Bound:
				verdict = "improved"
			}
			allOK = allOK && (verdict == "ok" || verdict == "improved")
			fmt.Fprintf(w, "%-17s %-16s %14.6g %6.2f%% %14.6g %6.2f%% %+7.2f%% %5.0f%%  %s\n",
				wl, m.Name, ma, 100*sa, mb, 100*sb, 100*change, 100*m.Bound, verdict)
		}
	}
	return allOK, nil
}

// valuesOf collects one metric of one workload's untraced runs.
func valuesOf(recs []record, workload, metric string) []float64 {
	var vs []float64
	for _, r := range recs {
		if r.Workload != workload {
			continue
		}
		if v, ok := r.Result.Metrics[metric]; ok {
			vs = append(vs, v.Value)
		}
	}
	return vs
}

// medianSpread returns the median of vs and the distance between its first
// and third quartiles as a share of the median, with quartiles computed as
// Python's statistics.quantiles(vs, n=4) does (the "exclusive" method).
func medianSpread(vs []float64) (med, spread float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	med = median(s)
	if len(s) < 2 || med == 0 {
		return med, 0
	}
	q := func(i int) float64 {
		n, m := 4, len(s)+1
		j := min(max(i*m/n, 1), len(s)-1)
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
	}
	return med, (q(3) - q(1)) / med
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
