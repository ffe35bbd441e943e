package stats

import (
	"math"

	"statdb/internal/exec"
)

// This file is the run-compressed face of the package: the desc.go
// operators evaluated over an exec.RunColumn in O(runs) instead of
// O(rows), without ever expanding the column. The determinism contract
// matches the chunked/parallel face: order-insensitive results (count,
// min, max, frequencies, quantiles, mode, unique) are bit-identical to
// the serial operators over the expanded column, while
// mean and standard deviation regroup float additions (a run of c equal
// values sums as x*c) and agree to ulps. On integer-valued data within
// float64's exact range — census codes and whole-dollar measures — the
// sums are exact too, so even those match bit for bit.

// runFreq tabulates the run column's valid observations as a sorted
// frequency table, the compressed sort every order statistic reads.
func runFreq(rc exec.RunColumn) (values []float64, counts []int64, err error) {
	t, err := exec.FoldFreqRuns(rc)
	return t.Values, t.Counts, err
}

// SummarizeRuns computes the same Summary as Summarize from runs: the
// moments from the per-run closed forms merged in run order, the order
// statistics from the run frequency table. The mean is Sum/N — the
// serial formula — so it matches Summarize exactly whenever the sum is.
func SummarizeRuns(rc exec.RunColumn) (Summary, error) {
	m, err := exec.FoldMomentsRuns(rc)
	if err != nil {
		return Summary{}, err
	}
	if m.N == 0 {
		return Summary{}, ErrNoData
	}
	s := Summary{N: int(m.N), Missing: int(m.Missing), Min: m.Min, Max: m.Max}
	s.Mean = m.Sum / float64(m.N)
	if sd, err := m.SD(); err == nil {
		s.SD = sd
	} else {
		s.SD = math.NaN()
	}
	values, counts, err := runFreq(rc)
	if err != nil {
		return Summary{}, err
	}
	s.Median = quantileFreq(values, counts, m.N, 0.5)
	s.Q1 = quantileFreq(values, counts, m.N, 0.25)
	s.Q3 = quantileFreq(values, counts, m.N, 0.75)
	s.Mode = modeFreq(values, counts)
	s.Unique = len(values)
	return s, nil
}

// FrequenciesRuns is Frequencies over a run column — bit-identical to
// the serial pass (counts are order-insensitive integers).
func FrequenciesRuns(rc exec.RunColumn) (values []float64, counts []int, err error) {
	vs, cs, err := runFreq(rc)
	if err != nil {
		return nil, nil, err
	}
	if len(vs) == 0 {
		return nil, nil, nil
	}
	counts = make([]int, len(cs))
	for i, c := range cs {
		counts[i] = int(c)
	}
	return vs, counts, nil
}
