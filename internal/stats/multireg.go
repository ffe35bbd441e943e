package stats

import (
	"fmt"
	"math"
)

// MultipleRegression is an ordinary-least-squares fit of y on several
// predictors: y = Coef[0] + Coef[1]·x1 + … + Coef[k]·xk. It solves the
// normal equations by Gaussian elimination with partial pivoting — small
// and dependency-free, adequate for the handful of predictors a
// confirmatory analysis uses.
type MultipleRegression struct {
	// Coef holds the intercept followed by one coefficient per predictor.
	Coef []float64
	R2   float64
	N    int
	// Residuals has one entry per observation; NaN where any input was
	// missing.
	Residuals []float64
}

// FitMultiple regresses ys on the predictor columns, skipping rows where
// any value is missing. Each predictor is a column vector with an
// optional validity mask (nil = all valid).
func FitMultiple(ys []float64, yvalid []bool, predictors [][]float64, pvalid [][]bool) (*MultipleRegression, error) {
	k := len(predictors)
	if k == 0 {
		return nil, fmt.Errorf("stats: regression needs >= 1 predictor")
	}
	n := len(ys)
	for j, p := range predictors {
		if len(p) != n {
			return nil, fmt.Errorf("stats: predictor %d has %d observations, want %d", j, len(p), n)
		}
	}
	if pvalid != nil && len(pvalid) != k {
		return nil, fmt.Errorf("stats: %d validity masks for %d predictors", len(pvalid), k)
	}

	complete := func(i int) bool {
		if yvalid != nil && !yvalid[i] {
			return false
		}
		for j := range predictors {
			if pvalid != nil && pvalid[j] != nil && !pvalid[j][i] {
				return false
			}
		}
		return true
	}

	// Accumulate X'X and X'y over complete rows, with X including the
	// intercept column.
	dim := k + 1
	xtx := make([][]float64, dim)
	for i := range xtx {
		xtx[i] = make([]float64, dim)
	}
	xty := make([]float64, dim)
	rows := 0
	xrow := make([]float64, dim)
	for i := 0; i < n; i++ {
		if !complete(i) {
			continue
		}
		rows++
		xrow[0] = 1
		for j := 0; j < k; j++ {
			xrow[j+1] = predictors[j][i]
		}
		for a := 0; a < dim; a++ {
			for b := 0; b < dim; b++ {
				xtx[a][b] += xrow[a] * xrow[b]
			}
			xty[a] += xrow[a] * ys[i]
		}
	}
	if rows < dim {
		return nil, fmt.Errorf("stats: regression with %d predictors needs >= %d complete rows, have %d", k, dim, rows)
	}

	coef, err := solveLinear(xtx, xty)
	if err != nil {
		return nil, err
	}

	reg := &MultipleRegression{Coef: coef, N: rows, Residuals: make([]float64, n)}
	var meanY float64
	for i := 0; i < n; i++ {
		if complete(i) {
			meanY += ys[i]
		}
	}
	meanY /= float64(rows)
	var ssRes, ssTot float64
	for i := 0; i < n; i++ {
		if !complete(i) {
			reg.Residuals[i] = math.NaN()
			continue
		}
		pred := coef[0]
		for j := 0; j < k; j++ {
			pred += coef[j+1] * predictors[j][i]
		}
		res := ys[i] - pred
		reg.Residuals[i] = res
		ssRes += res * res
		d := ys[i] - meanY
		ssTot += d * d
	}
	if ssTot > 0 {
		reg.R2 = 1 - ssRes/ssTot
	} else {
		reg.R2 = 1
	}
	return reg, nil
}

// solveLinear solves A·x = b in place by Gaussian elimination with
// partial pivoting. A must be square and non-singular.
func solveLinear(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	// Work on copies: callers keep their accumulators.
	m := make([][]float64, n)
	for i := range m {
		m[i] = append([]float64(nil), a[i]...)
	}
	x := append([]float64(nil), b...)
	for col := 0; col < n; col++ {
		// Pivot: largest magnitude in this column.
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(m[pivot][col]) < 1e-12 {
			return nil, fmt.Errorf("stats: singular system (collinear predictors?)")
		}
		m[col], m[pivot] = m[pivot], m[col]
		x[col], x[pivot] = x[pivot], x[col]
		// Eliminate below.
		for r := col + 1; r < n; r++ {
			f := m[r][col] / m[col][col]
			for c := col; c < n; c++ {
				m[r][c] -= f * m[col][c]
			}
			x[r] -= f * x[col]
		}
	}
	// Back-substitute.
	for col := n - 1; col >= 0; col-- {
		for c := col + 1; c < n; c++ {
			x[col] -= m[col][c] * x[c]
		}
		x[col] /= m[col][col]
	}
	return x, nil
}
