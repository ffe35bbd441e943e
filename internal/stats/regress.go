package stats

import (
	"fmt"
	"math"
)

// Correlation returns the Pearson correlation of paired observations,
// skipping pairs where either side is missing — the "is there a
// relationship between the values of two attributes?" question of
// Section 2.2.
func Correlation(xs, ys []float64, xvalid, yvalid []bool) (float64, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("stats: correlation over %d vs %d observations", len(xs), len(ys))
	}
	var n int
	var sx, sy, sxx, syy, sxy float64
	for i := range xs {
		if xvalid != nil && !xvalid[i] {
			continue
		}
		if yvalid != nil && !yvalid[i] {
			continue
		}
		x, y := xs[i], ys[i]
		n++
		sx += x
		sy += y
		sxx += x * x
		syy += y * y
		sxy += x * y
	}
	if n < 2 {
		return 0, fmt.Errorf("stats: correlation needs >= 2 complete pairs, have %d", n)
	}
	fn := float64(n)
	cov := sxy - sx*sy/fn
	vx := sxx - sx*sx/fn
	vy := syy - sy*sy/fn
	if vx == 0 || vy == 0 {
		return 0, fmt.Errorf("stats: correlation undefined for constant input")
	}
	return cov / math.Sqrt(vx*vy), nil
}

// Regression is a fitted simple linear model y = Intercept + Slope·x.
type Regression struct {
	Intercept float64
	Slope     float64
	R2        float64
	N         int
	// Residuals has one entry per input observation: y - ŷ for complete
	// pairs and NaN where either input was missing. The paper's running
	// example stores this vector back into the view as a derived
	// attribute (Section 3.2).
	Residuals []float64
}

// LinearRegression fits y on x by ordinary least squares, skipping
// incomplete pairs.
func LinearRegression(xs, ys []float64, xvalid, yvalid []bool) (*Regression, error) {
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("stats: regression over %d vs %d observations", len(xs), len(ys))
	}
	var n int
	var sx, sy, sxx, sxy float64
	for i := range xs {
		if xvalid != nil && !xvalid[i] {
			continue
		}
		if yvalid != nil && !yvalid[i] {
			continue
		}
		n++
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	if n < 2 {
		return nil, fmt.Errorf("stats: regression needs >= 2 complete pairs, have %d", n)
	}
	fn := float64(n)
	den := sxx - sx*sx/fn
	if den == 0 {
		return nil, fmt.Errorf("stats: regression undefined for constant x")
	}
	slope := (sxy - sx*sy/fn) / den
	intercept := sy/fn - slope*sx/fn

	reg := &Regression{Intercept: intercept, Slope: slope, N: n, Residuals: make([]float64, len(xs))}
	meanY := sy / fn
	var ssRes, ssTot float64
	for i := range xs {
		if (xvalid != nil && !xvalid[i]) || (yvalid != nil && !yvalid[i]) {
			reg.Residuals[i] = math.NaN()
			continue
		}
		pred := intercept + slope*xs[i]
		res := ys[i] - pred
		reg.Residuals[i] = res
		ssRes += res * res
		d := ys[i] - meanY
		ssTot += d * d
	}
	if ssTot > 0 {
		reg.R2 = 1 - ssRes/ssTot
	} else {
		reg.R2 = 1 // y constant and perfectly fit
	}
	return reg, nil
}
