package stats

import "math"

// Regularized incomplete gamma functions, used for chi-squared p-values.
// Standard series / continued-fraction evaluation (Abramowitz & Stegun
// 6.5; the gser/gcf split of Numerical Recipes).

const (
	gammaEps   = 3e-14
	gammaItMax = 300
)

// gammaQ returns Q(a,x), the upper regularized incomplete gamma function.
func gammaQ(a, x float64) float64 {
	switch {
	case x < 0 || a <= 0:
		return math.NaN()
	case x == 0:
		return 1
	case x < a+1:
		return 1 - gser(a, x)
	default:
		return gcf(a, x)
	}
}

// gser evaluates P(a,x) by its series representation (x < a+1).
func gser(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1.0 / a
	del := sum
	for i := 0; i < gammaItMax; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*gammaEps {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-lg)
}

// gcf evaluates Q(a,x) by its continued fraction (x >= a+1), modified
// Lentz's method.
func gcf(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	const fpmin = 1e-300
	b := x + 1 - a
	c := 1 / fpmin
	d := 1 / b
	h := d
	for i := 1; i <= gammaItMax; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = b + an/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < gammaEps {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-lg) * h
}

// ChiSquareSurvival returns P(X >= x) for a chi-squared distribution with
// df degrees of freedom — the p-value of a chi-squared statistic.
func ChiSquareSurvival(x float64, df int) float64 {
	if df < 1 || x < 0 {
		return math.NaN()
	}
	return gammaQ(float64(df)/2, x/2)
}
