// Census: a complete exploratory + confirmatory analysis session over a
// synthetic census (Section 2.2's life cycle) — summaries and histograms
// on a sample first, then the full view; cross-tabulation with a
// chi-squared independence test; a regression whose residuals become a
// derived attribute maintained by a global rule.
package main

import (
	"fmt"
	"log"
	"math"

	"statdb/internal/core"
	"statdb/internal/dataset"
	"statdb/internal/relalg"
	"statdb/internal/rules"
	"statdb/internal/stats"
	"statdb/internal/summary"
	"statdb/internal/workload"
)

func main() {
	dbms := core.New()
	micro := workload.Microdata(50000, 1982)
	if err := dbms.LoadRaw("people", micro); err != nil {
		log.Fatal(err)
	}

	analyst := dbms.Analyst("bates")
	v, err := analyst.Materialize("people").Build("working")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("== exploratory phase over %d records ==\n", v.Rows())

	// 1. Preliminary impressions from a 1%% sample (Section 2.2).
	sample, err := stats.SampleDataset(v.Dataset(), v.Rows()/100, 7)
	if err != nil {
		log.Fatal(err)
	}
	sx, sv, _ := sample.NumericByName("SALARY")
	ssum, err := stats.Summarize(sx, sv)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sample (n=%d): mean=%.0f sd=%.0f median=%.0f\n", ssum.N, ssum.Mean, ssum.SD, ssum.Median)

	// 2. Confirm on the full view through the Summary Database.
	mean, _ := v.Compute("mean", "SALARY")
	sd, _ := v.Compute("sd", "SALARY")
	med, _ := v.Compute("median", "SALARY")
	fmt.Printf("full view:     mean=%.0f sd=%.0f median=%.0f\n", mean, sd, med)
	fmt.Printf("sample error:  mean %.2f%%, median %.2f%%\n",
		math.Abs(ssum.Mean-mean)/mean*100, math.Abs(ssum.Median-med)/med*100)

	// 3. A histogram, cached as a custom summary result.
	hres, err := v.Result("histogram20", []string{"SALARY"}, func(xs [][]float64, valid [][]bool) (summary.Result, error) {
		h, err := stats.NewHistogram(xs[0], valid[0], 20)
		return summary.HistogramOf(h), err
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("salary histogram: %s\n", hres)

	fmt.Println("\n== confirmatory phase ==")

	// 4. Cross-tabulate SEX x RACE and test independence (they are
	// generated independently, so the test should not reject).
	ct, err := stats.NewCrossTab(v.Dataset(), "SEX", "RACE")
	if err != nil {
		log.Fatal(err)
	}
	chi, err := ct.ChiSquare()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("chi-square(SEX x RACE): stat=%.2f df=%d p=%.3f -> ", chi.Statistic, chi.DF, chi.PValue)
	if chi.PValue > 0.05 {
		fmt.Println("independent (as generated)")
	} else {
		fmt.Println("dependent")
	}

	// 5. Regress SALARY on AGE; store the residuals as a derived
	// attribute kept consistent by a global Management Database rule
	// (the Section 3.2 example).
	residualRule := rules.DerivedRule{
		Inputs: []string{"SALARY", "AGE"},
		Scope:  rules.ScopeGlobal,
		Column: func(ds *dataset.Dataset) ([]dataset.Value, error) {
			xs, xv, err := ds.NumericByName("AGE")
			if err != nil {
				return nil, err
			}
			ys, yv, err := ds.NumericByName("SALARY")
			if err != nil {
				return nil, err
			}
			reg, err := stats.LinearRegression(xs, ys, xv, yv)
			if err != nil {
				return nil, err
			}
			out := make([]dataset.Value, len(reg.Residuals))
			for i, r := range reg.Residuals {
				if math.IsNaN(r) {
					out[i] = dataset.Null
				} else {
					out[i] = dataset.Float(r)
				}
			}
			return out, nil
		},
	}
	if err := v.AddDerived(dataset.Attribute{
		Name: "RESIDUAL", Kind: dataset.KindFloat, Summarizable: true,
		Derived: "residuals(SALARY ~ AGE)",
	}, residualRule); err != nil {
		log.Fatal(err)
	}
	xs, xv, _ := v.Column("AGE")
	ys, yv, _ := v.Column("SALARY")
	reg, err := stats.LinearRegression(xs, ys, xv, yv)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("regression: SALARY = %.0f + %.1f*AGE (R2=%.3f)\n", reg.Intercept, reg.Slope, reg.R2)

	// The residual column answers goodness-of-fit questions through the
	// same cached-summary machinery.
	rmean, _ := v.Compute("mean", "RESIDUAL")
	rsd, _ := v.Compute("sd", "RESIDUAL")
	fmt.Printf("residuals: mean=%.4f sd=%.0f\n", rmean, rsd)

	// 6. Updating a salary triggers the global rule: the residual vector
	// regenerates (model refit included) with no analyst involvement.
	if _, err := v.UpdateWhere("SALARY",
		relalg.Cmp{Attr: "ID", Op: relalg.Eq, Val: dataset.Int(0)},
		dataset.Float(250000)); err != nil {
		log.Fatal(err)
	}
	rmean2, _ := v.Compute("mean", "RESIDUAL")
	fmt.Printf("after one salary edit, residual mean=%.4f (vector regenerated by rule)\n", rmean2)

	fmt.Printf("\nsummary database now holds %d results; counters %+v\n",
		v.Summary().Len(), v.Summary().Counters())
}
