// Dataclean: the data-checking workflow of Sections 2.2 and 3.1 — hunt
// for invalid values with range checks and the cached mean±k·sd test,
// mark them missing, audit the update history, and undo a mistake.
package main

import (
	"fmt"
	"log"

	"statdb/internal/core"
	"statdb/internal/dataset"
	"statdb/internal/relalg"
	"statdb/internal/stats"
	"statdb/internal/workload"
)

func main() {
	// Raw data with injected measurement errors (the "age recorded as
	// 1,000" of Section 3.1: here salaries scaled 100x).
	raw := workload.Microdata(20000, 44)
	badRows, err := workload.InjectOutliers(raw, "SALARY", 0.002, 100, 45)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("raw data: %d rows, %d corrupted salaries hidden inside\n", raw.Rows(), len(badRows))

	dbms := core.New()
	if err := dbms.LoadRaw("survey", raw); err != nil {
		log.Fatal(err)
	}
	v, err := dbms.Analyst("checker").Materialize("survey").Build("clean")
	if err != nil {
		log.Fatal(err)
	}

	// Pass 1: a coarse range check.
	xs, valid, err := v.Column("SALARY")
	if err != nil {
		log.Fatal(err)
	}
	suspects := stats.RangeCheck(xs, valid, 0, 500000)
	fmt.Printf("range check [0, 500000]: %d suspicious values\n", len(suspects))

	// Pass 2: the mean ± k·sd test reusing cached summaries — the exact
	// reuse pattern Section 3.1 motivates.
	mean, err := v.Compute("mean", "SALARY")
	if err != nil {
		log.Fatal(err)
	}
	sd, err := v.Compute("sd", "SALARY")
	if err != nil {
		log.Fatal(err)
	}
	outliers := stats.OutsideKSigmaWith(xs, valid, mean, sd, 6)
	fmt.Printf("mean±6sd test (cached mean=%.0f, sd=%.0f): %d outliers\n", mean, sd, len(outliers))

	// Invalidate everything beyond the threshold.
	n, err := v.InvalidateWhere("SALARY",
		relalg.Cmp{Attr: "SALARY", Op: relalg.Gt, Val: dataset.Float(mean + 6*sd)})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("marked %d values missing\n", n)
	missing, _ := v.Dataset().MissingCount("SALARY")
	cleanMean, _ := v.Compute("mean", "SALARY")
	fmt.Printf("after cleaning: %d missing, mean=%.0f (was %.0f)\n", missing, cleanMean, mean)

	// Oops: an over-eager second cut.
	if _, err := v.InvalidateWhere("SALARY",
		relalg.Cmp{Attr: "SALARY", Op: relalg.Gt, Val: dataset.Float(mean)}); err != nil {
		log.Fatal(err)
	}
	m2, _ := v.Compute("count", "SALARY")
	fmt.Printf("over-cleaned: only %d values left — undoing\n", int(m2))
	if err := v.Undo(); err != nil {
		log.Fatal(err)
	}
	m3, _ := v.Compute("count", "SALARY")
	fmt.Printf("after undo: %d values\n", int(m3))

	// The audit trail other analysts would consult (Section 3.2: "rather
	// than repeating the mundane and time consuming data checking
	// operations they can examine what actions were taken").
	fmt.Println("\nupdate history:")
	for _, rec := range v.History().Records() {
		fmt.Printf("  #%d %s: %s (%d cells)\n", rec.Seq, rec.Analyst, rec.Description, len(rec.Rows))
	}

	// Verify the cleaning caught the injected corruption.
	si := v.Dataset().Schema().Index("SALARY")
	caught := 0
	for _, r := range badRows {
		if v.Dataset().Cell(r, si).IsNull() {
			caught++
		}
	}
	fmt.Printf("\ninjected corruptions caught: %d/%d\n", caught, len(badRows))
}
