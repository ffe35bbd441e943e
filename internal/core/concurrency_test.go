package core

import (
	"fmt"
	"sync"
	"testing"

	"statdb/internal/dataset"
	"statdb/internal/obs"
	"statdb/internal/relalg"
	"statdb/internal/workload"
)

// TestConcurrentAnalysts drives several analyst sessions in parallel:
// each materializes its own private view, computes cached summaries,
// updates, and publishes. Views are private per analyst (so no shared
// Summary Database is written concurrently — the paper's model), while
// the Management Database is shared and must tolerate the concurrency.
// Run with -race.
func TestConcurrentAnalysts(t *testing.T) {
	d := New()
	census, err := workload.Census(workload.DefaultCensusSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.LoadRaw("census80", census); err != nil {
		t.Fatal(err)
	}
	// Materialize sequentially: the tape drive has one head (the
	// archive is deliberately not a concurrent device).
	const analysts = 8
	views := make([]string, analysts)
	for i := 0; i < analysts; i++ {
		name := fmt.Sprintf("analyst%d", i)
		vname := fmt.Sprintf("region%d", i+1)
		mb := d.Analyst(name).Materialize("census80")
		mb.Builder().Select(relalg.Cmp{Attr: "REGION", Op: relalg.Eq, Val: dataset.Int(int64(i + 1))})
		if _, err := mb.Build(vname); err != nil {
			t.Fatal(err)
		}
		views[i] = vname
	}

	var wg sync.WaitGroup
	errs := make(chan error, analysts)
	for i := 0; i < analysts; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a := d.Analyst(fmt.Sprintf("analyst%d", i))
			v, err := a.View(views[i])
			if err != nil {
				errs <- err
				return
			}
			for round := 0; round < 20; round++ {
				if _, err := v.Compute("mean", "AVE_SALARY"); err != nil {
					errs <- err
					return
				}
				if _, err := v.Compute("median", "POPULATION"); err != nil {
					errs <- err
					return
				}
				if _, err := v.UpdateWhere("AVE_SALARY",
					relalg.Cmp{Attr: "EDUCATION", Op: relalg.Eq, Val: dataset.Int(int64(round%6 + 1))},
					dataset.Int(int64(20000+round))); err != nil {
					errs <- err
					return
				}
			}
			if err := v.Undo(); err != nil {
				errs <- err
				return
			}
			if err := a.Publish(views[i]); err != nil {
				errs <- err
				return
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Every view ended published and every history has 19 records.
	for _, vn := range views {
		if def, ok := d.Management().View(vn); !ok || !def.Public {
			t.Errorf("view %s not published", vn)
		}
		h, err := d.Management().HistoryOf(vn)
		if err != nil {
			t.Fatal(err)
		}
		if h.Len() != 19 {
			t.Errorf("%s history len = %d, want 19", vn, h.Len())
		}
	}
}

// TestSharedViewConcurrentReadersAndWriter exercises the Section 3.2
// "group of users" scenario: one published view, several analysts
// computing cached summaries and reading rows while the owner applies
// updates. Run with -race. Readers may observe any interleaving of
// update states; the invariant is that every answer is internally
// consistent (no panic, no torn value, final summaries match the data).
func TestSharedViewConcurrentReadersAndWriter(t *testing.T) {
	d := New()
	if err := d.LoadRaw("people", workload.Microdata(2000, 5)); err != nil {
		t.Fatal(err)
	}
	owner := d.Analyst("owner")
	v, err := owner.Materialize("people").Build("shared")
	if err != nil {
		t.Fatal(err)
	}
	if err := owner.Publish("shared"); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for r := 0; r < 6; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			reader := d.Analyst(fmt.Sprintf("reader%d", r))
			sv, err := reader.View("shared")
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < 30; i++ {
				if _, err := sv.Compute("mean", "SALARY"); err != nil {
					errs <- err
					return
				}
				if _, err := sv.Compute("median", "AGE"); err != nil {
					errs <- err
					return
				}
				_ = sv.RowAt(i % sv.Rows())
				if _, err := sv.Describe("SALARY"); err != nil {
					errs <- err
					return
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			if _, err := v.UpdateWhere("SALARY",
				relalg.Cmp{Attr: "ID", Op: relalg.Eq, Val: dataset.Int(int64(i))},
				dataset.Float(float64(40000+i))); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Quiesced: the cached mean equals the batch mean.
	got, err := v.Compute("mean", "SALARY")
	if err != nil {
		t.Fatal(err)
	}
	xs, valid, _ := v.Dataset().NumericByName("SALARY")
	want := 0.0
	n := 0
	for i, x := range xs {
		if valid[i] {
			want += x
			n++
		}
	}
	want /= float64(n)
	if diff := got - want; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("final mean %g vs batch %g", got, want)
	}

	// The shared cache counted each event once, into the one registry the
	// system snapshot merges: Counters() and Metrics() are the same
	// numbers, and no lookup was lost between the goroutines.
	c := v.Summary().Counters()
	snap := d.Metrics().Counters
	for name, got := range map[string]int64{
		obs.MSummaryHits: c.Hits, obs.MSummaryMisses: c.Misses, obs.MSummaryStaleRefill: c.StaleRefill,
		obs.MSummaryIncremental: c.Incremental, obs.MSummarySlides: c.Slides, obs.MSummaryRebuilds: c.Rebuilds,
		obs.MSummaryRecomputes: c.Recomputes, obs.MSummaryPasses: c.Passes,
	} {
		if snap[name] != got {
			t.Errorf("%s: Counters() = %d, merged snapshot = %d", name, got, snap[name])
		}
	}
	const lookups = 6*30*(1+1+10) + 1 // per reader pass: mean, median, Describe's ten; then the final mean
	if got := c.Hits + c.Misses + c.StaleRefill; got != lookups {
		t.Errorf("hits+misses+stale refills = %d, want one per lookup = %d", got, lookups)
	}
}

// TestConcurrentViewRegistration hammers RegisterView from many
// goroutines: exactly one of each identical derivation must win.
func TestConcurrentViewRegistration(t *testing.T) {
	d := New()
	if err := d.LoadRaw("f", workload.Figure1()); err != nil {
		t.Fatal(err)
	}
	const n = 16
	var wg sync.WaitGroup
	results := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			mb := d.Analyst("same").Materialize("f")
			mb.Builder().Select(relalg.Cmp{Attr: "SEX", Op: relalg.Eq, Val: dataset.String("M")})
			_, err := mb.Build(fmt.Sprintf("v%d", i))
			results <- err
		}(i)
	}
	wg.Wait()
	close(results)
	ok, dup := 0, 0
	for err := range results {
		if err == nil {
			ok++
		} else {
			dup++
		}
	}
	if ok < 1 {
		t.Fatalf("no registration succeeded (ok=%d dup=%d)", ok, dup)
	}
	if ok+dup != n {
		t.Fatalf("ok=%d dup=%d", ok, dup)
	}
}
