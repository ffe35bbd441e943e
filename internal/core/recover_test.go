package core

import (
	"sync"
	"testing"

	"statdb/internal/obs"
	"statdb/internal/storage"
	"statdb/internal/view"
)

// buildStoredView materializes a view on a fault-wrapped device.
func buildStoredView(t *testing.T, d *DBMS, name string, b view.Backing, cfg storage.FaultConfig) (*view.View, *storage.FaultDevice) {
	t.Helper()
	v, err := d.Analyst("boral").Materialize("census80").Build(name)
	if err != nil {
		t.Fatal(err)
	}
	fd := storage.NewFaultDevice(storage.NewMemDevice(storage.DefaultDiskCost()), cfg)
	if err := v.AttachStoreDevice(b, fd, 16); err != nil {
		t.Fatal(err)
	}
	return v, fd
}

func TestRecoverRebuildsCorruptStore(t *testing.T) {
	d := newDBMS(t)
	v, fd := buildStoredView(t, d, "rowed", view.BackingRow, storage.FaultConfig{})
	want, err := v.Compute("mean", "AVE_SALARY")
	if err != nil {
		t.Fatal(err)
	}

	// Flip one payload byte of a stored page without resealing: the
	// device-level write path does not recompute checksums (the pool
	// does, on flush), so the stale CRC now betrays the damage.
	buf := make([]byte, storage.PageSize)
	if err := fd.ReadPage(2, buf); err != nil {
		t.Fatal(err)
	}
	buf[storage.PageEnvelopeSize+50] ^= 0x10
	if err := fd.WritePage(2, buf); err != nil {
		t.Fatal(err)
	}

	rep, err := d.Recover()
	if err != nil {
		t.Fatal(err)
	}
	vr := rep.Views["rowed"]
	if vr.CorruptPages == 0 || !vr.Rebuilt {
		t.Fatalf("recover report %v, want corrupt page detected and store rebuilt", vr)
	}
	if rep.Rebuilt != 1 {
		t.Fatalf("aggregate report %v, want one rebuild", rep)
	}

	// After rebuild the store verifies clean and still answers identically.
	vrep, err := v.VerifyStore()
	if err != nil || vrep.CorruptPages != 0 {
		t.Fatalf("post-recovery verify = %v, %v; want clean", vrep, err)
	}
	v.Summary().Invalidate("AVE_SALARY")
	got, err := v.Compute("mean", "AVE_SALARY")
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("mean after recovery = %v, want %v", got, want)
	}
}

func TestRecoverNoDamageIsNoOp(t *testing.T) {
	d := newDBMS(t)
	_, _ = buildStoredView(t, d, "clean", view.BackingTransposed, storage.FaultConfig{})
	rep, err := d.Recover()
	if err != nil {
		t.Fatal(err)
	}
	vr := rep.Views["clean"]
	if vr.CorruptPages != 0 || vr.Rebuilt || vr.PagesChecked == 0 {
		t.Fatalf("report %v, want pages checked, none corrupt, no rebuild", vr)
	}
}

// TestFaultyStoreUnderParallelReads drives concurrent column reads and
// summary computations through a fault-injecting device with the engine
// parallel, then recovers — the -race target for the fault layer.
func TestFaultyStoreUnderParallelReads(t *testing.T) {
	d := newDBMS(t)
	d.SetParallelism(4)
	v, fd := buildStoredView(t, d, "faulty", view.BackingRow, storage.FaultConfig{
		Seed:              42,
		ReadTransientRate: 0.05,
	})

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			fns := []string{"mean", "min", "max", "sum"}
			for i := 0; i < 8; i++ {
				fn := fns[(g+i)%len(fns)]
				v.Summary().Invalidate("AVE_SALARY")
				if _, err := v.Compute(fn, "AVE_SALARY"); err != nil {
					t.Errorf("compute %s: %v", fn, err)
					return
				}
				if _, _, err := v.Column("AVE_SALARY"); err != nil {
					t.Errorf("column: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	if rec := v.StoreMetrics().Counter(obs.MStorageRetryRecovered).Value(); fd.Faults().ReadTransient > 0 && rec == 0 {
		t.Fatalf("faults injected (%v) but none recovered", fd.Faults())
	}

	// Recovery must work with injection still active for reads (verify
	// retries transients).
	if _, err := d.Recover(); err != nil {
		t.Fatal(err)
	}
}
