package view

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"statdb/internal/dataset"
	"statdb/internal/obs"
	"statdb/internal/relalg"
	"statdb/internal/rules"
	"statdb/internal/storage"
	"statdb/internal/summary"
)

// faultPair is the update fixture twice: v on a transposed store behind a
// four-frame pool, over a device whose reads, once armed, fail every
// retry, and twin on a clean device, given the same statements.
type faultPair struct {
	v, twin *View
	fd      *storage.FaultDevice
}

func newFaultPair(t *testing.T) faultPair {
	t.Helper()
	p := faultPair{v: updateFixture(t, 3000), twin: updateFixture(t, 3000)}
	p.fd = storage.NewFaultDevice(storage.NewMemDevice(storage.DefaultDiskCost()),
		storage.FaultConfig{Seed: 1, ReadTransientRate: 1})
	p.fd.SetDisabled(true)
	if err := p.v.AttachStoreDevice(BackingTransposed, p.fd, 4); err != nil {
		t.Fatal(err)
	}
	attach(t, p.twin, BackingTransposed)
	return p
}

// arm fills the pool with another column's pages, so that the next read
// of any other column goes to the device, and then makes every device
// read fail.
func (p faultPair) arm(t *testing.T) {
	t.Helper()
	if _, _, err := p.v.Column("ID"); err != nil {
		t.Fatal(err)
	}
	p.fd.SetDisabled(false)
}

// update runs one statement on both views; neither may fail.
func (p faultPair) update(t *testing.T, attr string, pred relalg.Predicate, val dataset.Value) {
	t.Helper()
	for _, v := range []*View{p.v, p.twin} {
		if _, err := v.UpdateWhere(attr, pred, val); err != nil {
			t.Fatal(err)
		}
	}
}

// failed checks that err is the armed device's: a transient read error
// naming the view, the attribute and the attempts the pool made.
func failed(t *testing.T, step string, attr string, err error) {
	t.Helper()
	if !errors.Is(err, storage.ErrTransient) || !strings.Contains(err.Error(), "view upd") ||
		!strings.Contains(err.Error(), "read "+attr) || !strings.Contains(err.Error(), "(gave up after 4 attempts)") {
		t.Errorf("%s: err %v, want a transient read error naming view upd, %s and 4 attempts", step, err, attr)
	}
}

// agree heals the device and checks that every built-in over attr
// answers on v what it answers on the twin, under the doctrine.
func (p faultPair) agree(t *testing.T, step, attr string) {
	t.Helper()
	p.fd.SetDisabled(true)
	xs, valid, err := p.twin.Dataset().NumericByName(attr)
	if err != nil {
		t.Fatal(err)
	}
	s := shape{name: attr, xs: xs, valid: valid}
	for _, fn := range summary.Functions() {
		got, gerr := p.v.Compute(fn, attr)
		want, werr := p.twin.Compute(fn, attr)
		s.check(t, step, fn, answer{got, gerr}, answer{want, werr}, incrRel)
	}
}

// TestReadFaultFailsTheAnswer: a column read that fails past its retries
// fails the answer and leaves nothing in the cache — for every built-in,
// over a Plain column (the row source) and an RLE column (the run
// source), in a fill and in a stale refill — and once the device heals,
// every answer equals a fault-free twin's.
func TestReadFaultFailsTheAnswer(t *testing.T) {
	for _, attr := range []string{"P", "R"} {
		for _, fn := range summary.Functions() {
			p := newFaultPair(t)
			for _, step := range []string{"fill", "stale refill"} {
				if step == "stale refill" {
					p.v.Summary().Invalidate(attr)
				}
				cache := p.v.Summary().Dump()
				p.arm(t)
				_, err := p.v.Compute(fn, attr)
				failed(t, attr+"/"+fn+"/"+step, attr, err)
				if got := p.v.Summary().Dump(); !reflect.DeepEqual(got, cache) {
					t.Errorf("%s/%s/%s: the failed read changed the cache:\n got %v\nwant %v", attr, fn, step, got, cache)
				}
				p.agree(t, fn+" "+step, attr)
			}
			runs := p.v.Summary().Metrics().Counter(obs.MExecRunStrategyHits).Value()
			if (attr == "R") != (runs > 0) {
				t.Errorf("%s/%s: %d fills by runs", attr, fn, runs)
			}
		}
	}
}

// TestReadFaultFailsTheMaintenance: a read an update needs that fails
// leaves the entries it served stale, never answering from what the read
// did not produce — a kept-state refold (the last copy of the max goes
// while max is cached) drops the state, and a window rebuild (the median
// runs off its window) leaves its entry stale. The next fill, while the
// device still fails, returns the error; once it heals, every answer
// equals the twin's.
func TestReadFaultFailsTheMaintenance(t *testing.T) {
	last := relalg.Cmp{Attr: "ID", Op: relalg.Eq, Val: dataset.Int(2999)}
	for name, c := range map[string]struct {
		cached []string
		setup  func(p faultPair)
		pred   relalg.Predicate
		val    dataset.Value
	}{
		"refold": {
			cached: []string{"count", "sum", "variance", "max"},
			setup:  func(p faultPair) { p.update(t, "P", last, dataset.Float(1e6)) },
			pred:   last, val: dataset.Float(0),
		},
		"window rebuild": {
			cached: []string{"median"},
			setup:  func(faultPair) {},
			pred:   relalg.Cmp{Attr: "ID", Op: relalg.Ge, Val: dataset.Int(2700)}, val: dataset.Float(5000),
		},
	} {
		p := newFaultPair(t)
		c.setup(p)
		for _, v := range []*View{p.v, p.twin} {
			for _, fn := range c.cached {
				if _, err := v.Compute(fn, "P"); err != nil {
					t.Fatal(err)
				}
			}
		}
		// The last pages of P are in the pool: the write-through hits them,
		// and the update's read of the whole column goes to the device.
		if _, _, err := p.v.Column("P"); err != nil {
			t.Fatal(err)
		}
		p.fd.SetDisabled(false)
		before := p.v.Summary().Counters().Rebuilds
		p.update(t, "P", c.pred, c.val)
		if r := p.v.Summary().Counters().Rebuilds; r != before {
			t.Errorf("%s: %d rebuilds counted over a failing device", name, r-before)
		}
		for _, fn := range c.cached {
			if r, fresh := p.v.Summary().Lookup(fn, "P"); fresh {
				t.Errorf("%s: %s fresh at %v after its maintenance read failed", name, fn, r.Scalar)
			}
		}
		_, err := p.v.Compute(c.cached[0], "P")
		failed(t, name+" refill", "P", err)
		p.agree(t, name, "P")
	}
}

// TestStaleRefillReadsTheViewsStore: an entry's refill reads the store
// the view has at the call. The frequency rows of an RLE column fill by
// runs off a transposed store; the view is then re-stored as a row file,
// which the update detaches, so the refill of mode and unique must read
// the record, not the transposed store the fills read.
func TestStaleRefillReadsTheViewsStore(t *testing.T) {
	v := newRunsView(t, 4000)
	attach(t, v, BackingTransposed)
	for _, fn := range []string{"mode", "unique", "median", "q1", "q3", "sum"} {
		if _, err := v.Compute(fn, "GRADE"); err != nil {
			t.Fatal(err)
		}
	}
	attach(t, v, BackingRow)
	if _, err := v.UpdateWhere("GRADE", relalg.Cmp{Attr: "GRADE", Op: relalg.Lt, Val: dataset.Int(500)}, dataset.Int(7777)); err != nil {
		t.Fatal(err)
	}
	xs, valid, err := v.Dataset().NumericByName("GRADE")
	if err != nil {
		t.Fatal(err)
	}
	for _, fn := range []string{"mode", "unique"} {
		got, err := v.Compute(fn, "GRADE")
		if err != nil {
			t.Fatal(err)
		}
		want, err := summary.NewDB(rules.NewManagementDB()).Scalar(fn, "GRADE", func() ([]float64, []bool) { return xs, valid })
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s = %v after the update, the record says %v", fn, got, want)
		}
	}
}

// TestFailedWriteBehindDetachesStore: a derived write-behind that fails
// leaves the store behind the record, so the store is detached and the
// record answers. SALARY's pages are in the pool, so its write-through
// succeeds; the derived column D = 2·SALARY must then be read from the
// device, which fails.
func TestFailedWriteBehindDetachesStore(t *testing.T) {
	v := newView(t, 3000, Options{})
	si := v.Dataset().Schema().Index("SALARY")
	if err := v.AddDerived(dataset.Attribute{Name: "D", Kind: dataset.KindFloat, Summarizable: true}, rules.DerivedRule{
		Inputs: []string{"SALARY"},
		Scope:  rules.ScopeLocal,
		Row: func(_ *dataset.Schema, row dataset.Row) dataset.Value {
			if row[si].IsNull() {
				return dataset.Null
			}
			return dataset.Float(2 * row[si].AsFloat())
		},
	}); err != nil {
		t.Fatal(err)
	}
	fd := storage.NewFaultDevice(storage.NewMemDevice(storage.DefaultDiskCost()),
		storage.FaultConfig{Seed: 1, ReadTransientRate: 1})
	fd.SetDisabled(true)
	if err := v.AttachStoreDevice(BackingTransposed, fd, 8); err != nil {
		t.Fatal(err)
	}
	if _, _, err := v.Column("SALARY"); err != nil {
		t.Fatal(err)
	}
	fd.SetDisabled(false)
	if n, err := v.UpdateWhere("SALARY", relalg.All{}, dataset.Float(1)); err != nil || n != 3000 {
		t.Fatalf("update changed %d rows: %v", n, err)
	}
	fd.SetDisabled(true)
	if b := v.StoreBacking(); b != BackingMemory {
		t.Errorf("a store the write-behind failed on is still attached (%v)", b)
	}
	if got, err := v.Compute("sum", "D"); err != nil || got != 6000 {
		t.Errorf("sum D = %v (%v), the record says 6000", got, err)
	}
	attach(t, v, BackingTransposed)
	storeMatchesData(t, v, "re-attached after the failed write-behind")
}
