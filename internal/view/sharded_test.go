package view

import (
	"fmt"
	"math"
	"testing"

	"statdb/internal/dataset"
	"statdb/internal/obs"
	"statdb/internal/relalg"
	"statdb/internal/rules"
	"statdb/internal/shard"
	"statdb/internal/summary"
)

// shardedView attaches a 4-shard copy of v's rows and returns the
// registry its scatters count in.
func shardedView(t *testing.T, v *View) *obs.Registry {
	t.Helper()
	reg := obs.NewRegistry()
	st, err := shard.New(v.Name(), v.Dataset(), shard.Config{Shards: 4, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	v.AttachShards(st)
	return reg
}

// TestShardedCopyBehindAfterUpdate: updates do not reach the shards, so
// the first one must withdraw the copy — every built-in then equals an
// unsharded twin that saw the same update, where the old ShardedScalar
// kept answering mean, count … from the pre-update shards.
func TestShardedCopyBehindAfterUpdate(t *testing.T) {
	v, twin := newView(t, 500, Options{}), newView(t, 500, Options{})
	reg := shardedView(t, v)
	if _, err := v.Compute("mean", "SALARY"); err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter(obs.MShardScatters).Value(); n != 1 {
		t.Fatalf("current copy scattered %d times for one miss", n)
	}
	pred := relalg.Cmp{Attr: "AGE", Op: relalg.Gt, Val: dataset.Int(60)}
	for _, w := range []*View{v, twin} {
		if n, err := w.UpdateWhere("SALARY", pred, dataset.Float(1e6)); err != nil || n == 0 {
			t.Fatalf("update: %d rows, %v", n, err)
		}
	}
	if _, behind := v.ShardStore(); !behind {
		t.Error("updated view's copy not marked behind")
	}
	for _, fn := range summary.Functions() {
		got, gerr := v.Compute(fn, "SALARY")
		want, werr := twin.Compute(fn, "SALARY")
		if gerr != nil || werr != nil || math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s after update: sharded view %v (%v), unsharded twin %v (%v)", fn, got, gerr, want, werr)
		}
	}
	if n := reg.Counter(obs.MShardScatters).Value(); n != 1 {
		t.Errorf("a copy that is behind still scattered: %d scatters", n)
	}
}

// TestShardedCopyBehindAfterEveryMutation: undo, rollback and a derived
// column each leave the shards describing rows the view no longer has.
func TestShardedCopyBehindAfterEveryMutation(t *testing.T) {
	pred := relalg.Cmp{Attr: "ID", Op: relalg.Eq, Val: dataset.Int(3)}
	mutations := map[string]func(v *View) error{
		"undo":     func(v *View) error { return v.Undo() },
		"rollback": func(v *View) error { return v.RollbackTo(0) },
		"derived": func(v *View) error {
			return v.AddDerived(dataset.Attribute{Name: "D", Kind: dataset.KindFloat, Summarizable: true},
				rules.DerivedRule{Inputs: []string{"SALARY"}, Scope: rules.ScopeLocal,
					Row: func(_ *dataset.Schema, row dataset.Row) dataset.Value { return row[1] }})
		},
	}
	for name, mutate := range mutations {
		v := newView(t, 200, Options{})
		if _, err := v.UpdateWhere("SALARY", pred, dataset.Float(1)); err != nil {
			t.Fatal(err)
		}
		shardedView(t, v) // built after the update: current
		if _, behind := v.ShardStore(); behind {
			t.Fatalf("%s: fresh copy already behind", name)
		}
		if err := mutate(v); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, behind := v.ShardStore(); !behind {
			t.Errorf("%s left the copy marked current", name)
		}
	}
}

// TestShardedComputeConcurrentWithUpdates: readers gather through the
// Summary Database while a writer updates (withdrawing the copy) and
// re-shards (restoring it); run under -race. Every answer must be the
// pre- or post-update value of a column whose count never changes.
func TestShardedComputeConcurrentWithUpdates(t *testing.T) {
	v := newView(t, 400, Options{})
	shardedView(t, v)
	done := make(chan struct{})
	errs := make(chan error, 4)
	for r := 0; r < 4; r++ {
		fn := summary.Functions()[r]
		go func() {
			for {
				select {
				case <-done:
					errs <- nil
					return
				default:
				}
				if _, rep, err := v.ComputeReport(fn, "AGE"); err != nil || rep.Degraded() {
					errs <- fmt.Errorf("%s: report %v, err %v", fn, rep, err)
					return
				}
				if n, err := v.Compute("count", "SALARY"); err != nil || n != 400 {
					errs <- fmt.Errorf("count(SALARY) = %v, %v", n, err)
					return
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		pred := relalg.Cmp{Attr: "ID", Op: relalg.Eq, Val: dataset.Int(int64(i))}
		if _, err := v.UpdateWhere("SALARY", pred, dataset.Float(float64(i))); err != nil {
			t.Fatal(err)
		}
		shardedView(t, v)
	}
	close(done)
	for r := 0; r < 4; r++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}
