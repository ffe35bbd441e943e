package core

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"statdb/internal/obs"
)

func TestGateNilAdmitsEverything(t *testing.T) {
	var g *Gate
	release, err := g.Acquire(nil)
	if err != nil {
		t.Fatalf("nil gate refused: %v", err)
	}
	release()
	release() // extra calls no-op
}

func TestGateSerializesAndCounts(t *testing.T) {
	reg := obs.NewRegistry()
	g := NewGate(GateConfig{Slots: 1, Queue: 8, Reg: reg})

	r1, err := g.Acquire(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Second statement must queue behind the held slot.
	acquired := make(chan func(), 1)
	go func() {
		r2, err := g.Acquire(nil)
		if err != nil {
			t.Error(err)
		}
		acquired <- r2
	}()
	select {
	case <-acquired:
		t.Fatal("second statement admitted while the slot was held")
	default:
	}
	r1()
	r2 := <-acquired
	r2()

	snap := reg.Snapshot()
	if got := snap.Counters[obs.MGateAdmitted]; got != 2 {
		t.Errorf("admitted = %d, want 2", got)
	}
	if got := snap.Counters[obs.MGateShed]; got != 0 {
		t.Errorf("shed = %d, want 0", got)
	}
	if got := snap.Gauges[obs.MGateQueue]; got != 0 {
		t.Errorf("queue gauge = %d, want 0 after drain", got)
	}
	if got := snap.Gauges[obs.MGateInflight]; got != 0 {
		t.Errorf("inflight gauge = %d, want 0 after drain", got)
	}
	// Every admission observes its wait, so the histogram denominator
	// matches the admitted counter.
	if hv := snap.Histograms[obs.MGateWaitTicks]; hv.Count != 2 {
		t.Errorf("wait_ticks count = %d, want 2", hv.Count)
	}
}

func TestGateShedsOnQueueOverflow(t *testing.T) {
	reg := obs.NewRegistry()
	g := NewGate(GateConfig{Slots: 1, Queue: 0, Reg: reg})
	r1, err := g.Acquire(nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = g.Acquire(nil)
	if !errors.Is(err, ErrShed) {
		t.Fatalf("overflow err = %v, want ErrShed", err)
	}
	var shed *ShedError
	if !errors.As(err, &shed) || shed.Reason != "queue full" {
		t.Fatalf("overflow err = %#v, want queue-full ShedError", err)
	}
	r1()
	// Slot free again: admission resumes.
	r2, err := g.Acquire(nil)
	if err != nil {
		t.Fatal(err)
	}
	r2()
	if got := reg.Snapshot().Counters[obs.MGateShed]; got != 1 {
		t.Errorf("shed = %d, want 1", got)
	}
}

func TestGateShedsSpentSession(t *testing.T) {
	reg := obs.NewRegistry()
	g := NewGate(GateConfig{Slots: 2, Queue: 4, Reg: reg})
	b := obs.NewBudget(10, 0)
	b.ChargeTicks(11) // latch the breach
	_, err := g.Acquire(b)
	if !errors.Is(err, ErrShed) {
		t.Fatalf("spent session err = %v, want ErrShed", err)
	}
	var berr *obs.BudgetError
	if !errors.As(err, &berr) || berr.Resource != "ticks" {
		t.Fatalf("spent session err = %v, want wrapped BudgetError", err)
	}
	// A healthy budget passes and is charged for queue waiting only —
	// a fast-path admit charges zero.
	ok := obs.NewBudget(10, 0)
	release, err := g.Acquire(ok)
	if err != nil {
		t.Fatal(err)
	}
	release()
	if ticks, _ := ok.Used(); ticks != 0 {
		t.Errorf("fast-path admit charged %d ticks, want 0", ticks)
	}
}

func TestGateWaitChargesTicks(t *testing.T) {
	// A deterministic virtual clock that jumps 100 ticks per read: the
	// queued statement reads it twice, so its measured wait is 100.
	var clock atomic.Int64
	reg := obs.NewRegistry()
	g := NewGate(GateConfig{
		Slots: 1, Queue: 1, Reg: reg,
		Ticks: func() int64 { return clock.Add(100) },
	})
	r1, err := g.Acquire(nil)
	if err != nil {
		t.Fatal(err)
	}
	b := obs.NewBudget(0, 0)
	done := make(chan struct{})
	go func() {
		defer close(done)
		r2, err := g.Acquire(b)
		if err != nil {
			t.Error(err)
			return
		}
		r2()
	}()
	// Wait for the second statement to park, then free the slot.
	for reg.Snapshot().Gauges[obs.MGateQueue] == 0 {
		runtime.Gosched()
	}
	r1()
	<-done
	if ticks, _ := b.Used(); ticks != 100 {
		t.Errorf("queued session charged %d ticks, want 100", ticks)
	}
	hv := reg.Snapshot().Histograms[obs.MGateWaitTicks]
	if hv.Sum != 100 {
		t.Errorf("wait_ticks sum = %d, want 100", hv.Sum)
	}
}

// TestGateConcurrentHammer admits many goroutines through a small gate
// under -race and checks conservation: every statement is either
// admitted or shed, gauges drain to zero, and the wait histogram's
// denominator equals the admitted count.
func TestGateConcurrentHammer(t *testing.T) {
	reg := obs.NewRegistry()
	g := NewGate(GateConfig{Slots: 2, Queue: 4, Reg: reg})
	const n = 64
	var wg sync.WaitGroup
	var admitted, shed atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			release, err := g.Acquire(nil)
			if err != nil {
				if !errors.Is(err, ErrShed) {
					t.Errorf("unexpected err: %v", err)
				}
				shed.Add(1)
				return
			}
			admitted.Add(1)
			release()
		}()
	}
	wg.Wait()
	snap := reg.Snapshot()
	if admitted.Load()+shed.Load() != n {
		t.Errorf("admitted %d + shed %d != %d", admitted.Load(), shed.Load(), n)
	}
	if got := snap.Counters[obs.MGateAdmitted]; got != admitted.Load() {
		t.Errorf("admitted counter = %d, callers saw %d", got, admitted.Load())
	}
	if got := snap.Counters[obs.MGateShed]; got != shed.Load() {
		t.Errorf("shed counter = %d, callers saw %d", got, shed.Load())
	}
	if snap.Gauges[obs.MGateQueue] != 0 || snap.Gauges[obs.MGateInflight] != 0 {
		t.Errorf("gauges did not drain: queue=%d inflight=%d",
			snap.Gauges[obs.MGateQueue], snap.Gauges[obs.MGateInflight])
	}
	if hv := snap.Histograms[obs.MGateWaitTicks]; hv.Count != admitted.Load() {
		t.Errorf("wait_ticks count = %d, want %d", hv.Count, admitted.Load())
	}
}
