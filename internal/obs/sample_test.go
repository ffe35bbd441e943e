package obs

import "testing"

func TestSamplerDeltasAndRing(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("q.count")
	g := r.Gauge("q.inflight")
	h := r.Histogram("q.ticks", []int64{10, 100})

	c.Add(5) // pre-baseline activity must not appear in any sample
	s := NewSampler(r.Snapshot, 2, 0)

	c.Add(2)
	g.Set(3)
	h.Observe(7)
	s.Tick(10)

	s.Tick(20) // quiet interval: gauge still reported, counter/hist omitted

	c.Add(1)
	g.Set(0)
	s.Tick(30)

	samples := s.Samples()
	if len(samples) != 2 {
		t.Fatalf("ring kept %d samples, want 2 (cap)", len(samples))
	}
	// Oldest retained is the quiet tick at 20.
	if samples[0].Tick != 20 || samples[0].Dur != 10 {
		t.Errorf("sample 0 = tick %d dur %d, want 20/10", samples[0].Tick, samples[0].Dur)
	}
	if len(samples[0].Counters) != 0 || len(samples[0].Hists) != 0 {
		t.Errorf("quiet sample carries deltas: %+v", samples[0])
	}
	if samples[0].Gauges["q.inflight"] != 3 {
		t.Errorf("gauge at tick 20 = %d, want 3", samples[0].Gauges["q.inflight"])
	}
	if samples[1].Counters["q.count"] != 1 {
		t.Errorf("counter delta at tick 30 = %d, want 1", samples[1].Counters["q.count"])
	}
	if _, ok := samples[1].Gauges["q.inflight"]; ok {
		t.Error("zero gauge reported")
	}
}

func TestSamplerHistQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []int64{10, 100})
	h.Observe(5) // baseline
	s := NewSampler(r.Snapshot, 8, 0)
	for i := 0; i < 10; i++ {
		h.Observe(50) // all in (10,100] this interval
	}
	s.Tick(1)
	sm := s.Samples()[0]
	hd, ok := sm.Hists["lat"]
	if !ok {
		t.Fatal("histogram delta missing")
	}
	if hd.Count != 10 || hd.Sum != 500 {
		t.Errorf("delta count=%d sum=%d, want 10/500", hd.Count, hd.Sum)
	}
	// All 10 interval observations sit in the 10..100 bucket, so the
	// interpolated median is 10 + 90*(5/10) = 55.
	if hd.P50 != 55 {
		t.Errorf("p50 = %g, want 55", hd.P50)
	}
	if hd.P99 != 10+90*9.9/10 {
		t.Errorf("p99 = %g, want %g", hd.P99, 10+90*9.9/10)
	}
}

func TestSamplerNilSafe(t *testing.T) {
	var s *Sampler
	s.Tick(5)
	if s.Samples() != nil {
		t.Error("nil sampler produced samples")
	}
}
