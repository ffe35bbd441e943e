package obs

import "sync"

// HistDelta summarizes what one histogram did during one sample
// interval: how many observations landed, their sum, and the
// interpolated quantiles of the interval's own bucket deltas (not the
// cumulative distribution — a Sampler answers "what were recent pass
// ticks like", not "what were they since boot").
type HistDelta struct {
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	// Bounds/Counts carry the interval's own bucket deltas so windowed
	// consumers (the SLO layer) can re-aggregate quantiles across many
	// samples instead of averaging per-sample percentiles (which is
	// statistically wrong). Excluded from JSON: /statz payloads keep
	// their shape.
	Bounds []int64 `json:"-"`
	Counts []int64 `json:"-"`
}

// Sample is one interval's worth of registry movement. Counters and
// histograms are deltas against the previous sample; gauges are the
// value at the sample instant. Quiet instruments (zero delta, zero
// gauge) are omitted so samples stay small and renderings stay legible.
type Sample struct {
	Tick     int64                `json:"tick"` // sample instant, in the sampler's time unit
	Dur      int64                `json:"dur"`  // interval length (ticks since previous sample)
	Counters map[string]int64     `json:"counters,omitempty"`
	Gauges   map[string]int64     `json:"gauges,omitempty"`
	Hists    map[string]HistDelta `json:"hists,omitempty"`
}

// Sampler turns a snapshot function into a bounded time series: each
// Tick diffs the current snapshot against the previous one and appends
// a Sample to a fixed-size ring. Time is whatever int64 the caller
// passes — cost-model ticks in tests (deterministic, golden-testable),
// wall-clock units in `statdb serve`. The baseline snapshot is taken at
// construction, so the first Tick reports activity since NewSampler,
// not since process start.
//
// A nil Sampler no-ops, like every other obs handle.
type Sampler struct {
	mu      sync.Mutex
	snap    func() Snapshot
	cap     int
	last    Snapshot
	lastT   int64
	samples []Sample
}

// NewSampler builds a sampler over snap keeping the n most recent
// samples (minimum 1). The baseline snapshot is taken now, at tick
// `now`.
func NewSampler(snap func() Snapshot, n int, now int64) *Sampler {
	if n < 1 {
		n = 1
	}
	return &Sampler{snap: snap, cap: n, last: snap(), lastT: now}
}

// Tick takes a sample at instant now, recording deltas since the
// previous Tick (or since construction). Out-of-order or duplicate
// instants are tolerated: Dur is clamped at zero.
func (s *Sampler) Tick(now int64) {
	if s == nil {
		return
	}
	cur := s.snap()
	s.mu.Lock()
	defer s.mu.Unlock()
	dur := now - s.lastT
	if dur < 0 {
		dur = 0
	}
	sm := Sample{Tick: now, Dur: dur}
	for name, v := range cur.Counters {
		if d := v - s.last.Counters[name]; d != 0 {
			if sm.Counters == nil {
				sm.Counters = make(map[string]int64)
			}
			sm.Counters[name] = d
		}
	}
	for name, v := range cur.Gauges {
		if v != 0 {
			if sm.Gauges == nil {
				sm.Gauges = make(map[string]int64)
			}
			sm.Gauges[name] = v
		}
	}
	for name, hv := range cur.Histograms {
		prev := s.last.Histograms[name]
		dc := hv.Count - prev.Count
		if dc == 0 {
			continue
		}
		d := HistValue{Bounds: hv.Bounds, Count: dc, Sum: hv.Sum - prev.Sum}
		if len(prev.Counts) == len(hv.Counts) {
			d.Counts = make([]int64, len(hv.Counts))
			for i := range hv.Counts {
				d.Counts[i] = hv.Counts[i] - prev.Counts[i]
			}
		} else {
			d.Counts = append([]int64(nil), hv.Counts...)
		}
		hd := HistDelta{Count: dc, Sum: d.Sum, Bounds: d.Bounds, Counts: d.Counts}
		hd.P50, _ = d.Quantile(0.50)
		hd.P90, _ = d.Quantile(0.90)
		hd.P99, _ = d.Quantile(0.99)
		if sm.Hists == nil {
			sm.Hists = make(map[string]HistDelta)
		}
		sm.Hists[name] = hd
	}
	s.samples = append(s.samples, sm)
	// Amortized trim: let the slice grow to twice the window, then slide
	// the live tail down in place — O(1) per tick instead of a fresh
	// O(cap) copy on every tick once the ring fills.
	if len(s.samples) >= 2*s.cap {
		n := copy(s.samples, s.samples[len(s.samples)-s.cap:])
		s.samples = s.samples[:n]
	}
	s.last = cur
	s.lastT = now
}

// window returns the retained samples (at most cap, newest last). The
// caller holds s.mu.
func (s *Sampler) window() []Sample {
	if len(s.samples) > s.cap {
		return s.samples[len(s.samples)-s.cap:]
	}
	return s.samples
}

// Samples returns the retained samples, oldest first.
func (s *Sampler) Samples() []Sample {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Sample(nil), s.window()...)
}
