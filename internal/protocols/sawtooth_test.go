package protocols_test

import (
	. "lowsensing/internal/protocols"

	"testing"

	"lowsensing/channel"
	"lowsensing/internal/core"
	"lowsensing/prng"
)

func TestSawtoothSchedulesForward(t *testing.T) {
	f := NewSawtoothFactory()
	st := f(0, nil)
	rng := prng.New(1)
	from := int64(0)
	for i := 0; i < 10000; i++ {
		slot, send := st.ScheduleNext(from, rng)
		if !send {
			t.Fatal("sawtooth scheduled a non-send access")
		}
		if slot < from {
			t.Fatalf("scheduled into the past: %d < %d", slot, from)
		}
		from = slot + 1
	}
}

func TestSawtoothIgnoresFeedback(t *testing.T) {
	s := NewSawtoothFactory()(0, nil).(*Sawtooth)
	before := *s
	s.Observe(channel.Observation{Outcome: channel.OutcomeNoisy, Sent: true})
	s.Observe(channel.Observation{Outcome: channel.OutcomeEmpty})
	if *s != before {
		t.Fatal("oblivious protocol changed state on feedback")
	}
}

func TestSawtoothBatchConstantThroughput(t *testing.T) {
	// The SPAA 2005 guarantee: batches finish in O(n) slots.
	for _, n := range []int64{64, 256, 1024} {
		r, _ := runBatch(t, NewSawtoothFactory(), n, 1<<22, 5)
		if r.Completed != n {
			t.Fatalf("n=%d: completed %d", n, r.Completed)
		}
		if tput := r.Throughput(); tput < 0.05 {
			t.Fatalf("n=%d: sawtooth batch throughput %v collapsed", n, tput)
		}
	}
}

func TestSawtoothNeverListens(t *testing.T) {
	_, packets := runBatch(t, NewSawtoothFactory(), 128, 1<<22, 9)
	for i, p := range packets {
		if p.Listens != 0 {
			t.Fatalf("packet %d listened %d times", i, p.Listens)
		}
	}
}

func TestNoCDValidation(t *testing.T) {
	if _, err := NewNoCDFactory(nil, CDAsEmpty); err == nil {
		t.Fatal("nil inner accepted")
	}
	if _, err := NewNoCDFactory(core.MustFactory(core.Default()), CDMode(9)); err == nil {
		t.Fatal("bad mode accepted")
	}
}

// probeStation records the outcomes it was shown.
type probeStation struct{ seen []channel.Outcome }

func (p *probeStation) ScheduleNext(from int64, _ *prng.Source) (int64, bool) { return from, false }
func (p *probeStation) Observe(o channel.Observation)                         { p.seen = append(p.seen, o.Outcome) }

func TestNoCDDegradesOnlyListens(t *testing.T) {
	for _, mode := range []CDMode{CDAsEmpty, CDAsNoisy} {
		inner := &probeStation{}
		f, err := NewNoCDFactory(func(int64, *prng.Source) channel.Station { return inner }, mode)
		if err != nil {
			t.Fatal(err)
		}
		st := f(0, nil)

		// Pure listens: empty and noisy both conflate to the mode's value.
		st.Observe(channel.Observation{Outcome: channel.OutcomeEmpty})
		st.Observe(channel.Observation{Outcome: channel.OutcomeNoisy})
		// Foreign success passes through.
		st.Observe(channel.Observation{Outcome: channel.OutcomeSuccess})
		// Own failed send is unambiguous noise.
		st.Observe(channel.Observation{Outcome: channel.OutcomeNoisy, Sent: true})

		want := channel.OutcomeEmpty
		if mode == CDAsNoisy {
			want = channel.OutcomeNoisy
		}
		expect := []channel.Outcome{want, want, channel.OutcomeSuccess, channel.OutcomeNoisy}
		if len(inner.seen) != len(expect) {
			t.Fatalf("mode %d: seen %v", mode, inner.seen)
		}
		for i := range expect {
			if inner.seen[i] != expect[i] {
				t.Fatalf("mode %d obs %d: got %v, want %v", mode, i, inner.seen[i], expect[i])
			}
		}
	}
}

func TestNoCDWindowPassthrough(t *testing.T) {
	f, err := NewNoCDFactory(core.MustFactory(core.Default()), CDAsNoisy)
	if err != nil {
		t.Fatal(err)
	}
	st := f(0, prng.New(1))
	w, ok := st.(channel.Windowed)
	if !ok || w.Window() != core.Default().WMin {
		t.Fatalf("window passthrough broken")
	}
}

func TestNoCDDegradationHurtsLSB(t *testing.T) {
	// The reproduction's point: LSB needs ternary feedback. Under the
	// noisy conflation windows only grow, so some packets stall; under
	// the empty conflation windows can't grow, so contention stays high.
	// Either way the run must look much worse than the ternary baseline.
	base, _ := runBatch(t, core.MustFactory(core.Default()), 128, 1<<18, 11)
	if base.Completed != 128 {
		t.Fatalf("ternary baseline incomplete: %d", base.Completed)
	}
	for _, mode := range []CDMode{CDAsEmpty, CDAsNoisy} {
		f, err := NewNoCDFactory(core.MustFactory(core.Default()), mode)
		if err != nil {
			t.Fatal(err)
		}
		r, _ := runBatch(t, f, 128, 1<<18, 11)
		degraded := r.Completed < 128 || r.ActiveSlots > 3*base.ActiveSlots
		if !degraded {
			t.Fatalf("mode %d: no degradation (completed %d, slots %d vs base %d)",
				mode, r.Completed, r.ActiveSlots, base.ActiveSlots)
		}
	}
}
