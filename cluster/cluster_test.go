package cluster

import (
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"lowsensing/channel"
	"lowsensing/internal/arrivals"
	"lowsensing/internal/churn"
	"lowsensing/internal/core"
	"lowsensing/internal/faults"
	"lowsensing/internal/jamming"
	"lowsensing/internal/sim"
	"lowsensing/obs"
	"lowsensing/prng"
)

// testConfig builds a 16-channel config over the real LSB station factory:
// Poisson arrivals and light random jamming.
func testConfig(t *testing.T, router Router) Config {
	t.Helper()
	factory, err := core.NewFactory(core.Default())
	if err != nil {
		t.Fatal(err)
	}
	src, err := arrivals.NewPoisson(0.3, 800, 21)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Channels:   16,
		Seed:       21,
		Arrivals:   src,
		Router:     router,
		NewStation: factory,
		NewJammer: func(ch int, seed uint64) (channel.Jammer, error) {
			return jamming.NewRandom(0.05, 100, seed)
		},
	}
}

// builtinRouters constructs each built-in router fresh, by kind.
var builtinRouters = map[string]func() Router{
	"random":       func() Router { return NewRandom(21) },
	"roundrobin":   func() Router { return NewRoundRobin() },
	"leastbacklog": func() Router { return NewLeastBacklog() },
	"sticky":       func() Router { return NewSticky(21, 16) },
}

// churnConfig layers population churn (Poisson joins with geometric
// patience, merged into the global arrival stream) and flaky station
// faults on top of testConfig. Churn is single-use, so the helper builds
// everything fresh per call.
func churnConfig(t *testing.T, router Router) Config {
	t.Helper()
	cfg := testConfig(t, router)
	c, err := churn.NewPoissonJoinLeave(0.1, 200, 0.02, 21)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Arrivals = arrivals.NewMerge(cfg.Arrivals, c.Joins())
	cfg.Lifetime = c.LeaveSlot
	fm, err := faults.NewFlaky(0.1, 0.05, 0.02, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = fm
	return cfg
}

// TestEpochShardedChurnFaultsIdentical: for every built-in router, a
// churned, faulty run is a pure function of its config — two runs agree
// exactly — and it is not vacuous: packets abandon, stations crash and
// mis-sense, and every arrival is delivered, abandoned, or still pending.
func TestEpochShardedChurnFaultsIdentical(t *testing.T) {
	for name, mk := range builtinRouters {
		t.Run(name, func(t *testing.T) {
			ref, err := Run(churnConfig(t, mk()))
			if err != nil {
				t.Fatal(err)
			}
			again, err := Run(churnConfig(t, mk()))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(again, ref) {
				t.Fatalf("rerun differs under churn/faults:\nfirst  %+v\nsecond %+v", ref, again)
			}
			tot := ref
			if tot.Abandoned == 0 {
				t.Fatal("churn abandoned nothing; the check is vacuous")
			}
			if tot.Faults.Corrupted == 0 || tot.Faults.Crashes == 0 {
				t.Fatalf("fault injection vacuous: %+v", tot.Faults)
			}
			if tot.Completed+tot.Abandoned+tot.Energy.Undelivered != tot.Arrived {
				t.Fatalf("cluster conservation broken: %d + %d + %d != %d",
					tot.Completed, tot.Abandoned, tot.Energy.Undelivered, tot.Arrived)
			}
		})
	}
}

// TestEpochShardedIdentical: for every built-in router, two runs of one
// config produce the same Result.
func TestEpochShardedIdentical(t *testing.T) {
	for name, mk := range builtinRouters {
		t.Run(name, func(t *testing.T) {
			ref, err := Run(testConfig(t, mk()))
			if err != nil {
				t.Fatal(err)
			}
			if ref.Arrived != 800 {
				t.Fatalf("arrived %d, want 800", ref.Arrived)
			}
			again, err := Run(testConfig(t, mk()))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(again, ref) {
				t.Fatalf("rerun differs:\nfirst  %+v\nsecond %+v", ref, again)
			}
		})
	}
}

// goroutineProbe is a recorder that samples runtime.NumGoroutine on every
// event and counts the samples above max.
type goroutineProbe struct {
	max            int
	events, extras atomic.Int64
}

func (g *goroutineProbe) sample() {
	g.events.Add(1)
	if runtime.NumGoroutine() > g.max {
		g.extras.Add(1)
	}
}

func (g *goroutineProbe) RecordSlot(obs.SlotEvent)     { g.sample() }
func (g *goroutineProbe) RecordPacket(obs.PacketEvent) { g.sample() }

// TestEpochStartsNoGoroutines: Run steps every channel on the calling
// goroutine for every router, so throughout a run the goroutine count
// never rises above its value before Run. (It may fall: a goroutine of an
// earlier test can still be exiting.)
func TestEpochStartsNoGoroutines(t *testing.T) {
	for name, mk := range builtinRouters {
		t.Run(name, func(t *testing.T) {
			cfg := testConfig(t, mk())
			probe := &goroutineProbe{}
			cfg.Recorder = probe
			probe.max = runtime.NumGoroutine()
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
			if probe.events.Load() == 0 {
				t.Fatal("the recorder saw no events; the probe is vacuous")
			}
			if n := probe.extras.Load(); n != 0 {
				t.Fatalf("%d of %d events saw more than the %d goroutines alive before Run", n, probe.events.Load(), probe.max)
			}
		})
	}
}

// channelCounter counts packet and slot events per channel, and flushes.
type channelCounter struct {
	packets, slots [16]int64
	flushes        int
}

func (c *channelCounter) RecordSlot(ev obs.SlotEvent)    { c.slots[ev.Channel]++ }
func (c *channelCounter) RecordPacket(p obs.PacketEvent) { c.packets[p.Channel]++ }
func (c *channelCounter) Flush() error                   { c.flushes++; return nil }

// TestRecorderSeesChannelLabels: the cluster's one recorder sees every
// channel's events labeled with that channel — per channel, one packet
// event for each packet the channel's Result counts — and Run leaves the
// flush to the caller. Observing changes nothing. An obs.ByChannel with
// fewer recorders than channels panics on the first event of a channel it
// lacks, and Run returns that panic as its error.
func TestRecorderSeesChannelLabels(t *testing.T) {
	want, err := Run(testConfig(t, NewRoundRobin()))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t, NewRoundRobin())
	rec := &channelCounter{}
	cfg.Recorder = rec
	got, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("observed run differs from the unobserved one")
	}
	for ch := range got.PerChannel {
		if rec.packets[ch] != got.PerChannel[ch].Arrived || rec.slots[ch] == 0 {
			t.Fatalf("channel %d: recorder saw %d packets and %d slots, channel arrived %d",
				ch, rec.packets[ch], rec.slots[ch], got.PerChannel[ch].Arrived)
		}
	}
	if rec.flushes != 0 {
		t.Fatalf("Run flushed the recorder %d times", rec.flushes)
	}

	cfg = testConfig(t, NewRoundRobin())
	cfg.Recorder = obs.ByChannel(obs.NewRing(4), obs.NewRing(4), obs.NewRing(4))
	_, err = Run(cfg)
	if err == nil || !strings.Contains(err.Error(), "cluster: panic on channel 3") ||
		!strings.Contains(err.Error(), "index out of range [3] with length 3") {
		t.Fatalf("out-of-range ByChannel: got %v, want the run's error to name channel 3", err)
	}
}

// fakeView is a scripted View for router unit tests.
type fakeView struct {
	channels int
	backlog  []int64
	routed   []int64
}

func (v *fakeView) Channels() int        { return v.channels }
func (v *fakeView) Backlog(ch int) int64 { return v.backlog[ch] }
func (v *fakeView) Routed(ch int) int64  { return v.routed[ch] }

func TestRoundRobinCycles(t *testing.T) {
	r := NewRoundRobin()
	v := &fakeView{channels: 3}
	for id := int64(0); id < 9; id++ {
		if ch := r.Route(id, 0, v); ch != int(id%3) {
			t.Fatalf("packet %d routed to %d, want %d", id, ch, id%3)
		}
	}
}

func TestLeastBacklogPicksMinLowestIndex(t *testing.T) {
	r := NewLeastBacklog()
	v := &fakeView{channels: 4, backlog: []int64{5, 2, 7, 2}}
	if ch := r.Route(0, 0, v); ch != 1 {
		t.Fatalf("routed to %d, want 1 (min backlog, lowest index on the 1/3 tie)", ch)
	}
	v.backlog = []int64{0, 0, 0, 0}
	if ch := r.Route(1, 0, v); ch != 0 {
		t.Fatalf("all-equal backlog routed to %d, want 0", ch)
	}
}

func TestStickyKeepsFlowsTogether(t *testing.T) {
	v := &fakeView{channels: 8}
	a, b := NewSticky(5, 4), NewSticky(5, 4)
	for id := int64(0); id < 64; id++ {
		ch := a.Route(id, 0, v)
		if ch != b.Route(id, 0, v) {
			t.Fatalf("same seed routed packet %d differently", id)
		}
		// id and id+4 share a flow key (flows = 4), so they share a channel.
		if id >= 4 && ch != a.Route(id-4, 0, v) {
			t.Fatalf("packet %d left its flow's channel", id)
		}
	}
	// A different seed must produce a different placement somewhere.
	c := NewSticky(6, 4)
	same := true
	for id := int64(0); id < 64; id++ {
		if a.Route(id, 0, v) != c.Route(id, 0, v) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("sticky placement ignores the seed")
	}
}

func TestRandomInRangeAndDeterministic(t *testing.T) {
	v := &fakeView{channels: 5}
	a, b := NewRandom(9), NewRandom(9)
	seen := make(map[int]bool)
	for id := int64(0); id < 200; id++ {
		ch := a.Route(id, 0, v)
		if ch < 0 || ch >= 5 {
			t.Fatalf("routed outside [0, 5): %d", ch)
		}
		if ch != b.Route(id, 0, v) {
			t.Fatalf("same seed routed packet %d differently", id)
		}
		seen[ch] = true
	}
	if len(seen) != 5 {
		t.Fatalf("200 packets hit only channels %v", seen)
	}
}

// badRouter returns an out-of-range channel on the nth call.
type badRouter struct{ n, calls int64 }

func (b *badRouter) Route(id, slot int64, v View) int {
	b.calls++
	if b.calls > b.n {
		return v.Channels() // one past the end
	}
	return 0
}
func (b *badRouter) NeedsBacklog() bool { return false }

func TestRouterRangeChecked(t *testing.T) {
	cfg := testConfig(t, &badRouter{n: 3})
	cfg.Channels = 4
	if _, err := Run(cfg); err == nil {
		t.Fatal("out-of-range route accepted")
	}
}

// behindStation breaks the Station contract: it schedules its next access
// five slots before the slot it was asked about, which the engine rejects
// with a panic.
type behindStation struct{}

func (behindStation) Observe(channel.Observation) {}
func (behindStation) ScheduleNext(from int64, _ *prng.Source) (int64, bool) {
	return from - 5, true
}

// panicRouter is a router that panics on its first call.
type panicRouter struct{}

func (panicRouter) Route(int64, int64, View) int { panic("router broke") }
func (panicRouter) NeedsBacklog() bool           { return true }

// TestPanicsContained: a panicking station or router fails the run with an
// error instead of escaping Run. The error names the slot being stepped,
// and the channel when one is involved.
func TestPanicsContained(t *testing.T) {
	cases := []struct {
		name   string
		router Router
		want   []string
	}{
		{"roundrobin", NewRoundRobin(), []string{"cluster: panic on channel 0 stepping to slot 4", "scheduled slot -1"}},
		{"leastbacklog", NewLeastBacklog(), []string{"cluster: panic on channel 0 stepping to slot 4", "scheduled slot -1"}},
		{"router", panicRouter{}, []string{"cluster: panic stepping to slot 4", "router broke"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src, err := arrivals.NewTrace([]arrivals.TraceBatch{{Slot: 4, Count: 2}})
			if err != nil {
				t.Fatal(err)
			}
			_, err = Run(Config{
				Channels: 4,
				Seed:     1,
				Arrivals: src,
				Router:   tc.router,
				NewStation: func(int64, *prng.Source) channel.Station {
					return behindStation{}
				},
			})
			if err == nil {
				t.Fatal("panic not turned into an error")
			}
			for _, w := range tc.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("error %q does not mention %q", err, w)
				}
			}
		})
	}
}

func TestConfigValidation(t *testing.T) {
	valid := testConfig(t, NewRoundRobin())
	breakages := map[string]func(*Config){
		"channels": func(c *Config) { c.Channels = 0 },
		"arrivals": func(c *Config) { c.Arrivals = nil },
		"router":   func(c *Config) { c.Router = nil },
		"station":  func(c *Config) { c.NewStation = nil },
	}
	for name, brk := range breakages {
		cfg := valid
		brk(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: invalid config accepted", name)
		}
	}
}

// TestChannelSeedsDistinct: the derived per-channel seeds collide neither
// with each other nor with the base across a realistic range.
func TestChannelSeedsDistinct(t *testing.T) {
	seen := map[uint64]int{}
	for base := uint64(0); base < 4; base++ {
		for ch := 0; ch < 256; ch++ {
			s := ChannelSeed(base, ch)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: ChannelSeed(%d, %d) == entry %d", base, ch, prev)
			}
			seen[s] = len(seen)
		}
	}
}

// TestMergeTotals: merge sums what must sum and maxes what must max.
func TestMergeTotals(t *testing.T) {
	per := []sim.Result{
		{Arrived: 3, Completed: 2, ActiveSlots: 10, JammedSlots: 1, LastSlot: 40},
		{Arrived: 5, Completed: 5, ActiveSlots: 12, JammedSlots: 0, LastSlot: 90, Truncated: true},
	}
	r := merge(per, []int64{3, 5})
	if r.Arrived != 8 || r.Completed != 7 || r.ActiveSlots != 22 {
		t.Fatalf("bad sums: %+v", r)
	}
	if r.LastSlot != 90 || !r.Truncated {
		t.Fatalf("LastSlot/Truncated: %+v", r)
	}
	if len(r.PerChannel) != 2 || r.Routed[1] != 5 {
		t.Fatalf("breakdown not kept: %+v, %v", r.PerChannel, r.Routed)
	}
	// Jain over completed counts (2, 5): 49 / (2 * 29).
	if want := 49.0 / 58.0; r.ChannelFairness != want {
		t.Fatalf("fairness %v, want %v", r.ChannelFairness, want)
	}
	if merge(nil, nil).ChannelFairness != 1 || merge([]sim.Result{{}, {}}, []int64{0, 0}).ChannelFairness != 1 {
		t.Fatal("empty/zero fairness must be 1")
	}
}
