package lowsensing_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"lowsensing"
	"lowsensing/internal/runner"
	"lowsensing/obs"
	"lowsensing/prng"
)

// builtinRouters enumerates every built-in router spec, with sticky
// exercising its flow keying rather than the per-packet degenerate case.
func builtinRouters() map[string]lowsensing.RouterSpec {
	return map[string]lowsensing.RouterSpec{
		lowsensing.RouterRandom:       {Kind: lowsensing.RouterRandom},
		lowsensing.RouterRoundRobin:   {Kind: lowsensing.RouterRoundRobin},
		lowsensing.RouterLeastBacklog: {Kind: lowsensing.RouterLeastBacklog},
		lowsensing.RouterSticky:       lowsensing.StickyRouting(32),
	}
}

// testCluster is the canonical 16-channel scenario the determinism and
// invariant suites run: ~1200 Poisson packets under light random jamming,
// enough traffic that every channel sees real contention.
func testCluster(router lowsensing.RouterSpec) lowsensing.ClusterScenario {
	return lowsensing.ClusterScenario{
		Seed:     7,
		Channels: 16,
		Arrivals: lowsensing.PoissonArrivals(0.3, 1200),
		Jammer:   lowsensing.RandomJamming(0.05, 200),
		Router:   router,
	}
}

// TestClusterSerialShardedIdentical is the cluster determinism contract:
// the full ClusterResult — every per-channel Result, the routing tally,
// the merged totals, the fairness index — is byte-identical from run to
// run, for every built-in router, and the deprecated Scenario.Workers
// changes nothing.
func TestClusterSerialShardedIdentical(t *testing.T) {
	for name, router := range builtinRouters() {
		t.Run(name, func(t *testing.T) {
			sc := testCluster(router)
			sc.Workers = 1
			ref, err := sc.Run()
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(ref)
			if err != nil {
				t.Fatal(err)
			}
			if ref.Total.Arrived != 1200 {
				t.Fatalf("reference run arrived %d packets, want 1200", ref.Total.Arrived)
			}
			for _, workers := range []int{4, 8} {
				sc := testCluster(router)
				sc.Workers = workers
				r, err := sc.Run()
				if err != nil {
					t.Fatal(err)
				}
				got, err := json.Marshal(r)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("workers=%d result differs from serial reference:\n got %s\nwant %s",
						workers, got, want)
				}
			}
		})
	}
}

// TestClusterRouterInvariants checks, for every built-in router, the
// properties any correct routing execution must have: same seed, same
// result; every routed packet arrives at exactly one channel; packets are
// conserved per channel; the fairness index is in (0, 1].
func TestClusterRouterInvariants(t *testing.T) {
	for name, router := range builtinRouters() {
		t.Run(name, func(t *testing.T) {
			r, err := testCluster(router).Run()
			if err != nil {
				t.Fatal(err)
			}
			again, err := testCluster(router).Run()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(r, again) {
				t.Fatal("same seed produced different cluster results")
			}

			var routed int64
			for ch := range r.Routed {
				routed += r.Routed[ch]
				if r.Routed[ch] != r.PerChannel[ch].Arrived {
					t.Fatalf("channel %d: routed %d but arrived %d",
						ch, r.Routed[ch], r.PerChannel[ch].Arrived)
				}
				pc := &r.PerChannel[ch]
				if pc.Completed+pc.Energy.Undelivered != pc.Arrived {
					t.Fatalf("channel %d leaks packets: completed %d + undelivered %d != arrived %d",
						ch, pc.Completed, pc.Energy.Undelivered, pc.Arrived)
				}
			}
			if routed != r.Total.Arrived {
				t.Fatalf("routed %d packets but cluster arrived %d", routed, r.Total.Arrived)
			}
			if r.Fairness <= 0 || r.Fairness > 1 {
				t.Fatalf("fairness %v outside (0, 1]", r.Fairness)
			}
		})
	}
}

// TestClusterTruncation: a slot cap every channel hits leaves survivors,
// and conservation still holds — survivors are counted undelivered, never
// dropped.
func TestClusterTruncation(t *testing.T) {
	sc := lowsensing.ClusterScenario{
		Seed:     3,
		Channels: 4,
		MaxSlots: 64,
		Arrivals: lowsensing.BatchArrivals(256),
		Router:   lowsensing.RouterSpec{Kind: lowsensing.RouterRoundRobin},
	}
	r, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !r.Total.Truncated {
		t.Fatal("256-packet batch under a 64-slot cap did not truncate")
	}
	if r.Total.Energy.Undelivered == 0 {
		t.Fatal("truncated cluster reports no undelivered packets")
	}
	if r.Total.Arrived != 256 {
		t.Fatalf("arrived %d, want 256", r.Total.Arrived)
	}
	if r.Total.Completed+r.Total.Energy.Undelivered != r.Total.Arrived {
		t.Fatalf("truncation leaks packets: %d + %d != %d",
			r.Total.Completed, r.Total.Energy.Undelivered, r.Total.Arrived)
	}
}

// TestClusterScenarioJSONRoundTrip: a cluster scenario survives
// marshal → ParseClusterScenario unchanged and runs identically, for every
// built-in router kind.
func TestClusterScenarioJSONRoundTrip(t *testing.T) {
	for name, router := range builtinRouters() {
		t.Run(name, func(t *testing.T) {
			sc := testCluster(router)
			sc.Channels = 4 // keep the round-trip runs cheap
			data, err := json.Marshal(sc)
			if err != nil {
				t.Fatal(err)
			}
			back, err := lowsensing.ParseClusterScenario(data)
			if err != nil {
				t.Fatalf("round trip of %s failed: %v", data, err)
			}
			if !reflect.DeepEqual(back, sc) {
				t.Fatalf("cluster scenario changed through JSON:\n%+v\nvs\n%+v\n(json: %s)", back, sc, data)
			}
			want, err := sc.Run()
			if err != nil {
				t.Fatal(err)
			}
			got, err := back.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !sameResult(got.Total, want.Total) || got.Fairness != want.Fairness {
				t.Fatalf("round-tripped cluster runs differently:\n%+v\nvs\n%+v", got, want)
			}
		})
	}
}

// TestParseClusterScenarioErrors: strict decoding and validation reject
// the spec-file mistakes that matter.
func TestParseClusterScenarioErrors(t *testing.T) {
	cases := map[string]string{
		"unknown field":    `{"channels": 2, "arrivals": {"kind": "batch", "n": 4}, "chanels": 3}`,
		"missing channels": `{"arrivals": {"kind": "batch", "n": 4}}`,
		"zero channels":    `{"channels": 0, "arrivals": {"kind": "batch", "n": 4}}`,
		"no arrivals":      `{"channels": 2}`,
		"unknown router":   `{"channels": 2, "arrivals": {"kind": "batch", "n": 4}, "router": {"kind": "nope"}}`,
		"unknown protocol": `{"channels": 2, "arrivals": {"kind": "batch", "n": 4}, "protocol": {"kind": "nope"}}`,
		"unknown jammer":   `{"channels": 2, "arrivals": {"kind": "batch", "n": 4}, "jammer": {"kind": "nope"}}`,
		"classes":          `{"channels": 2, "classes": [{"name": "a", "arrivals": {"kind": "batch", "n": 4}}]}`,
		"retain packets":   `{"channels": 2, "arrivals": {"kind": "batch", "n": 4}, "retain_packets": true}`,
		"malformed":        `{"channels": `,
	}
	for name, spec := range cases {
		if _, err := lowsensing.ParseClusterScenario([]byte(spec)); err == nil {
			t.Errorf("%s accepted: %s", name, spec)
		}
	}
	if _, err := lowsensing.ParseClusterScenario([]byte(`{"channels": 0, "arrivals": {"kind": "batch", "n": 4}}`)); err == nil || !strings.Contains(err.Error(), "Channels") {
		t.Fatalf("zero-channels error does not name the field: %v", err)
	}
}

// TestClusterRunObserved: per-channel recorders each see exactly their own
// channel's stream, and the merged window series accounts for every
// delivered packet in the cluster.
func TestClusterRunObserved(t *testing.T) {
	sc := lowsensing.ClusterScenario{
		Seed:     9,
		Channels: 4,
		Arrivals: lowsensing.PoissonArrivals(0.2, 200),
		Router:   lowsensing.RouterSpec{Kind: lowsensing.RouterRoundRobin},
	}
	wins := make([]*obs.Windows, sc.Channels)
	for ch := range wins {
		wins[ch] = obs.NewWindows(256, nil)
	}
	r, err := sc.RunObserved(func(ch int) lowsensing.Recorder { return wins[ch] })
	if err != nil {
		t.Fatal(err)
	}
	series := make([][]obs.WindowStat, sc.Channels)
	for ch, w := range wins {
		series[ch] = w.Stats()
		var departed int64
		for _, ws := range series[ch] {
			departed += ws.Departures
		}
		if departed != r.PerChannel[ch].Completed {
			t.Fatalf("channel %d windows saw %d departures, engine completed %d",
				ch, departed, r.PerChannel[ch].Completed)
		}
	}
	merged := obs.MergeWindowSeries(series...)
	var departed int64
	for i, ws := range merged {
		departed += ws.Departures
		if i > 0 && merged[i-1].Index >= ws.Index {
			t.Fatalf("merged series not strictly ordered at %d: %v >= %v", i, merged[i-1].Index, ws.Index)
		}
	}
	if departed != r.Total.Completed {
		t.Fatalf("merged windows saw %d departures, cluster completed %d", departed, r.Total.Completed)
	}
}

// TestSweepClusterJobs: a sweep whose base has channels >= 1 runs every job
// as a cluster, and each progress report's Events sums every channel's
// engine work — not channel 0's alone — so ETAs weigh cluster jobs
// correctly. Cluster bases that no job could run fail at build time.
func TestSweepClusterJobs(t *testing.T) {
	ss, err := lowsensing.ParseSweepSpec([]byte(`{
		"id": "cluster-sweep",
		"seed": 11,
		"base": {"arrivals": {"kind": "poisson", "rate": 0.3, "n": 160},
			"channels": 4, "router": {"kind": "roundrobin"}},
		"axes": [{"name": "jam", "variants": [
			{"label": "off"},
			{"label": "on", "patch": {"jammer": {"kind": "random", "rate": 0.1, "budget": 40}}}
		]}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	sw, err := ss.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	var events []int64
	sw.Workers(2).Progress(func(p lowsensing.SweepProgress) {
		events = append(events, p.Events)
	})
	prs, err := sw.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(prs) != 2 || len(events) != 2 {
		t.Fatalf("got %d points, %d progress reports, want 2 and 2", len(prs), len(events))
	}
	for _, pr := range prs {
		if pr.Arrived != 160 {
			t.Fatalf("point %q arrived %d, want 160", pr.Point, pr.Arrived)
		}
	}

	// Reproduce job 0 (point 0, rep 0) through Scenario.Run: same derived
	// seed, same cluster shape. Its summed engine events must be exactly
	// what the progress report carried, and strictly more than any single
	// channel's.
	direct := ss.Base
	direct.Seed = runner.DeriveSeed(11, "cluster-sweep", 0, 0)
	total, err := direct.Run()
	if err != nil {
		t.Fatal(err)
	}
	if events[0] != total.EngineStats.EventsScheduled {
		t.Fatalf("progress events %d != cluster total %d", events[0], total.EngineStats.EventsScheduled)
	}
	if prs[0].Reps != 1 || prs[0].Completed != total.Completed || prs[0].ActiveSlots != total.ActiveSlots {
		t.Fatalf("point 0 aggregate %+v does not fold the reproduced job %+v", prs[0], total)
	}
	cr, err := lowsensing.ClusterScenario(direct).Run()
	if err != nil {
		t.Fatal(err)
	}
	for ch := range cr.PerChannel {
		if per := cr.PerChannel[ch].EngineStats.EventsScheduled; per >= events[0] {
			t.Fatalf("progress events %d not a sum: channel %d alone scheduled %d", events[0], ch, per)
		}
	}

	// Bases no cluster can run are rejected when the sweep is built, not
	// by every job at run time.
	for name, base := range map[string]string{
		"classes":        `{"channels": 2, "classes": [{"name": "a", "arrivals": {"kind": "batch", "n": 4}}]}`,
		"retain packets": `{"channels": 2, "arrivals": {"kind": "batch", "n": 4}, "retain_packets": true}`,
	} {
		ss, err := lowsensing.ParseSweepSpec([]byte(`{"base": ` + base + `}`))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ss.Sweep(); err == nil {
			t.Errorf("cluster base with %s built a sweep", name)
		}
	}
}

// TestScenarioClusterDifferential: a Scenario with channels >= 1 and its
// ClusterScenario conversion are one run — Scenario.Run returns exactly
// the ClusterResult's Total, for every built-in router — and the cluster
// JSON means the same through ParseScenario as through
// ParseClusterScenario.
func TestScenarioClusterDifferential(t *testing.T) {
	for name, router := range builtinRouters() {
		t.Run(name, func(t *testing.T) {
			sc := lowsensing.Scenario(testCluster(router))
			got, err := sc.Run()
			if err != nil {
				t.Fatal(err)
			}
			cr, err := lowsensing.ClusterScenario(sc).Run()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, cr.Total) {
				t.Fatalf("Scenario.Run differs from ClusterScenario.Run's Total:\n%+v\nvs\n%+v", got, cr.Total)
			}

			data, err := json.Marshal(testCluster(router))
			if err != nil {
				t.Fatal(err)
			}
			plain, err := lowsensing.ParseScenario(data)
			if err != nil {
				t.Fatal(err)
			}
			viaPlain, err := plain.Run()
			if err != nil {
				t.Fatal(err)
			}
			cs, err := lowsensing.ParseClusterScenario(data)
			if err != nil {
				t.Fatal(err)
			}
			viaCluster, err := cs.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(viaPlain, viaCluster.Total) || !reflect.DeepEqual(viaPlain, got) {
				t.Fatalf("%s runs differently through ParseScenario and ParseClusterScenario", data)
			}
		})
	}
}

// countingRecorder counts the events it sees and how often it is flushed.
type countingRecorder struct {
	slots, packets, flushes int64
}

func (c *countingRecorder) RecordSlot(lowsensing.SlotEvent)     { c.slots++ }
func (c *countingRecorder) RecordPacket(lowsensing.PacketEvent) { c.packets++ }
func (c *countingRecorder) Flush() error                        { c.flushes++; return nil }

// TestSimulationClusterRecorders: on a cluster scenario, WithRecorder
// attaches one recorder every channel shares — it sees every channel's
// packets and slots, the run is the unobserved run, and Run leaves the
// flush to the caller (a sweep job flushes exactly once). Components a
// cluster cannot use are rejected by name.
func TestSimulationClusterRecorders(t *testing.T) {
	for _, router := range []lowsensing.RouterSpec{
		{Kind: lowsensing.RouterRoundRobin}, {Kind: lowsensing.RouterLeastBacklog},
	} {
		sc := lowsensing.Scenario(testCluster(router))
		sc.Channels = 4
		want, err := lowsensing.ClusterScenario(sc).Run()
		if err != nil {
			t.Fatal(err)
		}
		perChannel := make([]*countingRecorder, sc.Channels)
		if _, err := lowsensing.ClusterScenario(sc).RunObserved(func(ch int) lowsensing.Recorder {
			perChannel[ch] = &countingRecorder{}
			return perChannel[ch]
		}); err != nil {
			t.Fatal(err)
		}
		var slots int64
		for _, r := range perChannel {
			slots += r.slots
		}
		rec := &countingRecorder{}
		got, err := sc.Simulation(lowsensing.WithRecorder(rec)).Run()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want.Total) {
			t.Fatalf("%s: observed cluster run differs from unobserved", router.Kind)
		}
		if rec.packets != want.Total.Arrived || rec.slots != slots || rec.flushes != 0 {
			t.Fatalf("%s: shared recorder saw %d packets, %d slots, %d flushes; want %d, %d, 0",
				router.Kind, rec.packets, rec.slots, rec.flushes, want.Total.Arrived, slots)
		}

		swRec := &countingRecorder{}
		sw, err := lowsensing.SweepSpec{Base: sc}.Sweep()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sw.Observe(func(lowsensing.Point, int) lowsensing.Recorder {
			return swRec
		}).Run(); err != nil {
			t.Fatal(err)
		}
		if swRec.flushes != 1 {
			t.Fatalf("%s: sweep flushed a cluster job's recorder %d times, want 1", router.Kind, swRec.flushes)
		}
	}

	sc := lowsensing.Scenario(testCluster(lowsensing.RouterSpec{}))
	src, err := lowsensing.BatchArrivals(4).Source(1)
	if err != nil {
		t.Fatal(err)
	}
	jam, err := lowsensing.RandomJamming(0.1, 0).Jammer(1)
	if err != nil {
		t.Fatal(err)
	}
	for name, opt := range map[string]lowsensing.Option{
		"WithArrivals": lowsensing.WithArrivals(src),
		"WithStations": lowsensing.WithStations(func(int64, *prng.Source) lowsensing.Station { return nil }),
		"WithJammer":   lowsensing.WithJammer(jam),
		"engine-bound": lowsensing.WithRecorder(&lowsensing.Collector{Every: 8}),
	} {
		_, err := sc.Simulation(opt).Run()
		if err == nil || !strings.Contains(err.Error(), "cluster") {
			t.Errorf("%s on a cluster scenario: %v", name, err)
		}
	}
}

// TestScenarioClusterValidation: the cluster fields are checked like any
// other part of a scenario.
func TestScenarioClusterValidation(t *testing.T) {
	base := lowsensing.Scenario{Arrivals: lowsensing.BatchArrivals(4)}
	for name, edit := range map[string]func(*lowsensing.Scenario){
		"negative channels": func(sc *lowsensing.Scenario) { sc.Channels = -1 },
		"router without cluster": func(sc *lowsensing.Scenario) {
			sc.Router = lowsensing.RouterSpec{Kind: lowsensing.RouterRoundRobin}
		},
		"unknown router": func(sc *lowsensing.Scenario) {
			sc.Channels = 2
			sc.Router = lowsensing.RouterSpec{Kind: "nope"}
		},
		"cluster with retention": func(sc *lowsensing.Scenario) {
			sc.Channels = 2
			sc.RetainPackets = true
		},
		"cluster with classes": func(sc *lowsensing.Scenario) {
			sc.Channels = 1
			sc.Arrivals = lowsensing.ArrivalsSpec{}
			sc.Classes = []lowsensing.ClassSpec{{Name: "a", Arrivals: lowsensing.BatchArrivals(4)}}
		},
	} {
		sc := base
		edit(&sc)
		if err := sc.Validate(); err == nil {
			t.Errorf("%s validated", name)
		}
		if _, err := sc.Run(); err == nil {
			t.Errorf("%s ran", name)
		}
	}
	one := base
	one.Channels = 1
	if err := one.Validate(); err != nil {
		t.Fatalf("one-channel cluster rejected: %v", err)
	}
}
