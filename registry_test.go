package lowsensing_test

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"testing"

	"lowsensing"
	"lowsensing/channel"
	"lowsensing/prng"
)

// noopStation sleeps essentially forever: it schedules its next access far
// beyond any test's MaxSlots and never sends, so runs driving it truncate
// immediately and cheaply. It exists to give test registrations a
// constructible factory.
type noopStation struct{}

func (noopStation) ScheduleNext(from int64, _ *prng.Source) (int64, bool) {
	return from + (1 << 40), false
}
func (noopStation) Observe(channel.Observation) {}

func noopFactory(lowsensing.ProtocolSpec) (lowsensing.StationFactory, error) {
	return func(int64, *prng.Source) lowsensing.Station { return noopStation{} }, nil
}

// kindNames flattens a KindDoc listing to its sorted kind names.
func kindNames(kds []lowsensing.KindDoc) []string {
	out := make([]string, len(kds))
	for i, kd := range kds {
		out[i] = kd.Kind
	}
	return out
}

// TestKindListings: the listings contain every built-in with its doc, and
// are sorted by kind.
func TestKindListings(t *testing.T) {
	cases := []struct {
		name     string
		kinds    []lowsensing.KindDoc
		builtins []string
	}{
		{"protocols", lowsensing.ProtocolKinds(),
			[]string{"lsb", "beb", "mwu", "sawtooth", "aloha", "poly", "genie"}},
		{"arrivals", lowsensing.ArrivalKinds(),
			[]string{"batch", "bernoulli", "poisson", "aqt", "file"}},
		{"jammers", lowsensing.JammerKinds(),
			[]string{"random", "burst", "reactive"}},
		{"routers", lowsensing.RouterKinds(),
			[]string{"random", "roundrobin", "leastbacklog", "sticky"}},
	}
	for _, tc := range cases {
		names := kindNames(tc.kinds)
		if !sort.StringsAreSorted(names) {
			t.Fatalf("%s listing not sorted: %v", tc.name, names)
		}
		for _, want := range tc.builtins {
			i := sort.SearchStrings(names, want)
			if i >= len(names) || names[i] != want {
				t.Fatalf("%s listing misses built-in %q: %v", tc.name, want, names)
			}
			if tc.kinds[i].Doc == "" {
				t.Fatalf("%s kind %q registered without a doc string", tc.name, want)
			}
		}
	}
}

// TestUnknownKindErrorsEnumerateRegistered: resolving an unknown kind
// must name every registered kind, sorted, so a typo'd spec file tells the
// user what is available.
func TestUnknownKindErrorsEnumerateRegistered(t *testing.T) {
	check := func(t *testing.T, err error, what string, kinds []lowsensing.KindDoc) {
		t.Helper()
		if err == nil {
			t.Fatal("unknown kind accepted")
		}
		want := fmt.Sprintf("lowsensing: unknown %s kind %q (registered kinds: %s)",
			what, "no-such-kind", strings.Join(kindNames(kinds), ", "))
		if err.Error() != want {
			t.Fatalf("error message:\n got %q\nwant %q", err, want)
		}
	}

	_, err := lowsensing.ProtocolSpec{Kind: "no-such-kind"}.Factory()
	check(t, err, "protocol", lowsensing.ProtocolKinds())

	_, err = lowsensing.ArrivalsSpec{Kind: "no-such-kind"}.Source(1)
	check(t, err, "arrival", lowsensing.ArrivalKinds())

	_, err = lowsensing.JammerSpec{Kind: "no-such-kind"}.Jammer(1)
	check(t, err, "jammer", lowsensing.JammerKinds())

	_, err = lowsensing.RouterSpec{Kind: "no-such-kind"}.Router(1)
	check(t, err, "router", lowsensing.RouterKinds())

	// And through ParseClusterScenario, where router typos actually happen.
	_, err = lowsensing.ParseClusterScenario([]byte(`{"channels": 2, "arrivals": {"kind": "batch", "n": 4}, "router": {"kind": "no-such-kind"}}`))
	check(t, err, "router", lowsensing.RouterKinds())
	if !strings.Contains(err.Error(), "roundrobin") || !strings.Contains(err.Error(), "leastbacklog") {
		t.Fatalf("enumeration misses built-in routers: %v", err)
	}

	// The same message surfaces through ParseScenario, where spec-file
	// typos actually happen.
	_, err = lowsensing.ParseScenario([]byte(`{"arrivals": {"kind": "batch", "n": 4}, "protocol": {"kind": "no-such-kind"}}`))
	check(t, err, "protocol", lowsensing.ProtocolKinds())
	if !strings.Contains(err.Error(), "lsb") || !strings.Contains(err.Error(), "beb") {
		t.Fatalf("enumeration misses built-ins: %v", err)
	}
}

// TestRegisterPanics: duplicate kinds, empty kinds, and nil factories are
// registration bugs and panic loudly.
func TestRegisterPanics(t *testing.T) {
	mustPanic := func(t *testing.T, frag string, fn func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("no panic")
			}
			if msg := fmt.Sprint(r); !strings.Contains(msg, frag) {
				t.Fatalf("panic %q does not mention %q", msg, frag)
			}
		}()
		fn()
	}
	mustPanic(t, "registered twice", func() {
		lowsensing.RegisterProtocol("lsb", "dup", noopFactory)
	})
	mustPanic(t, "empty name", func() {
		lowsensing.RegisterProtocol("", "empty", noopFactory)
	})
	mustPanic(t, "nil factory", func() {
		lowsensing.RegisterProtocol("nil-factory-kind", "nil", nil)
	})
	mustPanic(t, "registered twice", func() {
		lowsensing.RegisterArrivals("batch", "dup", func(lowsensing.ArrivalsSpec, uint64) (lowsensing.ArrivalSource, error) {
			return nil, nil
		})
	})
	mustPanic(t, "registered twice", func() {
		lowsensing.RegisterJammer("random", "dup", func(lowsensing.JammerSpec, uint64) (lowsensing.Jammer, error) {
			return nil, nil
		})
	})
	mustPanic(t, "registered twice", func() {
		lowsensing.RegisterRouter("roundrobin", "dup", func(lowsensing.RouterSpec, uint64) (lowsensing.Router, error) {
			return nil, nil
		})
	})
}

// TestSweepPointParamsIsolated: JSON merge patches into a spec's Params
// map must stay local to their grid point. Regression test — Points() used
// to shallow-copy the base, so every point shared one Params map and each
// patch overwrote all earlier points (and the base itself).
func TestSweepPointParamsIsolated(t *testing.T) {
	ss, err := lowsensing.ParseSweepSpec([]byte(`{
		"base": {"arrivals": {"kind": "batch", "n": 8},
		         "protocol": {"kind": "lsb", "params": {"w0": 2}}},
		"axes": [{"name": "w", "variants": [
			{"label": "w4", "patch": {"protocol": {"params": {"w0": 4}}}},
			{"label": "w8", "patch": {"protocol": {"params": {"w0": 8}}}}
		]}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	sw, err := ss.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	pts := sw.Points()
	if got := pts[0].Scenario.Protocol.Params["w0"]; got != 4 {
		t.Fatalf("point w4 has w0 = %v (patch leaked across points)", got)
	}
	if got := pts[1].Scenario.Protocol.Params["w0"]; got != 8 {
		t.Fatalf("point w8 has w0 = %v", got)
	}
	if got := ss.Base.Protocol.Params["w0"]; got != 2 {
		t.Fatalf("base mutated: w0 = %v", got)
	}
}

// TestRegisteredKindResolvesEverywhere: a kind registered by this test —
// an outside package from the module's point of view — resolves through
// specs, scenarios, option constructors, and sweep axes like a built-in.
func TestRegisteredKindResolvesEverywhere(t *testing.T) {
	lowsensing.RegisterProtocol("testproto", "test-only protocol", noopFactory)
	t.Cleanup(func() { lowsensing.UnregisterProtocol("testproto") })

	spec := lowsensing.ProtocolSpec{Kind: "testproto"}
	if _, err := spec.Factory(); err != nil {
		t.Fatal(err)
	}

	sc := lowsensing.Scenario{
		Seed:     1,
		Arrivals: lowsensing.BatchArrivals(4),
		Protocol: spec,
		MaxSlots: 64,
	}
	r, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	// noopStation never sends, so the run truncates with nothing delivered
	// — proof the custom station actually drove the engine.
	if !r.Truncated || r.Completed != 0 || r.Arrived != 4 {
		t.Fatalf("custom protocol run: %+v", r)
	}

	// Through JSON, exactly as a spec file would say it.
	if _, err := lowsensing.ParseScenario([]byte(`{"arrivals": {"kind": "batch", "n": 4}, "protocol": {"kind": "testproto"}, "max_slots": 64}`)); err != nil {
		t.Fatal(err)
	}

	// Through a sweep axis.
	sw, err := lowsensing.SweepSpec{Base: sc, Axes: []lowsensing.AxisSpec{{Name: "protocol", Variants: []lowsensing.Variant{
		{Label: "lsb", Patch: json.RawMessage(`{"protocol": {"kind": "lsb"}}`)},
		{Label: "testproto", Patch: json.RawMessage(`{"protocol": {"kind": "testproto"}}`)},
	}}}}.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	pts, err := sw.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || pts[1].Point.String() != "protocol=testproto" {
		t.Fatalf("sweep points: %+v", pts)
	}

	// And it shows up in the listing with its doc.
	for _, kd := range lowsensing.ProtocolKinds() {
		if kd.Kind == "testproto" {
			if kd.Doc != "test-only protocol" {
				t.Fatalf("doc = %q", kd.Doc)
			}
			return
		}
	}
	t.Fatal("testproto missing from ProtocolKinds")
}
