package lowsensing_test

import (
	"encoding/json"
	"testing"

	"lowsensing"
)

// FuzzParseClusterScenario throws arbitrary bytes at the strict cluster
// parser, mirroring FuzzParseScenario: malformed JSON, unknown router and
// component kinds, unknown fields, duplicate keys (legal under strict
// decoding — last value wins), absurd channel counts and numbers. The
// invariants: the parser never panics, it agrees with ParseScenario on
// every input, and anything it accepts survives a marshal → re-parse
// round trip.
func FuzzParseClusterScenario(f *testing.F) {
	for _, seed := range []string{
		// Valid cluster scenarios across the built-in routers.
		`{"channels": 2, "arrivals": {"kind": "batch", "n": 16}}`,
		`{"seed": 7, "channels": 16, "arrivals": {"kind": "poisson", "rate": 0.3, "n": 64}, "router": {"kind": "roundrobin"}}`,
		`{"channels": 4, "arrivals": {"kind": "bernoulli", "rate": 0.1, "n": 32}, "router": {"kind": "sticky", "flows": 8}, "jammer": {"kind": "random", "rate": 0.2, "budget": 4}}`,
		`{"channels": 3, "arrivals": {"kind": "batch", "n": 8}, "router": {"kind": "leastbacklog"}, "protocol": {"kind": "beb"}, "max_slots": 4096}`,
		`{"channels": 2, "arrivals": {"kind": "batch", "n": 4}, "router": {"kind": "custom", "params": {"bias": 0.5}}, "disable_batching": true}`,
		// Churn and fault specs ride through the cluster parser too.
		`{"channels": 2, "arrivals": {"kind": "batch", "n": 8}, "churn": {"kind": "flash-crowd", "slot": 4, "n": 6, "lifetime": 64}}`,
		`{"channels": 4, "arrivals": {"kind": "poisson", "rate": 0.1, "n": 16}, "churn": {"kind": "poisson-join-leave", "rate": 0.05, "n": 8, "leave_rate": 0.02}, "faults": {"kind": "flaky", "false_busy": 0.1, "rate": 0.01, "down": 2}}`,
		`{"channels": 2, "arrivals": {"kind": "batch", "n": 8}, "faults": {"kind": "sensing", "false_busy": 2}}`,
		`{"channels": 2, "arrivals": {"kind": "batch", "n": 8}, "churn": {"kind": "nope"}}`,
		// Unknown kinds, missing/zero channels, unknown fields, wrong types,
		// malformed JSON.
		`{"channels": 2, "arrivals": {"kind": "batch", "n": 4}, "router": {"kind": "nope"}}`,
		`{"arrivals": {"kind": "batch", "n": 4}}`,
		`{"channels": 0, "arrivals": {"kind": "batch", "n": 4}}`,
		`{"channels": -3, "arrivals": {"kind": "batch", "n": 4}}`,
		`{"channels": 2, "arrivals": {"kind": "batch", "n": 4}, "workers": 8}`,
		`{"channels": "two", "arrivals": {"kind": "batch", "n": 4}}`,
		`{"channels": 2, "arrivals": {"kind": "batch"`,
		`null`, `42`, `"cluster"`, `[]`, ``,
		// Duplicate keys: strict decoding still takes the last value.
		`{"channels": 1, "channels": 4, "arrivals": {"kind": "batch", "n": 4}}`,
		`{"channels": 2, "router": {"kind": "random"}, "router": {"kind": "sticky", "flows": 2}, "arrivals": {"kind": "batch", "n": 4}}`,
		// Extreme numbers.
		`{"channels": 2147483647, "arrivals": {"kind": "batch", "n": 1}}`,
		`{"seed": 18446744073709551615, "channels": 2, "arrivals": {"kind": "batch", "n": 9223372036854775807}, "max_slots": -5}`,
		`{"channels": 2, "arrivals": {"kind": "poisson", "rate": 1e308, "n": 1}, "router": {"kind": "sticky", "flows": -9223372036854775808}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cs, err := lowsensing.ParseClusterScenario(data)
		// ParseClusterScenario is ParseScenario restricted to clusters: it
		// accepts exactly the inputs ParseScenario accepts with channels >= 1.
		sc, serr := lowsensing.ParseScenario(data)
		if want := serr == nil && sc.Channels >= 1; (err == nil) != want {
			t.Fatalf("ParseClusterScenario accepted=%v, want %v (ParseScenario err %v, cluster err %v)\ninput: %q",
				err == nil, want, serr, err, data)
		}
		if err != nil {
			return // rejected is fine; panicking or accepting garbage is not
		}
		out, err := json.Marshal(cs)
		if err != nil {
			t.Fatalf("accepted cluster scenario does not marshal: %v\ninput: %q", err, data)
		}
		if _, err := lowsensing.ParseClusterScenario(out); err != nil {
			t.Fatalf("round trip rejected: %v\ninput: %q\nmarshaled: %s", err, data, out)
		}
	})
}
