package lowsensing_test

import (
	"encoding/json"
	"testing"

	"lowsensing"
)

// FuzzParseScenario throws arbitrary bytes at the strict scenario parser:
// malformed JSON, unknown kinds and fields, duplicate keys (legal under
// encoding/json's strict mode — last value wins), absurd numbers. The
// invariants: the parser never panics, and anything it accepts survives a
// marshal → re-parse round trip (the accepted value is really expressible
// as a spec file).
func FuzzParseScenario(f *testing.F) {
	for _, seed := range []string{
		// Valid scenarios across the built-in kinds.
		`{"arrivals": {"kind": "batch", "n": 64}}`,
		`{"seed": 7, "arrivals": {"kind": "bernoulli", "rate": 0.1, "n": 32}, "protocol": {"kind": "beb"}}`,
		`{"arrivals": {"kind": "poisson", "rate": 0.5, "n": 8}, "jammer": {"kind": "random", "rate": 0.2, "budget": 4}}`,
		`{"arrivals": {"kind": "aqt", "rate": 0.25, "granularity": 64, "windows": 2}, "protocol": {"kind": "poly", "w0": 4, "alpha": 1.5}}`,
		`{"arrivals": {"kind": "batch", "n": 4}, "protocol": {"kind": "aloha", "send_prob": 0.25}, "max_slots": 4096}`,
		`{"arrivals": {"kind": "batch", "n": 4}, "protocol": {"kind": "lsb", "config": {"c": 0.5, "w_min": 8, "k": 3}}}`,
		// Params for registered kinds ride through a free-form map.
		`{"arrivals": {"kind": "batch", "n": 4}, "protocol": {"kind": "custom", "params": {"w0": 4, "x": -1.5}}}`,
		// Churn, faults, and multi-class workloads.
		`{"arrivals": {"kind": "batch", "n": 8}, "churn": {"kind": "flash-crowd", "slot": 10, "n": 6, "lifetime": 100}}`,
		`{"arrivals": {"kind": "batch", "n": 8}, "churn": {"kind": "epochs", "period": 64}, "faults": {"kind": "sensing", "false_busy": 0.1, "false_idle": 0.05}}`,
		`{"arrivals": {"kind": "poisson", "rate": 0.1, "n": 8}, "churn": {"kind": "poisson-join-leave", "rate": 0.05, "n": 16, "leave_rate": 0.02}, "faults": {"kind": "flaky", "false_busy": 0.1, "rate": 0.01, "down": 4}}`,
		`{"seed": 9, "classes": [{"name": "a", "arrivals": {"kind": "batch", "n": 8}}, {"name": "b", "arrivals": {"kind": "bernoulli", "rate": 0.05, "n": 8}, "protocol": {"kind": "beb"}, "churn": {"kind": "flash-crowd", "slot": 32, "n": 4}, "faults": {"kind": "crash", "rate": 0.02, "down": 2}}]}`,
		// Invalid robustness specs: unknown kinds, classes mixing with
		// top-level fields, out-of-range probabilities, duplicate names.
		`{"arrivals": {"kind": "batch", "n": 8}, "churn": {"kind": "nope"}}`,
		`{"arrivals": {"kind": "batch", "n": 8}, "faults": {"kind": "sensing", "false_busy": 1.5}}`,
		`{"arrivals": {"kind": "batch", "n": 8}, "classes": [{"name": "a", "arrivals": {"kind": "batch", "n": 4}}]}`,
		`{"classes": [{"name": "a", "arrivals": {"kind": "batch", "n": 4}}, {"name": "a", "arrivals": {"kind": "batch", "n": 4}}]}`,
		`{"classes": [{"arrivals": {"kind": "batch", "n": 4}}]}`,
		// Unknown kinds, unknown fields, wrong types, malformed JSON.
		`{"arrivals": {"kind": "nope"}}`,
		`{"arrivals": {"kind": "batch", "n": 64}, "typo_field": 1}`,
		`{"arrivals": {"kind": "batch", "n": "sixty-four"}}`,
		`{"arrivals": {"kind": "batch"`,
		`null`, `42`, `"batch"`, `[]`, ``,
		// Duplicate keys: strict decoding still takes the last value.
		`{"arrivals": {"kind": "batch", "n": 1, "n": 64}}`,
		`{"arrivals": {"kind": "batch", "n": 64}, "arrivals": {"kind": "bernoulli", "rate": 0.5, "n": 4}}`,
		// Extreme numbers.
		`{"arrivals": {"kind": "batch", "n": 9223372036854775807}}`,
		`{"arrivals": {"kind": "poisson", "rate": 1e308, "n": 1}}`,
		`{"seed": 18446744073709551615, "arrivals": {"kind": "batch", "n": 1}, "max_slots": -5}`,
		// LSB config keys as strict parsing spells them, and a config whose
		// access probability at WMin underflows to 0 (rejected, not a panic).
		`{"arrivals": {"kind": "batch", "n": 4}, "protocol": {"kind": "lsb", "config": {"C": 0.5, "WMin": 8, "LnPower": 3}}}`,
		`{"arrivals": {"kind": "batch", "n": 4}, "protocol": {"kind": "lsb", "config": {"C": 0.5, "WMin": 2.5, "LnPower": 10000}}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := lowsensing.ParseScenario(data)
		if err != nil {
			return // rejected is fine; panicking or accepting garbage is not
		}
		out, err := json.Marshal(sc)
		if err != nil {
			t.Fatalf("accepted scenario does not marshal: %v\ninput: %q", err, data)
		}
		if _, err := lowsensing.ParseScenario(out); err != nil {
			t.Fatalf("round trip rejected: %v\ninput: %q\nmarshaled: %s", err, data, out)
		}
	})
}
