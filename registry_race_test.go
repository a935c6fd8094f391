package lowsensing_test

import (
	"fmt"
	"sync"
	"testing"

	"lowsensing"
)

// TestRegistryConcurrentRegisterAndParse hammers the registries from three
// sides at once — registrations, spec resolution (ParseScenario and
// ParseSweepSpec), and kind listings — and is meant to run under -race
// (CI runs the full module with -race). Registration is documented as
// init-time, but the registries still must never corrupt under concurrent
// use: a late RegisterProtocol racing a ParseScenario is a support
// nightmare if it can corrupt the map instead of just being late.
func TestRegistryConcurrentRegisterAndParse(t *testing.T) {
	scenarioJSON := []byte(`{"arrivals": {"kind": "batch", "n": 8}, "protocol": {"kind": "beb"}}`)
	sweepJSON := []byte(`{
		"base": {"arrivals": {"kind": "batch", "n": 8}},
		"axes": [{"name": "p", "variants": [{"label": "lsb"}, {"label": "beb", "patch": {"protocol": {"kind": "beb"}}}]}]
	}`)

	t.Cleanup(func() {
		for i := 0; i < 8; i++ {
			lowsensing.UnregisterProtocol(fmt.Sprintf("race-proto-%d", i))
		}
	})

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		i := i
		wg.Add(4)
		go func() {
			defer wg.Done()
			lowsensing.RegisterProtocol(fmt.Sprintf("race-proto-%d", i), "race-test protocol", noopFactory)
		}()
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if _, err := lowsensing.ParseScenario(scenarioJSON); err != nil {
					t.Errorf("ParseScenario: %v", err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				ss, err := lowsensing.ParseSweepSpec(sweepJSON)
				if err != nil {
					t.Errorf("ParseSweepSpec: %v", err)
					return
				}
				if _, err := ss.Sweep(); err != nil {
					t.Errorf("Sweep: %v", err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				// Listings and unknown-kind enumeration walk the map while
				// registrations mutate it.
				lowsensing.ProtocolKinds()
				if _, err := (lowsensing.ProtocolSpec{Kind: "definitely-unknown"}).Factory(); err == nil {
					t.Error("unknown kind resolved")
					return
				}
			}
		}()
	}
	wg.Wait()

	// Every racing registration landed.
	names := kindNames(lowsensing.ProtocolKinds())
	for i := 0; i < 8; i++ {
		want := fmt.Sprintf("race-proto-%d", i)
		found := false
		for _, n := range names {
			if n == want {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("registration %q lost in the race", want)
		}
	}
}
