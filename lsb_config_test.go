package lowsensing_test

import (
	"math"
	"strings"
	"testing"

	"lowsensing"
)

// TestLSBConfigUnderflowRejected: an LSB config whose access probability at
// WMin underflows to 0 (WMin < e with a huge k) used to pass validation and
// then panic inside the first geometric draw. It must fail ParseScenario,
// Validate and Run with an error naming the underflow.
func TestLSBConfigUnderflowRejected(t *testing.T) {
	_, err := lowsensing.ParseScenario([]byte(`{"arrivals":{"kind":"batch","n":4},"protocol":{"kind":"lsb","config":{"C":0.5,"WMin":2.5,"LnPower":10000}}}`))
	if err == nil || !strings.Contains(err.Error(), "underflow") {
		t.Fatalf("ParseScenario = %v, want an underflow error", err)
	}
	sc := lowsensing.Scenario{
		Arrivals: lowsensing.BatchArrivals(4),
		Protocol: lowsensing.LowSensing(lowsensing.Config{C: 0.5, WMin: 2.5, LnPower: math.Inf(1)}),
	}
	if err := sc.Validate(); err == nil || !strings.Contains(err.Error(), "underflow") {
		t.Fatalf("Validate = %v, want an underflow error", err)
	}
	if _, err := sc.Run(); err == nil {
		t.Fatal("Run accepted an underflowing config")
	}
}
