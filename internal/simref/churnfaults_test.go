package simref

import (
	"testing"

	"lowsensing/internal/arrivals"
	"lowsensing/internal/churn"
	"lowsensing/internal/core"
	"lowsensing/internal/faults"
	"lowsensing/internal/protocols"
	"lowsensing/internal/sim"
)

// protocolBuilders is the protocol matrix the churn/fault differentials run
// over: the paper's algorithm plus the baselines whose schedules stress the
// abandon and crash paths differently (BEB's unbounded windows leave long
// gaps for leave slots to land in; Aloha's dense accesses maximize fault
// draws).
func protocolBuilders(t *testing.T) map[string]func() sim.StationFactory {
	return map[string]func() sim.StationFactory{
		"lsb": func() sim.StationFactory { return core.MustFactory(core.Default()) },
		"beb": func() sim.StationFactory {
			f, err := protocols.NewBEBFactory(2, 0)
			if err != nil {
				t.Fatal(err)
			}
			return f
		},
		"aloha": func() sim.StationFactory {
			f, err := protocols.NewAlohaFactory(1.0 / 8)
			if err != nil {
				t.Fatal(err)
			}
			return f
		},
	}
}

// TestDifferentialChurn pins the churn semantics — capped events, two-phase
// abandon-then-access slots, abandon-only busy-period closes — to the naive
// reference, per churn kind and protocol.
func TestDifferentialChurn(t *testing.T) {
	kinds := map[string]func() (sim.ArrivalSource, func(id, arrival int64) int64){
		"flash-crowd": func() (sim.ArrivalSource, func(id, arrival int64) int64) {
			c, err := churn.NewFlashCrowd(40, 12, 96)
			if err != nil {
				t.Fatal(err)
			}
			return arrivals.NewMerge(arrivals.NewBatch(8), c.Joins()), c.LeaveSlot
		},
		"epochs": func() (sim.ArrivalSource, func(id, arrival int64) int64) {
			c, err := churn.NewEpochs(64)
			if err != nil {
				t.Fatal(err)
			}
			src, err := arrivals.NewBernoulli(0.05, 30, 3)
			if err != nil {
				t.Fatal(err)
			}
			return src, c.LeaveSlot
		},
		"poisson-join-leave": func() (sim.ArrivalSource, func(id, arrival int64) int64) {
			c, err := churn.NewPoissonJoinLeave(0.08, 25, 0.02, 7)
			if err != nil {
				t.Fatal(err)
			}
			return arrivals.NewMerge(arrivals.NewBatch(6), c.Joins()), c.LeaveSlot
		},
	}
	for kindName, mkChurn := range kinds {
		for protoName, mkProto := range protocolBuilders(t) {
			mkChurn, mkProto := mkChurn, mkProto
			for seed := uint64(1); seed <= 3; seed++ {
				seed := seed
				diff(t, "churn/"+kindName+"/"+protoName, func() sim.Params {
					src, lifetime := mkChurn()
					return sim.Params{
						Seed:       seed,
						Arrivals:   src,
						NewStation: mkProto(),
						Lifetime:   lifetime,
						MaxSlots:   1 << 14,
					}
				})
			}
		}
	}
}

// TestDifferentialFaults pins the fault-injection semantics — the dedicated
// fault stream's draw order, listen-only corruption, cold crash restarts —
// to the naive reference, per fault kind and protocol, with recycling both
// off and on (a crash under recycling Resets the pooled station; the
// reference always reconstructs, so equality proves Reset ≡ fresh).
func TestDifferentialFaults(t *testing.T) {
	kinds := map[string]func() sim.FaultModel{
		"sensing": func() sim.FaultModel {
			m, err := faults.NewSensing(0.15, 0.1)
			if err != nil {
				t.Fatal(err)
			}
			return m
		},
		"crash": func() sim.FaultModel {
			m, err := faults.NewCrash(0.05, 8)
			if err != nil {
				t.Fatal(err)
			}
			return m
		},
		"flaky": func() sim.FaultModel {
			m, err := faults.NewFlaky(0.1, 0.1, 0.03, 4)
			if err != nil {
				t.Fatal(err)
			}
			return m
		},
	}
	for kindName, mkFault := range kinds {
		for protoName, mkProto := range protocolBuilders(t) {
			for _, reuse := range []bool{false, true} {
				mkFault, mkProto, reuse := mkFault, mkProto, reuse
				name := "faults/" + kindName + "/" + protoName
				if reuse {
					name += "/reuse"
				}
				diff(t, name, func() sim.Params {
					return sim.Params{
						Seed:          5,
						Arrivals:      arrivals.NewBatch(16),
						NewStation:    mkProto(),
						Faults:        mkFault(),
						ReuseStations: reuse,
						MaxSlots:      1 << 14,
					}
				})
			}
		}
	}
}

// TestDifferentialChurnFaultsJamming combines all three adversarial layers:
// population churn, flaky stations, and deterministic jamming.
func TestDifferentialChurnFaultsJamming(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		seed := seed
		diff(t, "churn+faults+jam", func() sim.Params {
			c, err := churn.NewPoissonJoinLeave(0.06, 20, 0.015, seed)
			if err != nil {
				t.Fatal(err)
			}
			m, err := faults.NewFlaky(0.1, 0.05, 0.02, 6)
			if err != nil {
				t.Fatal(err)
			}
			return sim.Params{
				Seed:       seed,
				Arrivals:   arrivals.NewMerge(arrivals.NewBatch(10), c.Joins()),
				NewStation: core.MustFactory(core.Default()),
				Jammer:     periodicJam{period: 31, burst: 3, phase: 1},
				Lifetime:   c.LeaveSlot,
				Faults:     m,
				MaxSlots:   1 << 14,
			}
		})
	}
}

// TestChurnConservation checks the churn accounting identity on the
// reference engine: every arrival is delivered, abandoned, or survives.
func TestChurnConservation(t *testing.T) {
	c, err := churn.NewPoissonJoinLeave(0.1, 40, 0.03, 11)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sim.Params{
		Seed:       11,
		Arrivals:   arrivals.NewMerge(arrivals.NewBatch(12), c.Joins()),
		NewStation: core.MustFactory(core.Default()),
		Lifetime:   c.LeaveSlot,
		MaxSlots:   1 << 14,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Abandoned == 0 {
		t.Fatal("churn injected no abandons; the test exercises nothing")
	}
	if got := res.Completed + res.Abandoned + res.Energy.Undelivered; got != res.Arrived {
		t.Fatalf("conservation violated: completed %d + abandoned %d + undelivered %d = %d, arrived %d",
			res.Completed, res.Abandoned, res.Energy.Undelivered, got, res.Arrived)
	}
	if res.Energy.Abandoned != res.Abandoned {
		t.Fatalf("energy abandoned %d != result abandoned %d", res.Energy.Abandoned, res.Abandoned)
	}
}
