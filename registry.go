package lowsensing

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// This file implements the kind registries that make the declarative layer
// open-world: every protocol, arrival-process, jammer, cluster-router,
// churn, and fault-model kind that ParseScenario, ParseSweepSpec, and the
// CLIs can resolve — built-in or user-defined — goes through the same
// registries (the churn and fault registries live in robustness.go). The
// built-ins self-register in builtins.go; user components register from an
// init function (or any point before the kind is first parsed) and are
// indistinguishable from built-ins afterwards.
//
// Registry semantics:
//
//   - Registration is expected at init time. It is safe at any time from
//     any goroutine, but a kind must be registered before the first spec
//     naming it is resolved.
//   - Kinds are case-sensitive, non-empty strings; by convention short,
//     lowercase identifiers ("lsb", "gilbert_elliott").
//   - Registering an already-registered kind panics: silently replacing a
//     factory would change what existing spec files mean.
//   - The doc string is surfaced by the Kinds listings and the CLIs'
//     -kinds flag; one line, sentence case.

// ProtocolFactory builds the per-packet station factory a ProtocolSpec
// describes. It is called once per run with the full spec; implementations
// read their parameters from the spec's dedicated fields or, for registered
// (non-built-in) kinds, from Spec.Params, and should return a descriptive
// error for invalid parameters. The returned StationFactory must draw all
// randomness from the rng it is handed (see channel.Station).
type ProtocolFactory func(spec ProtocolSpec) (StationFactory, error)

// ArrivalsFactory builds the arrival source an ArrivalsSpec describes,
// seeded for one run. Sources are single-use: the factory is called fresh
// for every run, so returning a stateful source is correct.
type ArrivalsFactory func(spec ArrivalsSpec, seed uint64) (ArrivalSource, error)

// JammerFactory builds the jammer a JammerSpec describes, seeded for one
// run. Jammers are single-use (budgets are spent as they run); the factory
// is called fresh for every run.
type JammerFactory func(spec JammerSpec, seed uint64) (Jammer, error)

// RouterFactory builds the cluster router a RouterSpec describes, seeded
// for one run. Routers are single-use (their state — counters, rng streams
// — advances as packets are routed); the factory is called fresh for every
// run.
type RouterFactory func(spec RouterSpec, seed uint64) (Router, error)

// KindDoc is one registered kind with its registration doc string.
type KindDoc struct {
	Kind string
	Doc  string
}

// registry is the common map-with-lock behind the three kind registries.
// F is one of the factory function types above.
type registry[F any] struct {
	what    string // "protocol", "arrival", "jammer", "router", "churn", "fault"; used in messages
	mu      sync.RWMutex
	entries map[string]regEntry[F]
}

type regEntry[F any] struct {
	doc     string
	factory F
}

func (r *registry[F]) register(kind, doc string, factory F, nilFactory bool) {
	if kind == "" {
		panic(fmt.Sprintf("lowsensing: registering %s kind with empty name", r.what))
	}
	if nilFactory {
		panic(fmt.Sprintf("lowsensing: registering %s kind %q with nil factory", r.what, kind))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.entries[kind]; dup {
		panic(fmt.Sprintf("lowsensing: %s kind %q registered twice", r.what, kind))
	}
	if r.entries == nil {
		r.entries = make(map[string]regEntry[F])
	}
	r.entries[kind] = regEntry[F]{doc: doc, factory: factory}
}

// lookup resolves a kind, or returns an error enumerating every registered
// kind (sorted) so a typo'd spec file tells the user what is available.
func (r *registry[F]) lookup(kind string) (F, error) {
	r.mu.RLock()
	e, ok := r.entries[kind]
	r.mu.RUnlock()
	if !ok {
		var zero F
		all := r.kinds()
		kinds := make([]string, len(all))
		for i, kd := range all {
			kinds[i] = kd.Kind
		}
		return zero, fmt.Errorf("lowsensing: unknown %s kind %q (registered kinds: %s)",
			r.what, kind, strings.Join(kinds, ", "))
	}
	return e.factory, nil
}

// kinds returns every registered kind with its doc, sorted by kind.
func (r *registry[F]) kinds() []KindDoc {
	r.mu.RLock()
	out := make([]KindDoc, 0, len(r.entries))
	for k, e := range r.entries {
		out = append(out, KindDoc{Kind: k, Doc: e.doc})
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Kind < out[j].Kind })
	return out
}

var (
	protocolRegistry = &registry[ProtocolFactory]{what: "protocol"}
	arrivalsRegistry = &registry[ArrivalsFactory]{what: "arrival"}
	jammerRegistry   = &registry[JammerFactory]{what: "jammer"}
	routerRegistry   = &registry[RouterFactory]{what: "router"}
)

// RegisterProtocol makes a protocol kind resolvable everywhere specs are:
// Scenario.Protocol, ParseScenario, ParseSweepSpec (sweep axes included),
// and the CLIs. Register from an init function; registering a duplicate kind,
// an empty kind, or a nil factory panics. The doc string (one line) is
// shown by ProtocolKinds and the CLIs' -kinds listing.
//
// Factories should give their parameters usable defaults when the spec
// carries none, so that a bare {"kind": "..."} spec runs; kinds whose bare
// spec is constructible are automatically covered by the module's
// cross-protocol invariant tests.
//
// Runs whose protocol comes from a registered kind recycle station objects
// that implement channel.ReusableStation. A kind's station factory is
// built from pure spec data, so its stations are expected to be
// identically configured per packet; if yours are not, have them not
// implement ReusableStation (see its contract).
func RegisterProtocol(kind, doc string, factory ProtocolFactory) {
	protocolRegistry.register(kind, doc, factory, factory == nil)
}

// RegisterArrivals makes an arrival-process kind resolvable from specs,
// exactly like RegisterProtocol does for protocols.
func RegisterArrivals(kind, doc string, factory ArrivalsFactory) {
	arrivalsRegistry.register(kind, doc, factory, factory == nil)
}

// RegisterJammer makes a jammer kind resolvable from specs, exactly like
// RegisterProtocol does for protocols.
func RegisterJammer(kind, doc string, factory JammerFactory) {
	jammerRegistry.register(kind, doc, factory, factory == nil)
}

// RegisterRouter makes a cluster-router kind resolvable from specs (a
// Scenario's "router" field, in spec files, sweep bases and axis patches
// alike), exactly like RegisterProtocol does for protocols.
func RegisterRouter(kind, doc string, factory RouterFactory) {
	routerRegistry.register(kind, doc, factory, factory == nil)
}

// ProtocolKinds returns every registered protocol kind with its doc string,
// sorted by kind.
func ProtocolKinds() []KindDoc { return protocolRegistry.kinds() }

// ArrivalKinds returns every registered arrival-process kind with its doc
// string, sorted by kind.
func ArrivalKinds() []KindDoc { return arrivalsRegistry.kinds() }

// JammerKinds returns every registered jammer kind with its doc string,
// sorted by kind.
func JammerKinds() []KindDoc { return jammerRegistry.kinds() }

// RouterKinds returns every registered cluster-router kind with its doc
// string, sorted by kind.
func RouterKinds() []KindDoc { return routerRegistry.kinds() }

// WriteKinds writes the full registry listing — every protocol, arrival,
// jammer, router, churn, and fault kind with its registration doc, sorted,
// one section per registry — to w. The CLIs' -kinds flags print exactly
// this, so a kind registered by an importing package shows up
// automatically.
func WriteKinds(w io.Writer) error {
	sections := []struct {
		title string
		kinds []KindDoc
	}{
		{"protocols", ProtocolKinds()},
		{"arrivals", ArrivalKinds()},
		{"jammers", JammerKinds()},
		{"routers", RouterKinds()},
		{"churn", ChurnKinds()},
		{"faults", FaultKinds()},
	}
	for i, s := range sections {
		if i > 0 {
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s:\n", s.title); err != nil {
			return err
		}
		for _, kd := range s.kinds {
			if _, err := fmt.Fprintf(w, "  %-16s %s\n", kd.Kind, kd.Doc); err != nil {
				return err
			}
		}
	}
	return nil
}
