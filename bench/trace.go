package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sync"
	"time"

	"lowsensing"
	"lowsensing/channel"
	"lowsensing/internal/dist"
	"lowsensing/internal/sim"
	"lowsensing/prng"
)

// Tracing from outside the program. The traced run (-trace 1) records
// spans only here, around the bench's calls into each layer, and reaches
// the inner layers through wrappers: at init the bench registers a traced
// kind for every protocol, arrival process, jammer and router its
// workloads use, each delegating to the built-in of the same name, and the
// traced run rewrites its specs to name them (prepareSpec). Wrappers
// forward every optional interface the wrapped value has, so the engine
// makes the same recycling and batch decisions as untraced; only station
// dispatch changes, from the devirtualized to the interface path, and
// trace.overhead reports what that and the clock reads cost.
//
// Per-call counts and times accumulate on counters owned by each wrapped
// instance — one goroutine drives any instance, so counting needs no
// synchronization — and are summed onto the enclosing span when it ends.
// Every call is counted, but only a random one in sampleEvery is timed:
// reading the clock costs about as much as a station call, so timing
// every call would bury the layers under the tracer. A layer's time is
// its sampled time, less the clock's own share, scaled by calls/timed.

// layer names an inner layer the wrappers time.
type layer int

const (
	layerCore      layer = iota // internal/core: LOW-SENSING BACKOFF stations
	layerProtocols              // internal/protocols: the baseline stations
	layerArrivals               // internal/arrivals
	layerJamming                // internal/jamming
	layerCluster                // cluster routers
	numLayers
)

var layerNames = [numLayers]string{"core", "protocols", "arrivals", "jamming", "cluster"}

// layerCount is the calls into one layer and the time of those timed.
type layerCount struct {
	Layer string `json:"layer"`
	Calls int64  `json:"calls"`
	Timed int64  `json:"timed"`
	Ns    int64  `json:"timed_ns"`
	// Epochs counts the distinct arrival slots a router saw.
	Epochs int64 `json:"epochs,omitempty"`
}

func (lc *layerCount) add(o layerCount) {
	lc.Calls += o.Calls
	lc.Timed += o.Timed
	lc.Ns += o.Ns
	lc.Epochs += o.Epochs
}

// sampleEvery is the mean stride between timed calls.
const sampleEvery = 32

// counter accumulates one wrapped instance's calls.
type counter struct {
	layer  layer
	calls  int64
	timed  int64 // calls that were timed
	ns     int64 // time of the timed calls
	epochs int64
	last   int64  // router: the slot of the previous Route call
	rnd    uint64 // sampling state; an LCG whose top bits pick the timed calls
}

// start counts a call and, for a sampled one, returns the clock reading
// to pass to stop.
func (c *counter) start() (time.Time, bool) {
	c.calls++
	c.rnd = c.rnd*6364136223846793005 + 1442695040888963407
	if c.rnd>>59 != 0 { // 1 in 32
		return time.Time{}, false
	}
	return time.Now(), true //lsbvet:wallclock sampled per-call layer timing in the traced run only
}

func (c *counter) stop(t0 time.Time, timed bool) {
	if timed {
		c.ns += int64(time.Since(t0)) //lsbvet:wallclock sampled per-call layer timing in the traced run only
		c.timed++
	}
}

// probeSet holds the counters of every instance wrapped since the last
// drain. Instances are built on worker goroutines, hence the lock; it is
// taken once per instance, never per call.
type probeSet struct {
	mu       sync.Mutex
	counters []*counter
	made     uint64 // counters ever made; seeds each one's sampling
}

var probes probeSet

// register sets up c for layer l and collects it.
func (p *probeSet) register(c *counter, l layer) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.made++
	c.layer, c.last, c.rnd = l, -1, prng.Mix64(p.made)
	p.counters = append(p.counters, c)
}

// drain sums and forgets the collected counters. Call it only once the
// runs that drive them have returned.
func (p *probeSet) drain() [numLayers]layerCount {
	p.mu.Lock()
	cs := p.counters
	p.counters = nil
	p.mu.Unlock()
	var sums [numLayers]layerCount
	for i := range sums {
		sums[i].Layer = layerNames[i]
	}
	for _, c := range cs {
		sums[c.layer].add(layerCount{Calls: c.calls, Timed: c.timed, Ns: c.ns, Epochs: c.epochs})
	}
	return sums
}

// span is one traced interval, written as one NDJSON line. Times are
// nanoseconds since the traced process started measuring; parent 0 is the
// root.
type span struct {
	ID     int          `json:"id"`
	Parent int          `json:"parent"`
	Name   string       `json:"name"`
	Start  int64        `json:"start_ns"`
	End    int64        `json:"end_ns"`
	Layers []layerCount `json:"layers,omitempty"`
}

// tracer keeps a traced run's spans in memory. A nil *tracer is the
// untraced run: every method is a no-op, so instances call it freely.
type tracer struct {
	origin   time.Time
	spans    []span
	open     []int // indices of the spans begun and not yet ended
	attached int   // index of the span that receives layer counts, or -1
	// mark is the index of the first span of the timed passes; layers and
	// foldNs sum over the timed passes only.
	mark   int
	layers [numLayers]layerCount
	foldNs int64
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), attached: -1} //lsbvet:wallclock span timestamps in the traced run
}

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.origin)) //lsbvet:wallclock span timestamps in the traced run
}

// begin opens a span nested in the innermost open one and returns its
// index.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: t.now()})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

// end closes the innermost open span, i. If it is the attached span, the
// layer counts collected while it was open land on it.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].End = t.now()
	t.open = t.open[:len(t.open)-1]
	if i != t.attached {
		return
	}
	t.attached = -1
	sums := probes.drain()
	for l := range sums {
		t.layers[l].Layer = sums[l].Layer
		t.layers[l].add(sums[l])
		if sums[l].Calls > 0 {
			t.spans[i].Layers = append(t.spans[i].Layers, sums[l])
		}
	}
}

// attach makes span i the one that receives the layer counts of the
// instances built from now until it ends.
func (t *tracer) attach(i int) {
	if t == nil {
		return
	}
	probes.drain() // instances built while validating never run
	t.attached = i
}

// record adds a closed span under the span at index parent.
func (t *tracer) record(parent int, name string, start, end int64) {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: t.spans[parent].ID, Name: name, Start: start, End: end})
}

// fold adds the time since t0 to the sweep's callback time.
func (t *tracer) fold(t0 int64) {
	if t == nil {
		return
	}
	t.foldNs += t.now() - t0
}

// startTimed forgets the totals of the warm-up pass: from here on, the
// layer totals and the span statistics cover the timed passes.
func (t *tracer) startTimed() {
	if t == nil {
		return
	}
	t.mark = len(t.spans)
	t.layers = [numLayers]layerCount{}
	t.foldNs = 0
}

// timed returns the spans of the timed passes.
func (t *tracer) timed() []span { return t.spans[t.mark:] }

// dur returns the summed duration of the timed spans named name.
func (t *tracer) dur(name string) time.Duration {
	var d int64
	for _, s := range t.timed() {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return time.Duration(d)
}

// median returns the median duration, in seconds, of the timed spans named
// name (0 if there are none).
func (t *tracer) median(name string) float64 {
	var ds []float64
	for _, s := range t.timed() {
		if s.Name == name {
			ds = append(ds, float64(s.End-s.Start)/1e9)
		}
	}
	if len(ds) == 0 {
		return 0
	}
	slices.Sort(ds)
	return quantileSorted(ds, 0.5)
}

// writeSpans writes the spans as NDJSON to path.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- traced kinds ---

const tracedPrefix = "traced-"

func tracedKind(kind string) string { return tracedPrefix + kind }

func init() {
	lowsensing.RegisterProtocol("traced-lsb", "bench: lsb, timed per call", tracedProtocol(lowsensing.ProtocolLSB))
	lowsensing.RegisterProtocol("traced-beb", "bench: beb, timed per call", tracedProtocol(lowsensing.ProtocolBEB))
	lowsensing.RegisterProtocol("traced-sawtooth", "bench: sawtooth, timed per call", tracedProtocol(lowsensing.ProtocolSawtooth))
	lowsensing.RegisterProtocol("traced-mwu", "bench: mwu, timed per call", tracedProtocol(lowsensing.ProtocolMWU))
	lowsensing.RegisterArrivals("traced-batch", "bench: batch, timed per call", tracedArrivals(lowsensing.ArrivalsBatch))
	lowsensing.RegisterArrivals("traced-bernoulli", "bench: bernoulli, timed per call", tracedArrivals(lowsensing.ArrivalsBernoulli))
	lowsensing.RegisterArrivals("traced-poisson", "bench: poisson, timed per call", tracedArrivals(lowsensing.ArrivalsPoisson))
	lowsensing.RegisterArrivals("traced-aqt", "bench: aqt, timed per call", tracedArrivals(lowsensing.ArrivalsQueue))
	lowsensing.RegisterJammer("traced-random", "bench: random, timed per call", tracedJammer(lowsensing.JammerRandom))
	lowsensing.RegisterRouter("traced-leastbacklog", "bench: leastbacklog, timed per call", tracedRouter(lowsensing.RouterLeastBacklog))
}

func tracedProtocol(kind string) lowsensing.ProtocolFactory {
	l := layerProtocols
	if kind == lowsensing.ProtocolLSB {
		l = layerCore
	}
	return func(spec lowsensing.ProtocolSpec) (lowsensing.StationFactory, error) {
		spec.Kind = kind
		inner, err := spec.Factory()
		if err != nil {
			return nil, err
		}
		return func(id int64, rng *prng.Source) channel.Station {
			return wrapStation(inner(id, rng), l)
		}, nil
	}
}

func tracedArrivals(kind string) lowsensing.ArrivalsFactory {
	return func(spec lowsensing.ArrivalsSpec, seed uint64) (lowsensing.ArrivalSource, error) {
		spec.Kind = kind
		inner, err := spec.Source(seed)
		if err != nil {
			return nil, err
		}
		return wrapArrivals(inner), nil
	}
}

func tracedJammer(kind string) lowsensing.JammerFactory {
	return func(spec lowsensing.JammerSpec, seed uint64) (lowsensing.Jammer, error) {
		spec.Kind = kind
		inner, err := spec.Jammer(seed)
		if err != nil {
			return nil, err
		}
		return wrapJammer(inner)
	}
}

func tracedRouter(kind string) lowsensing.RouterFactory {
	return func(spec lowsensing.RouterSpec, seed uint64) (lowsensing.Router, error) {
		spec.Kind = kind
		inner, err := spec.Router(seed)
		if err != nil {
			return nil, err
		}
		r := &routerProbe{inner: inner}
		probes.register(&r.counter, layerCluster)
		return r, nil
	}
}

// --- wrappers ---
//
// Each wrapper embeds its counter, so wrapping a station costs one
// allocation. The variants exist because Go cannot add methods to a value
// conditionally: each carries exactly the optional interfaces of what it
// wraps.

type stationProbe struct {
	counter
	inner channel.Station
}

func (s *stationProbe) ScheduleNext(from int64, rng *prng.Source) (int64, bool) {
	t0, timed := s.start()
	slot, send := s.inner.ScheduleNext(from, rng)
	s.stop(t0, timed)
	return slot, send
}

func (s *stationProbe) Observe(o channel.Observation) {
	t0, timed := s.start()
	s.inner.Observe(o)
	s.stop(t0, timed)
}

type reusableProbe struct {
	stationProbe
	r channel.ReusableStation
}

func (s *reusableProbe) Reset(id int64, rng *prng.Source) {
	t0, timed := s.start()
	s.r.Reset(id, rng)
	s.stop(t0, timed)
}

type windowedProbe struct {
	stationProbe
	w channel.Windowed
}

func (s *windowedProbe) Window() float64 { return s.w.Window() }

type reusableWindowedProbe struct {
	reusableProbe
	w channel.Windowed
}

func (s *reusableWindowedProbe) Window() float64 { return s.w.Window() }

// wrapStation times st's calls as layer l.
func wrapStation(st channel.Station, l layer) channel.Station {
	base := stationProbe{inner: st}
	r, reusable := st.(channel.ReusableStation)
	w, windowed := st.(channel.Windowed)
	var (
		out channel.Station
		c   *counter
	)
	switch {
	case reusable && windowed:
		p := &reusableWindowedProbe{reusableProbe{base, r}, w}
		out, c = p, &p.counter
	case reusable:
		p := &reusableProbe{base, r}
		out, c = p, &p.counter
	case windowed:
		p := &windowedProbe{base, w}
		out, c = p, &p.counter
	default:
		p := &base
		out, c = p, &p.counter
	}
	probes.register(c, l)
	return out
}

type arrivalsProbe struct {
	counter
	inner channel.ArrivalSource
}

func (a *arrivalsProbe) Next() (int64, int64, bool) {
	t0, timed := a.start()
	slot, n, ok := a.inner.Next()
	a.stop(t0, timed)
	return slot, n, ok
}

type boundArrivalsProbe struct {
	arrivalsProbe
	b sim.EngineBound
}

func (a *boundArrivalsProbe) Bind(e *sim.Engine) { a.b.Bind(e) }

// wrapArrivals times src's calls.
func wrapArrivals(src channel.ArrivalSource) channel.ArrivalSource {
	base := arrivalsProbe{inner: src}
	if b, ok := src.(sim.EngineBound); ok {
		p := &boundArrivalsProbe{base, b}
		probes.register(&p.counter, layerArrivals)
		return p
	}
	p := &base
	probes.register(&p.counter, layerArrivals)
	return p
}

type jammerProbe struct {
	counter
	inner channel.Jammer
}

func (j *jammerProbe) Jammed(slot int64) bool {
	t0, timed := j.start()
	v := j.inner.Jammed(slot)
	j.stop(t0, timed)
	return v
}

func (j *jammerProbe) CountRange(from, to int64) int64 {
	t0, timed := j.start()
	n := j.inner.CountRange(from, to)
	j.stop(t0, timed)
	return n
}

type rangeJammerProbe struct {
	jammerProbe
	r channel.RangeJammer
}

func (j *rangeJammerProbe) NextJammedInRange(from, to int64) (int64, bool) {
	t0, timed := j.start()
	slot, ok := j.r.NextJammedInRange(from, to)
	j.stop(t0, timed)
	return slot, ok
}

type boundJammerProbe struct {
	jammerProbe
	b sim.EngineBound
}

func (j *boundJammerProbe) Bind(e *sim.Engine) { j.b.Bind(e) }

type rangeBoundJammerProbe struct {
	rangeJammerProbe
	b sim.EngineBound
}

func (j *rangeBoundJammerProbe) Bind(e *sim.Engine) { j.b.Bind(e) }

// wrapJammer times j's calls. A nil jammer (no jamming) stays nil.
// Reactive jammers are refused: the workloads use none.
func wrapJammer(j channel.Jammer) (channel.Jammer, error) {
	if j == nil {
		return nil, nil
	}
	if _, ok := j.(channel.ReactiveJammer); ok {
		return nil, fmt.Errorf("bench: tracing a reactive jammer is not supported")
	}
	base := jammerProbe{inner: j}
	r, ranged := j.(channel.RangeJammer)
	b, bound := j.(sim.EngineBound)
	var (
		out channel.Jammer
		c   *counter
	)
	switch {
	case ranged && bound:
		p := &rangeBoundJammerProbe{rangeJammerProbe{base, r}, b}
		out, c = p, &p.counter
	case ranged:
		p := &rangeJammerProbe{base, r}
		out, c = p, &p.counter
	case bound:
		p := &boundJammerProbe{base, b}
		out, c = p, &p.counter
	default:
		p := &base
		out, c = p, &p.counter
	}
	probes.register(c, layerJamming)
	return out, nil
}

// routerProbe times Route and counts the distinct arrival slots it sees;
// NeedsBacklog, part of the Router contract, is forwarded as is.
type routerProbe struct {
	counter
	inner lowsensing.Router
}

func (r *routerProbe) Route(id, slot int64, v lowsensing.RouterView) int {
	if slot != r.last {
		r.epochs++
		r.last = slot
	}
	t0, timed := r.start()
	ch := r.inner.Route(id, slot, v)
	r.stop(t0, timed)
	return ch
}

func (r *routerProbe) NeedsBacklog() bool { return r.inner.NeedsBacklog() }

// --- calibration ---

// calibrationSink keeps the calibration loops' results alive.
var calibrationSink uint64

// calibration is the cost of the samplers under the protocol arithmetic,
// and the part of the clock reads that falls inside a timed interval.
type calibration struct {
	prngNs, geometricNs, clockNs float64
}

// calibrate times each primitive in a tight loop and keeps the median of
// seven repetitions.
func calibrate() calibration {
	perCall := func(n int, loop func(n int) time.Duration) float64 {
		ns := make([]float64, 7)
		for i := range ns {
			ns[i] = float64(loop(n)) / float64(n)
		}
		slices.Sort(ns)
		return ns[len(ns)/2]
	}
	src := prng.New(1)
	return calibration{
		prngNs: perCall(1<<22, func(n int) time.Duration {
			var x uint64
			t0 := time.Now() //lsbvet:wallclock calibration loop timing
			for range n {
				x ^= src.Uint64()
			}
			d := time.Since(t0) //lsbvet:wallclock calibration loop timing
			calibrationSink ^= x
			return d
		}),
		geometricNs: perCall(1<<20, func(n int) time.Duration {
			var x int64
			t0 := time.Now() //lsbvet:wallclock calibration loop timing
			for range n {
				x += dist.Geometric(src, 1.0/64)
			}
			d := time.Since(t0) //lsbvet:wallclock calibration loop timing
			calibrationSink ^= uint64(x)
			return d
		}),
		clockNs: perCall(1<<20, func(n int) time.Duration {
			var d time.Duration
			for range n {
				t0 := time.Now()    //lsbvet:wallclock calibration of the timed-call overhead
				d += time.Since(t0) //lsbvet:wallclock calibration of the timed-call overhead
			}
			return d
		}),
	}
}
