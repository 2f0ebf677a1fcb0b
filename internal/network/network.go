// Package network models the paper's communication substrate: a reliable
// asynchronous point-to-point network in which every ordered pair of
// processes is connected by a unidirectional channel with its own timing
// behavior (§2.1), including the eventually timely channels of §4 that the
// ◇⟨t+1⟩bisource assumption is made of.
//
// A channel is *eventually timely* when there are a (unknown) time GST and
// bound δ such that a message sent at τ′ is delivered by max(GST, τ′)+δ.
// Asynchronous channels have finite but unbounded delays, chosen by a
// delay policy or overridden by a network adversary. The network never
// duplicates or corrupts messages, and senders are authenticated by
// construction (no impersonation), exactly as assumed by the paper. It
// never loses messages either — unless a scenario explicitly installs a
// Dropper adversary, the one deliberate deviation from the paper's model
// (omission episodes, used to exercise the snapshot state-transfer
// recovery path; see Dropper).
package network

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/types"
)

// Class is the timing class of a unidirectional channel.
type Class int

// Channel timing classes.
const (
	// Async channels have finite but unbounded message delays.
	Async Class = iota + 1
	// Timely channels respect the δ bound from time 0 (GST = 0).
	Timely
	// EventuallyTimely channels respect the δ bound from GST on; before
	// GST they behave like Async channels (clamped so that anything sent
	// before GST arrives by GST+δ, per the §4 definition).
	EventuallyTimely
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case Async:
		return "async"
	case Timely:
		return "timely"
	case EventuallyTimely:
		return "◇timely"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Link is the timing description of one unidirectional channel.
type Link struct {
	Class Class
	GST   types.Time     // first instant the δ bound holds (EventuallyTimely)
	Delta types.Duration // δ bound (Timely / EventuallyTimely)
}

// DelayPolicy draws the "natural" delay of a message on the asynchronous
// portion of a channel. Implementations must return finite, non-negative
// durations (the network is reliable: every message arrives eventually).
type DelayPolicy interface {
	Delay(from, to types.ProcID, at types.Time, rng *rand.Rand) types.Duration
}

// UniformDelay draws uniformly from [Min, Max].
type UniformDelay struct {
	Min, Max types.Duration
}

var _ DelayPolicy = UniformDelay{}

// Delay implements DelayPolicy.
func (u UniformDelay) Delay(_, _ types.ProcID, _ types.Time, rng *rand.Rand) types.Duration {
	if u.Max <= u.Min {
		return u.Min
	}
	return u.Min + types.Duration(rng.Int63n(int64(u.Max-u.Min)+1))
}

// FixedDelay always returns D.
type FixedDelay struct{ D types.Duration }

var _ DelayPolicy = FixedDelay{}

// Delay implements DelayPolicy.
func (f FixedDelay) Delay(_, _ types.ProcID, _ types.Time, _ *rand.Rand) types.Duration {
	return f.D
}

// DelayFunc adapts a function to DelayPolicy.
type DelayFunc func(from, to types.ProcID, at types.Time, rng *rand.Rand) types.Duration

var _ DelayPolicy = DelayFunc(nil)

// Delay implements DelayPolicy.
func (f DelayFunc) Delay(from, to types.ProcID, at types.Time, rng *rand.Rand) types.Duration {
	return f(from, to, at, rng)
}

// Band is one delay class of a LinkClassDelay policy.
type Band struct {
	Min, Max types.Duration
}

// LinkClassDelay gives every ordered channel its own delay class: each
// link is deterministically assigned one of Bands (hashed from Seed and
// the link endpoints, independent of the scheduler's rng), and draws its
// per-message delay uniformly from that band. BurstProb adds an
// occasional BurstDelay spike on any link, modeling transient congestion.
// The same Seed always yields the same class assignment, so runs stay
// reproducible; on (eventually) timely channels the network still clamps
// every draw to the δ bound.
type LinkClassDelay struct {
	Seed       int64
	Bands      []Band
	BurstProb  float64
	BurstDelay types.Duration
}

var _ DelayPolicy = LinkClassDelay{}

// DefaultBands is the stock fast/mid/slow class set.
var DefaultBands = []Band{
	{Min: types.Duration(1 * time.Millisecond), Max: types.Duration(3 * time.Millisecond)},
	{Min: types.Duration(5 * time.Millisecond), Max: types.Duration(15 * time.Millisecond)},
	{Min: types.Duration(20 * time.Millisecond), Max: types.Duration(60 * time.Millisecond)},
}

// Class returns the band index assigned to the channel from → to.
func (l LinkClassDelay) Class(from, to types.ProcID) int {
	bands := l.Bands
	if len(bands) == 0 {
		bands = DefaultBands
	}
	// FNV-1a over (seed, from, to): stable across runs and platforms.
	h := uint64(14695981039346656037)
	for _, x := range []uint64{uint64(l.Seed), uint64(from), uint64(to)} {
		for i := 0; i < 8; i++ {
			h ^= (x >> (8 * i)) & 0xff
			h *= 1099511628211
		}
	}
	return int(h % uint64(len(bands)))
}

// Delay implements DelayPolicy.
func (l LinkClassDelay) Delay(from, to types.ProcID, _ types.Time, rng *rand.Rand) types.Duration {
	bands := l.Bands
	if len(bands) == 0 {
		bands = DefaultBands
	}
	b := bands[l.Class(from, to)]
	d := b.Min
	if b.Max > b.Min {
		d += types.Duration(rng.Int63n(int64(b.Max-b.Min) + 1))
	}
	if l.BurstProb > 0 && rng.Float64() < l.BurstProb {
		d += l.BurstDelay
	}
	return d
}

// Adversary lets an experiment override the delay of individual messages on
// the asynchronous portion of channels. Returning (0, false) keeps the
// policy delay; returning (d, true) uses d. Timeliness bounds are enforced
// by the network *after* the adversary, so an adversary can never violate
// the model: on a (eventually) timely channel its choice is clamped to
// max(GST, send)+δ.
type Adversary interface {
	MessageDelay(from, to types.ProcID, at types.Time, payload any) (types.Duration, bool)
}

// Dropper is an optional Adversary extension that models OMISSION
// episodes: a message it claims is lost outright — no delivery event is
// ever scheduled. This deliberately steps outside the paper's
// reliable-channel model (§2.1 channels never lose messages), because
// the deployed transport does: TCP frames sent to a crashed or
// disconnected replica are gone for good, and the snapshot state-transfer
// subsystem exists precisely to recover from that. Drops are applied
// BEFORE the timeliness clamp — a severed channel loses even "timely"
// traffic for the duration of the episode — so scenarios that use a
// Dropper own the liveness consequences; safety of the quorum-based
// layers is unaffected (missing messages can only slow a process down,
// never fork it).
type Dropper interface {
	DropMessage(from, to types.ProcID, at types.Time, payload any) bool
}

// Topology is the full n×n channel matrix. Self-channels (i→i) are always
// timely with zero delay, matching the paper's "virtual input/output
// channel from itself to itself, which is always timely".
type Topology struct {
	n int
	// links is the matrix row by row: links[(from-1)·n + to-1].
	links []Link
}

// NewTopology creates a topology of n processes where every channel
// between two distinct processes is the given link.
func NewTopology(n int, def Link) *Topology {
	tp := &Topology{n: n, links: make([]Link, n*n)}
	for i := range tp.links {
		tp.links[i] = def
	}
	for p := 0; p < n; p++ {
		tp.links[p*n+p] = Link{Class: Timely, Delta: 0}
	}
	return tp
}

// N returns the number of processes.
func (tp *Topology) N() int { return tp.n }

// at is the index of the channel from → to; both must be in 1..n.
func (tp *Topology) at(from, to types.ProcID) int {
	if uint(from-1) >= uint(tp.n) || uint(to-1) >= uint(tp.n) {
		panic(fmt.Sprintf("network: channel %v→%v outside 1..%d", from, to, tp.n))
	}
	return int(from-1)*tp.n + int(to-1)
}

// SetLink overrides the channel from → to. A self-channel stays timely
// with zero delay.
func (tp *Topology) SetLink(from, to types.ProcID, l Link) {
	i := tp.at(from, to)
	if from != to {
		tp.links[i] = l
	}
}

// LinkOf returns the channel description for from → to.
func (tp *Topology) LinkOf(from, to types.ProcID) Link {
	return tp.links[tp.at(from, to)]
}

// TimelyIn returns the set of processes with (eventually) timely channels
// INTO p, including p itself (ground truth used by tests/experiments to
// reason about ◇⟨k⟩sink status).
func (tp *Topology) TimelyIn(p types.ProcID) types.ProcSet {
	s := types.NewProcSet(p)
	for q := types.ProcID(1); int(q) <= tp.n; q++ {
		if q == p {
			continue
		}
		if c := tp.LinkOf(q, p).Class; c == Timely || c == EventuallyTimely {
			s.Add(q)
		}
	}
	return s
}

// TimelyOut returns the set of processes with (eventually) timely channels
// FROM p, including p itself (◇⟨k⟩source ground truth).
func (tp *Topology) TimelyOut(p types.ProcID) types.ProcSet {
	s := types.NewProcSet(p)
	for q := types.ProcID(1); int(q) <= tp.n; q++ {
		if q == p {
			continue
		}
		if c := tp.LinkOf(p, q).Class; c == Timely || c == EventuallyTimely {
			s.Add(q)
		}
	}
	return s
}

// --- Topology builders -----------------------------------------------------

// FullySynchronous builds a topology where every channel is timely with
// bound δ from time 0.
func FullySynchronous(n int, delta types.Duration) *Topology {
	return NewTopology(n, Link{Class: Timely, Delta: delta})
}

// FullyAsynchronous builds a topology where every channel is asynchronous.
func FullyAsynchronous(n int) *Topology {
	return NewTopology(n, Link{Class: Async})
}

// EventuallySynchronous builds a topology where every channel becomes
// timely at gst with bound δ (the classic partial-synchrony model — much
// stronger than what the paper's algorithm needs).
func EventuallySynchronous(n int, gst types.Time, delta types.Duration) *Topology {
	return NewTopology(n, Link{Class: EventuallyTimely, GST: gst, Delta: delta})
}

// BisourceSpec describes a planted ◇⟨x⟩bisource for PlantBisource.
type BisourceSpec struct {
	// P is the bisource process (must be correct in the experiment).
	P types.ProcID
	// In are processes with timely channels TO P (besides P itself);
	// for a ⟨t+1⟩bisource provide t correct processes.
	In []types.ProcID
	// Out are processes with timely channels FROM P (besides P itself).
	// In and Out may differ — the paper stresses they need not coincide.
	Out []types.ProcID
	// GST is when the timely bounds start to hold (0 = from the start,
	// turning ◇⟨x⟩bisource into ⟨x⟩bisource as in §5.4's analysis).
	GST types.Time
	// Delta is the δ bound of the timely channels.
	Delta types.Duration
}

// PlantBisource builds the minimal-synchrony topology: every channel is
// asynchronous except the 2·x channels making P a ◇⟨x+1⟩bisource
// (x = len(In) = len(Out) typically t). This is exactly the weakest
// environment in which the paper claims consensus is solvable.
func PlantBisource(n int, spec BisourceSpec) *Topology {
	tp := FullyAsynchronous(n)
	l := Link{Class: EventuallyTimely, GST: spec.GST, Delta: spec.Delta}
	if spec.GST == 0 {
		l = Link{Class: Timely, Delta: spec.Delta}
	}
	for _, q := range spec.In {
		tp.SetLink(q, spec.P, l)
	}
	for _, q := range spec.Out {
		tp.SetLink(spec.P, q, l)
	}
	return tp
}

// --- Network ----------------------------------------------------------------

// Receiver consumes delivered messages. The network invokes it once per
// message at the delivery instant, on the simulation goroutine.
type Receiver func(to, from types.ProcID, payload any)

// Config configures a Network.
type Config struct {
	Topology *Topology
	Policy   DelayPolicy // delay of async portions; nil = UniformDelay{1ms, 20ms}
	Adv      Adversary   // optional per-message delay override
	// FIFO forces per-channel in-order delivery (like TCP). The abstract
	// model does not require it; default false.
	FIFO bool
	// Trace receives KindSend/KindDeliver events; nil records nothing.
	Trace *trace.Log
}

// Network schedules message deliveries on a sim.Scheduler according to the
// topology's timing model. It is the single place where the synchrony
// assumptions of the paper are enforced.
//
// Delivery rides the scheduler's typed deliver-message event: Send costs no
// closure and no heap node.
type Network struct {
	cfg     Config
	sched   *sim.Scheduler
	recv    Receiver
	drop    Dropper                        // cfg.Adv's Dropper side, resolved once (nil = none)
	lastArr map[[2]types.ProcID]types.Time // FIFO watermark
	sent    uint64
	dropped uint64 // messages lost to a Dropper adversary
}

// New creates a network over the scheduler. recv must not be nil. The
// network installs itself as the scheduler's deliver hook.
func New(sched *sim.Scheduler, cfg Config, recv Receiver) (*Network, error) {
	if cfg.Topology == nil {
		return nil, fmt.Errorf("network: nil topology")
	}
	if recv == nil {
		return nil, fmt.Errorf("network: nil receiver")
	}
	if cfg.Policy == nil {
		cfg.Policy = UniformDelay{Min: types.Duration(1 * time.Millisecond), Max: types.Duration(20 * time.Millisecond)}
	}
	nw := &Network{
		cfg:     cfg,
		sched:   sched,
		recv:    recv,
		lastArr: make(map[[2]types.ProcID]types.Time),
	}
	// Resolve the adversary's Dropper side once: Send is the hot path and
	// must not pay a dynamic interface assertion per message.
	if dr, ok := cfg.Adv.(Dropper); ok {
		nw.drop = dr
	}
	sched.SetDeliver(nw.deliver)
	return nw, nil
}

// deliver is the scheduler's deliver-message hook.
func (nw *Network) deliver(from, to types.ProcID, payload any) {
	nw.cfg.Trace.Emit(trace.Event{At: nw.sched.Now(), Kind: trace.KindDeliver, Proc: to, Peer: from})
	nw.recv(to, from, payload)
}

// Sent returns the number of point-to-point messages sent so far
// (dropped ones included: the sender did send them).
func (nw *Network) Sent() uint64 { return nw.sent }

// Dropped returns the number of messages a Dropper adversary destroyed.
func (nw *Network) Dropped() uint64 { return nw.dropped }

// Send schedules the delivery of payload on the channel from → to,
// applying the channel's timing class:
//
//	async:    delay = policy/adversary choice (finite)
//	timely:   delivery ≤ send + δ
//	◇timely:  delivery ≤ max(GST, send) + δ, async before that clamp
func (nw *Network) Send(from, to types.ProcID, payload any) {
	now := nw.sched.Now()
	link := nw.cfg.Topology.LinkOf(from, to)

	// 0. Omission episodes (see Dropper): the message is counted and
	// traced as sent, then destroyed. Self-channels are exempt — the
	// paper's virtual self-channel cannot fail.
	if nw.drop != nil && from != to && nw.drop.DropMessage(from, to, now, payload) {
		nw.sent++
		nw.dropped++
		nw.cfg.Trace.Emit(trace.Event{At: now, Kind: trace.KindSend, Proc: from, Peer: to})
		return
	}

	// 1. Natural/adversarial delay proposal.
	var d types.Duration
	if nw.cfg.Adv != nil {
		if ad, ok := nw.cfg.Adv.MessageDelay(from, to, now, payload); ok {
			d = ad
		} else {
			d = nw.cfg.Policy.Delay(from, to, now, nw.sched.Rand())
		}
	} else {
		d = nw.cfg.Policy.Delay(from, to, now, nw.sched.Rand())
	}
	if d < 0 {
		d = 0
	}
	arrival := now.Add(d)

	// 2. Enforce the timeliness bound of the link class. The adversary can
	// slow async channels arbitrarily but can never break a timely bound.
	switch link.Class {
	case Timely:
		if bound := now.Add(link.Delta); arrival > bound {
			arrival = bound
		}
	case EventuallyTimely:
		base := now
		if link.GST > base {
			base = link.GST
		}
		if bound := base.Add(link.Delta); arrival > bound {
			arrival = bound
		}
	case Async:
		// no bound
	}
	if from == to {
		arrival = now // self channel: instantaneous
	}

	// 3. Optional per-channel FIFO.
	if nw.cfg.FIFO {
		key := [2]types.ProcID{from, to}
		if last := nw.lastArr[key]; arrival < last {
			arrival = last
		}
		nw.lastArr[key] = arrival
	}

	nw.sent++
	nw.cfg.Trace.Emit(trace.Event{At: now, Kind: trace.KindSend, Proc: from, Peer: to})
	nw.sched.ScheduleDeliver(arrival, from, to, payload)
}
