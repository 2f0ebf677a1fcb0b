// Package adversary is the attack library: Byzantine process behaviors and
// network-scheduling adversaries used by tests, benchmarks and the
// scenario engine to exercise the fault model of the paper (§2.1). A
// Byzantine process "behaves arbitrarily": it may crash, stay mute, send
// conflicting values to different processes, push values nobody proposed,
// spam duplicates, or run the correct protocol with selective deviations.
//
// Structured attackers are built by running a genuine consensus engine
// behind an intercepting Env that mutates, drops or equivocates outgoing
// messages — this keeps them protocol-shaped (hard to filter) while
// deviating exactly where the attack wants.
package adversary

import (
	"crypto/sha256"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/network"
	"repro/internal/proto"
	"repro/internal/rb"
	"repro/internal/trace"
	"repro/internal/types"
)

// Silent returns a crash-from-start behavior: it receives and ignores
// everything and never sends.
func Silent() harness.Behavior {
	return func(env proto.Env) proto.Handler {
		return proto.HandlerFunc(func(types.ProcID, proto.Message) {})
	}
}

// RBRelayOnly participates correctly in reliable-broadcast relaying
// (echo/ready) but plays no other protocol role — a mute process that does
// not slow RB down.
func RBRelayOnly() harness.Behavior {
	return func(env proto.Env) proto.Handler {
		layer := rb.New(env, func(types.ProcID, proto.Tag, types.Value) {})
		return proto.HandlerFunc(func(from types.ProcID, m proto.Message) {
			layer.OnMessage(from, m)
		})
	}
}

// interceptor wraps an Env and rewrites outgoing traffic per receiver.
type interceptor struct {
	proto.Env
	// mutate returns the message to send to `to`, or false to drop it.
	mutate func(to types.ProcID, m proto.Message) (proto.Message, bool)
}

var _ proto.Env = (*interceptor)(nil)

func (i *interceptor) Send(to types.ProcID, m proto.Message) {
	if mm, ok := i.mutate(to, m); ok {
		i.Env.Send(to, mm)
	}
}

// Broadcast re-routes through Send so per-receiver equivocation applies.
func (i *interceptor) Broadcast(m proto.Message) {
	for _, p := range i.Env.Params().AllProcs() {
		i.Send(p, m)
	}
}

// engineWith runs a correct engine (proposing v) behind a mutating Env.
func engineWith(cfg core.Config, v types.Value, mutate func(env proto.Env, to types.ProcID, m proto.Message) (proto.Message, bool)) harness.Behavior {
	return func(env proto.Env) proto.Handler {
		ienv := &interceptor{Env: env}
		ienv.mutate = func(to types.ProcID, m proto.Message) (proto.Message, bool) {
			return mutate(env, to, m)
		}
		c := cfg
		c.Env = ienv
		c.OnDecide = nil
		eng, err := core.New(c)
		if err != nil {
			// Adversary configs mirror the correct ones, so this is a
			// harness bug; fail loudly.
			panic("adversary: engine config: " + err.Error())
		}
		env.SetTimer(0, func() {
			if err := eng.Propose(v); err != nil {
				panic("adversary: propose: " + err.Error())
			}
		})
		return eng
	}
}

// note emits a KindByzAction trace event (attack forensics).
func note(env proto.Env, aux string, v types.Value) {
	env.Trace().Emit(trace.Event{
		At: env.Now(), Kind: trace.KindByzAction, Proc: env.ID(), Value: v, Aux: aux,
	})
}

// CrashAt runs the correct protocol proposing v, then fails by omission at
// time d: every later outgoing message is dropped (receiving continues,
// modeling a crashed process whose inbox drains into the void).
func CrashAt(cfg core.Config, v types.Value, d types.Duration) harness.Behavior {
	return engineWith(cfg, v, func(env proto.Env, to types.ProcID, m proto.Message) (proto.Message, bool) {
		if env.Now() >= types.Time(0).Add(d) {
			return m, false
		}
		return m, true
	})
}

// Equivocator runs the protocol proposing vals[0] but splits the value
// space per receiver on every value-carrying message: receivers with odd
// IDs see vals[0], even IDs see vals[1]. This equivocates CB_VAL /
// AC_EST RB-INITs (which Bracha RB neutralizes) and EA_PROP2 / EA_COORD /
// DECIDE plain messages (which it cannot).
func Equivocator(cfg core.Config, vals [2]types.Value) harness.Behavior {
	return engineWith(cfg, vals[0], func(env proto.Env, to types.ProcID, m proto.Message) (proto.Message, bool) {
		switch m.Kind {
		case proto.MsgRBInit, proto.MsgEAProp2, proto.MsgEACoord, proto.MsgDecide:
			if m.Origin != types.NoProc && m.Origin != env.ID() {
				return m, true // relaying someone else's RB: leave intact
			}
			mm := m
			mm.Val = vals[int(to)%2]
			if mm.Val != m.Val {
				note(env, "equivocate:"+m.Kind.String(), mm.Val)
			}
			return mm, true
		}
		return m, true
	})
}

// MuteCoordinator runs the correct protocol proposing v but never sends
// EA_COORD: in rounds it coordinates, correct processes must fall back to
// their timers (exercises the EA timeout path and the rotation argument).
func MuteCoordinator(cfg core.Config, v types.Value) harness.Behavior {
	return engineWith(cfg, v, func(env proto.Env, to types.ProcID, m proto.Message) (proto.Message, bool) {
		if m.Kind == proto.MsgEACoord {
			note(env, "mute-coord", m.Val)
			return m, false
		}
		return m, true
	})
}

// PoisonCoordinator runs the correct protocol proposing v, but whenever it
// should send EA_COORD it champions the poison value instead — and it
// also pushes poison through its own CB_VAL streams, trying to get an
// unproposed value decided (it cannot: poison never reaches t+1 correct
// supporters).
func PoisonCoordinator(cfg core.Config, v, poison types.Value) harness.Behavior {
	return engineWith(cfg, v, func(env proto.Env, to types.ProcID, m proto.Message) (proto.Message, bool) {
		switch m.Kind {
		case proto.MsgEACoord:
			mm := m
			mm.Val = poison
			note(env, "poison-coord", poison)
			return mm, true
		case proto.MsgRBInit:
			if m.Origin == env.ID() && (m.Tag.Mod == proto.ModConsCB0 || m.Tag.Mod == proto.ModACCB || m.Tag.Mod == proto.ModEACB) {
				mm := m
				mm.Val = poison
				return mm, true
			}
		}
		return m, true
	})
}

// RandomlyByzantine runs the correct protocol proposing v with seeded
// random deviations: each outgoing message is dropped with probability
// pDrop, value-flipped to a random member of values with probability
// pFlip, otherwise passed through. Distinct receivers draw independently,
// so flips equivocate.
func RandomlyByzantine(cfg core.Config, v types.Value, values []types.Value, seed int64, pDrop, pFlip float64) harness.Behavior {
	rng := rand.New(rand.NewSource(seed))
	return engineWith(cfg, v, func(env proto.Env, to types.ProcID, m proto.Message) (proto.Message, bool) {
		switch m.Kind {
		case proto.MsgRBEcho, proto.MsgRBReady:
			// Keep RB relaying honest-ish so its own instances complete;
			// dropping relays only slows things (covered by pDrop on the
			// remaining kinds anyway).
			return m, true
		}
		r := rng.Float64()
		if r < pDrop {
			return m, false
		}
		if r < pDrop+pFlip && len(values) > 0 && m.Kind != proto.MsgEARelay {
			mm := m
			mm.Val = values[rng.Intn(len(values))]
			return mm, true
		}
		return m, true
	})
}

// SpamStreams floods every process with conflicting RB-INITs and duplicate
// EA and DECIDE messages carrying value w on rounds 1..rounds — a pure
// noise attacker testing the first-message rule and the CB validity
// filters.
func SpamStreams(w types.Value, rounds types.Round) harness.Behavior {
	return func(env proto.Env) proto.Handler {
		layer := rb.New(env, func(types.ProcID, proto.Tag, types.Value) {})
		env.SetTimer(0, func() {
			note(env, "spam", w)
			layer.Broadcast(proto.Tag{Mod: proto.ModConsCB0}, w)
			for r := types.Round(1); r <= rounds; r++ {
				for _, mod := range []proto.Module{proto.ModEACB, proto.ModACCB, proto.ModACEst} {
					layer.Broadcast(proto.Tag{Mod: mod, Round: r}, w)
				}
				eaTag := proto.Tag{Mod: proto.ModEA, Round: r}
				for i := 0; i < 3; i++ { // duplicates: the dedup rule eats 2/3
					env.Broadcast(proto.Message{Kind: proto.MsgEAProp2, Tag: eaTag, Val: w})
					env.Broadcast(proto.Message{Kind: proto.MsgEACoord, Tag: eaTag, Val: w})
					env.Broadcast(proto.Message{Kind: proto.MsgEARelay, Tag: eaTag, Opt: types.Some(w)})
				}
			}
			for i := 0; i < 3; i++ {
				env.Broadcast(decide(w))
			}
		})
		return proto.HandlerFunc(func(from types.ProcID, m proto.Message) {
			layer.OnMessage(from, m)
		})
	}
}

// decide is the DECIDE(w) a correct committer would send.
func decide(w types.Value) proto.Message {
	return proto.Message{Kind: proto.MsgDecide, Tag: proto.Tag{Mod: proto.ModDecide}, Val: w}
}

// FakeDecide sends DECIDE(w) immediately and otherwise only relays
// reliable broadcasts: alone (fewer than t+1 senders) it must never make a
// correct process forward or decide w.
func FakeDecide(w types.Value) harness.Behavior {
	return func(env proto.Env) proto.Handler {
		layer := rb.New(env, func(types.ProcID, proto.Tag, types.Value) {})
		env.SetTimer(0, func() {
			note(env, "fake-decide", w)
			env.Broadcast(decide(w))
		})
		return proto.HandlerFunc(func(from types.ProcID, m proto.Message) {
			layer.OnMessage(from, m)
		})
	}
}

// HashEquivocation attacks the coalesced-relay path (rb.Relay): on a
// timer loop it sends each receiver a forged MsgRBVector frame whose
// entries (a) equivocate value hashes — the same entry identity names a
// DIFFERENT unresolvable hash per destination, (b) duplicate one another
// inside the frame, (c) name stale instances below any compaction floor,
// and (d) carry an inline READY for a value nobody proposed; every third
// round it sends undecodable vector bytes instead. It never answers the
// pulls its hashes provoke (hash-without-value starvation). A correct
// cluster must absorb all of it: parked entries never move thresholds,
// in-frame duplicates die on the entry dedup rule, a lone forged READY
// stays below t+1, and the parking cap bounds memory.
func HashEquivocation(w types.Value, every types.Duration, frames int) harness.Behavior {
	return func(env proto.Env) proto.Handler {
		// Participate correctly in RB relaying so the attack rides inside
		// otherwise protocol-shaped traffic.
		layer := rb.New(env, func(types.ProcID, proto.Tag, types.Value) {})
		round := 0
		var fire func()
		fire = func() {
			round++
			if round > frames {
				return
			}
			note(env, "hash-equivocate", w)
			for _, to := range env.Params().AllProcs() {
				if to == env.ID() {
					continue
				}
				if round%3 == 0 {
					env.Send(to, proto.Message{
						Kind: proto.MsgRBVector, Tag: proto.Tag{Mod: proto.ModRBRelay},
						Origin: env.ID(), Val: "not-a-vector",
					})
					continue
				}
				// A per-receiver hash: no value with this digest exists, and
				// every destination sees a different one for the SAME entry
				// identity — the coalesced analogue of value equivocation.
				sum := sha256.Sum256([]byte(fmt.Sprintf("equivocate-%v-%d-%v-%s", env.ID(), round, to, w)))
				h := types.Value(sum[:rb.HashLen])
				forged := rb.Entry{
					Kind: proto.MsgRBEcho, Tag: proto.Tag{Mod: proto.ModConsCB0},
					Origin: env.ID(), Instance: types.Instance(round - 1),
					Hashed: true, Val: h,
				}
				stale := forged
				stale.Instance = 0
				enc, err := rb.EncodeEntries([]rb.Entry{
					forged,
					forged, // in-frame duplicate
					stale,  // below any later compaction floor
					{Kind: proto.MsgRBReady, Tag: proto.Tag{Mod: proto.ModACEst, Round: 1},
						Origin: env.ID(), Instance: types.Instance(round - 1), Val: w},
				})
				if err != nil {
					continue
				}
				env.Send(to, proto.Message{
					Kind: proto.MsgRBVector, Tag: proto.Tag{Mod: proto.ModRBRelay},
					Origin: env.ID(), Val: enc,
				})
			}
			env.SetTimer(every, fire)
		}
		env.SetTimer(every, fire)
		return proto.HandlerFunc(func(from types.ProcID, m proto.Message) {
			// Pulls (and everything else non-RB) fall into the void: the
			// forged hashes stay unresolvable forever.
			layer.OnMessage(from, m)
		})
	}
}

// --- Network-scheduling adversaries -----------------------------------------

// TargetedDelay slows every message on the asynchronous channels listed in
// Links by Delay plus a uniform jitter in [0, Jitter] (timely channels are
// immune by construction — the network clamps). Use it to starve chosen
// processes of quorums and to desynchronize delivery orders across
// processes. The jitter source is seeded, so runs stay reproducible.
type TargetedDelay struct {
	Links  map[[2]types.ProcID]bool
	Delay  types.Duration
	Jitter types.Duration
	rng    *rand.Rand
}

// NewTargetedDelay builds a TargetedDelay with a seeded jitter source.
func NewTargetedDelay(links map[[2]types.ProcID]bool, delay, jitter types.Duration, seed int64) *TargetedDelay {
	return &TargetedDelay{Links: links, Delay: delay, Jitter: jitter, rng: rand.New(rand.NewSource(seed))}
}

// MessageDelay implements network.Adversary.
func (a *TargetedDelay) MessageDelay(from, to types.ProcID, _ types.Time, _ any) (types.Duration, bool) {
	if !a.Links[[2]types.ProcID{from, to}] {
		return 0, false
	}
	d := a.Delay
	if a.Jitter > 0 && a.rng != nil {
		d += types.Duration(a.rng.Int63n(int64(a.Jitter) + 1))
	}
	return d, true
}

// ConsensusSplitter is the strongest model-legal scheduling adversary in
// the library. It attacks liveness on two fronts:
//
//  1. Window splitting: for each receiver p, all reliable-broadcast
//     traffic (INIT/ECHO/READY) of the AC_EST stream originated by
//     Target[p] is delayed by Delay on p's incoming channels, so p's
//     adopt-commit quorum window excludes that origin. Choosing targets so
//     that every correct process drops an opposite-valued estimate makes
//     the estimates self-reinforcing: adopt-commit alone never converges.
//
//  2. Coordination suppression: every EA_COORD message is delayed by
//     Delay. The network clamps timely channels to their δ bound, so this
//     silences exactly the coordinators that are NOT bisources — which is
//     the whole point of the paper's ◇⟨t+1⟩bisource assumption: only the
//     bisource's championing survives this adversary.
//
// Under it, the paper's algorithm still terminates through the bisource's
// good rounds, while the RelayQuorum baseline (which needs n−t timely
// coordinator channels) never can (experiment E10).
type ConsensusSplitter struct {
	// Target maps each receiver to the origin whose streams are starved
	// on that receiver's incoming channels.
	Target map[types.ProcID]types.ProcID
	// Delay postpones the targeted streams.
	Delay types.Duration
	// CoordDelay postpones every EA_COORD message, and — when N is set —
	// every EA_RELAY sent by the round's own coordinator (which otherwise
	// spreads the coordinator's value through its instantaneous
	// self-channel even when it is no bisource). It should be much larger
	// than Delay so coordination loses the race against the round timers
	// on asynchronous channels; timely channels are clamped by the
	// network and immune — which is exactly why only a bisource
	// coordinator survives this adversary.
	CoordDelay types.Duration
	// N is the system size, needed to compute coord(r) for the relay
	// suppression above (0 disables it).
	N int
}

// MessageDelay implements network.Adversary.
func (a ConsensusSplitter) MessageDelay(from, to types.ProcID, _ types.Time, payload any) (types.Duration, bool) {
	m, ok := proto.AsMessage(payload)
	if !ok {
		return 0, false
	}
	if m.Kind == proto.MsgEACoord {
		return a.CoordDelay, true
	}
	if m.Kind == proto.MsgEARelay && a.N > 0 {
		if coord := types.ProcID((int64(m.Tag.Round)-1)%int64(a.N) + 1); from == coord {
			return a.CoordDelay, true
		}
	}
	switch m.Kind {
	case proto.MsgRBInit, proto.MsgRBEcho, proto.MsgRBReady:
		// Starve every reliable-broadcast stream of the targeted origin:
		// CB[0] splits the initial estimates, the EA and AC cooperative
		// broadcasts split the per-round first-qualified values
		// (defeating the unification that lines 1 of Figs. 1-2 would
		// otherwise provide), and the AC_EST stream keeps the quorum
		// windows split so MFA adoption never converges.
		if m.Origin == a.Target[to] {
			return a.Delay, true
		}
	}
	return 0, false
}

// HealingPartition splits the processes into blocks and holds every
// cross-block message back until the heal instant: a message sent at τ <
// HealAt across the boundary is proposed for delivery at HealAt plus a
// small deterministic stagger (so the backlog drains in send order rather
// than as one simultaneous burst). Messages sent at or after HealAt, and
// all intra-block traffic, use the normal delay policy.
//
// Like every network adversary this only *proposes* delays: on
// (eventually) timely channels the network clamps the proposal to the δ
// bound, so a partition can never outlast the synchrony the topology
// promises — plant it under asynchronous or pre-GST channels to bite.
type HealingPartition struct {
	// Side maps each process to its block; processes absent from the map
	// are block 0.
	Side map[types.ProcID]int
	// HealAt is the instant the partition heals.
	HealAt types.Time
	// Stagger spaces out the queued cross-boundary deliveries after the
	// heal (default 0 = all proposed exactly at HealAt).
	Stagger types.Duration

	queued int64
}

var _ network.Adversary = (*HealingPartition)(nil)

// MessageDelay implements network.Adversary.
func (a *HealingPartition) MessageDelay(from, to types.ProcID, at types.Time, _ any) (types.Duration, bool) {
	if a.Side[from] == a.Side[to] || at >= a.HealAt {
		return 0, false
	}
	d := types.Duration(a.HealAt - at)
	if a.Stagger > 0 {
		d += types.Duration(a.queued) * a.Stagger
		a.queued++
	}
	return d, true
}

// DroppingPartition severs every cross-block channel until the heal
// instant: unlike HealingPartition, which only holds messages back,
// traffic crossing the cut is LOST for good (network.Dropper). This
// models a crashed or disconnected replica in the deployed system — TCP
// frames sent to a dead peer are not queued anywhere, and the transport
// does not retransmit history — and it deliberately breaks the paper's
// reliable-channel assumption for the duration of the cut. A replica on
// the minority side misses that traffic forever: once the majority's log
// compaction retires the corresponding instances, replay is impossible
// by construction and only snapshot state transfer (sm.Transfer) can
// bring the replica back. Safety is unaffected — quorums on the majority
// side never depend on the victim — which is exactly the property the
// kv-lag-transfer scenarios pin down.
type DroppingPartition struct {
	// Side maps each process to its block; processes absent from the map
	// are block 0.
	Side map[types.ProcID]int
	// HealAt is the instant the cut heals; messages sent from then on
	// flow normally.
	HealAt types.Time
}

var _ network.Adversary = (*DroppingPartition)(nil)
var _ network.Dropper = (*DroppingPartition)(nil)

// MessageDelay implements network.Adversary (never claims a delay; the
// drop hook does all the work).
func (a *DroppingPartition) MessageDelay(types.ProcID, types.ProcID, types.Time, any) (types.Duration, bool) {
	return 0, false
}

// DropMessage implements network.Dropper.
func (a *DroppingPartition) DropMessage(from, to types.ProcID, at types.Time, _ any) bool {
	return a.Side[from] != a.Side[to] && at < a.HealAt
}

// ChunkLoss destroys snapshot chunk frames (MsgSnapChunk): of the chunk
// frames crossing the network before Until, every Every-th one is lost.
// Everything else — requests, manifests, acks, consensus traffic — flows
// untouched, so the adversary isolates exactly the loss mode the chunked
// transfer protocol's range re-request exists for: a downloader must
// notice the hole in its chunk bitmap and re-ack the missing range, and
// the transfer must still complete. Every must be ≥ 2 (dropping every
// chunk is not loss, it is a severed link — use DroppingPartition).
//
// The counter is global rather than per-link on purpose: with one
// laggard downloading from several corroborating servers, a global
// stride punches holes into whichever stream happens to be active, which
// is more adversarial than losing a fixed position per link.
type ChunkLoss struct {
	// Every is the drop stride: the Every-th, 2·Every-th, … chunk frame
	// seen before Until is destroyed.
	Every int
	// Until ends the loss episode; chunk frames sent from then on are
	// delivered (0 = the episode never ends).
	Until types.Time
	// Dropped counts destroyed frames (tests assert the episode actually
	// bit).
	Dropped int

	seen int
}

var _ network.Adversary = (*ChunkLoss)(nil)
var _ network.Dropper = (*ChunkLoss)(nil)

// MessageDelay implements network.Adversary (never claims a delay; the
// drop hook does all the work).
func (a *ChunkLoss) MessageDelay(types.ProcID, types.ProcID, types.Time, any) (types.Duration, bool) {
	return 0, false
}

// DropMessage implements network.Dropper.
func (a *ChunkLoss) DropMessage(_, _ types.ProcID, at types.Time, payload any) bool {
	if a.Every < 2 || (a.Until > 0 && at >= a.Until) {
		return false
	}
	m, ok := proto.AsMessage(payload)
	if !ok || m.Kind != proto.MsgSnapChunk {
		return false
	}
	a.seen++
	if a.seen%a.Every != 0 {
		return false
	}
	a.Dropped++
	return true
}

// Chain composes adversaries: the first one that claims a message (returns
// ok=true) decides its delay; later ones are not consulted. Nil entries
// are skipped.
type Chain []network.Adversary

var _ network.Adversary = Chain(nil)
var _ network.Dropper = Chain(nil)

// MessageDelay implements network.Adversary.
func (c Chain) MessageDelay(from, to types.ProcID, at types.Time, payload any) (types.Duration, bool) {
	for _, a := range c {
		if a == nil {
			continue
		}
		if d, ok := a.MessageDelay(from, to, at, payload); ok {
			return d, true
		}
	}
	return 0, false
}

// DropMessage implements network.Dropper: the message is lost if any
// chained adversary that models omissions claims it.
func (c Chain) DropMessage(from, to types.ProcID, at types.Time, payload any) bool {
	for _, a := range c {
		if dr, ok := a.(network.Dropper); ok && dr.DropMessage(from, to, at, payload) {
			return true
		}
	}
	return false
}

// IsolateExceptBisource delays every channel that is not one of the
// planted bisource's timely channels (and not a self-loop) by delay±jitter.
// With a large delay this realizes the paper's minimal-synchrony
// environment in its most hostile form: *nothing* moves except through the
// bisource channels and the slow async floor.
func IsolateExceptBisource(n int, p types.ProcID, in, out []types.ProcID, delay, jitter types.Duration, seed int64) *TargetedDelay {
	links := make(map[[2]types.ProcID]bool)
	timely := make(map[[2]types.ProcID]bool)
	for _, q := range in {
		timely[[2]types.ProcID{q, p}] = true
	}
	for _, q := range out {
		timely[[2]types.ProcID{p, q}] = true
	}
	for i := 1; i <= n; i++ {
		for j := 1; j <= n; j++ {
			if i == j {
				continue
			}
			key := [2]types.ProcID{types.ProcID(i), types.ProcID(j)}
			if !timely[key] {
				links[key] = true
			}
		}
	}
	return NewTargetedDelay(links, delay, jitter, seed)
}
