// Package proto defines the process-side protocol kernel: the message
// vocabulary shared by all layers (RB, CB, AC, EA, consensus), the Env
// interface through which protocol modules interact with whatever runtime
// hosts them (discrete-event simulation or real goroutines), and Seen, the
// one table of the paper's first-message-only rule (§2.1, "Discarding
// messages from Byzantine processes"), which a Node puts in front of a
// Handler that does not apply the rule itself.
package proto

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/types"
)

// MsgKind enumerates wire message kinds. The first three are Bracha
// reliable-broadcast submessages; the EA kinds are the plain (best-effort)
// broadcasts of Figure 3, and MsgDecide, the last, is Figure 4's DECIDE.
type MsgKind int

// Message kinds.
const (
	MsgRBInit MsgKind = iota + 1 // RB INITIAL(m) from the RB sender
	MsgRBEcho
	MsgRBReady
	MsgEAProp2 // EA_PROP2[r](aux)      — Fig. 3 line 2
	MsgEACoord // EA_COORD[r](w)        — Fig. 3 line 13
	MsgEARelay // EA_RELAY[r](v | ⊥)    — Fig. 3 line 18
	// The KV kinds (wire codec v3, module ModKV) belong to the replicated
	// KV service. MsgKVRequest is a replica-to-replica forward of a client
	// command: the log engine submits it (see log.Engine.OnMessage). It is
	// exempt from the first-message-only rule (MsgKind.RuleBound): every
	// forward from one peer shares one identity, and a submission is
	// idempotent by content. MsgKVResponse has no sender; it stays in the
	// vocabulary because removing a kind takes a new codec version.
	MsgKVRequest  // KV_REQ(encoded kv.Command)
	MsgKVResponse // KV_RESP(encoded kv.Response)
	// The snapshot-transfer kinds (module ModSnap) carry peer-to-peer
	// state transfer for replicas that compaction has left unable to
	// catch up by replay: a request names the requester's applied
	// boundary, a response carries the manifest of the server's latest
	// snapshot payload. They are exempt from the first-message-only rule:
	// a lagging replica re-requests from the same boundary until a
	// transfer lands, and the frames name instances far outside the
	// receiver's window. They are idempotent and self-validating (see
	// sm.Transfer) and never feed the consensus layers the rule protects.
	MsgSnapRequest  // SNAP_REQ(Instance = requester's applied boundary)
	MsgSnapResponse // SNAP_RESP(sm manifest; Instance = snapshot boundary)
	// The coalesced-relay kinds (wire codec v4, module ModRBRelay) carry
	// the message-batching fast path of the reliable-broadcast layer
	// (rb.Relay): a vector frame packs every ECHO/READY a process
	// originated in one flush window into a single frame per link, and
	// the pull pair resolves hash-referenced values that arrived before
	// their INIT. Like the snapshot kinds they are exempt from the
	// first-message-only rule: the rule applies to
	// the ENTRIES a vector carries (the relay enforces it per entry),
	// not to the carrier frames, and pulls are idempotent retries whose
	// responses self-validate by hash.
	MsgRBVector   // RB_VECTOR(encoded entry vector; see rb.EncodeEntries)
	MsgRBPull     // RB_PULL(Val = value hash being resolved)
	MsgRBPullResp // RB_PULLR(Val = the full value; receiver re-hashes to match)
	// The chunk kinds (module ModSnap) carry the payload a manifest
	// describes: once t+1 peers sent the same manifest, the requester
	// acknowledges with the range of chunks it still needs (MsgSnapAck),
	// and a server streams the chunks point-to-point (MsgSnapChunk).
	// Like the other transfer kinds they bypass the first-message-only
	// rule: a requester legitimately re-requests lost ranges under the
	// same dedup identity, and every chunk self-validates against the
	// manifest's hash list.
	MsgSnapChunk // SNAP_CHUNK(digest ‖ chunk index ‖ bytes; see sm chunk codec)
	MsgSnapAck   // SNAP_ACK(digest ‖ from ‖ window: the next range wanted)
	// MsgDecide is Fig. 4's DECIDE as one plain message (module
	// ModDecide, Round 0, Origin unset): a committer sends it, a process
	// that received it from t+1 senders forwards its own, and 2t+1
	// decide (see internal/core). Like EA_PROP2 it obeys the
	// first-message-only rule: one per sender and instance.
	MsgDecide // DECIDE(v)
)

// String implements fmt.Stringer. A switch, not a map: tracing and error
// paths stringify kinds per message, and a package-level map would cost a
// hash lookup on a shared structure every time.
func (k MsgKind) String() string {
	switch k {
	case MsgRBInit:
		return "RB_INIT"
	case MsgRBEcho:
		return "RB_ECHO"
	case MsgRBReady:
		return "RB_READY"
	case MsgEAProp2:
		return "EA_PROP2"
	case MsgEACoord:
		return "EA_COORD"
	case MsgEARelay:
		return "EA_RELAY"
	case MsgKVRequest:
		return "KV_REQ"
	case MsgKVResponse:
		return "KV_RESP"
	case MsgSnapRequest:
		return "SNAP_REQ"
	case MsgSnapResponse:
		return "SNAP_RESP"
	case MsgRBVector:
		return "RB_VECTOR"
	case MsgRBPull:
		return "RB_PULL"
	case MsgRBPullResp:
		return "RB_PULLR"
	case MsgSnapChunk:
		return "SNAP_CHUNK"
	case MsgSnapAck:
		return "SNAP_ACK"
	case MsgDecide:
		return "DECIDE"
	default:
		return fmt.Sprintf("MsgKind(%d)", int(k))
	}
}

// Module identifies which protocol object a message (or RB stream) belongs
// to. Together with a Round it forms a Tag.
type Module int

// Modules. Each names one family of instances.
const (
	// ModConsCB0 is the CB[0] instance of the consensus algorithm
	// (Fig. 4 line 1); Round is always 0.
	ModConsCB0 Module = iota + 1
	// ModEACB is the CB[r] instance used inside EA round r (Fig. 3 line 1).
	ModEACB
	// ModEA tags the plain EA messages (PROP2/COORD/RELAY) of round r.
	ModEA
	// ModACCB is the CB instance inside the adopt-commit object of round
	// r (Fig. 2 line 1).
	ModACCB
	// ModACEst is the RB stream of AC_EST messages of round r (Fig. 2 line 2).
	ModACEst
	// ModDecide tags the plain DECIDE messages (MsgDecide, Fig. 4 line
	// 7); Round is always 0. It names no RB stream.
	ModDecide
	// ModKV tags the KV service's messages (MsgKVRequest forwards);
	// Round is always 0.
	ModKV
	// ModSnap tags the replica-to-replica snapshot-transfer messages
	// (MsgSnapRequest/MsgSnapResponse); Round is always 0.
	ModSnap
	// ModRBRelay tags the coalesced-relay carrier messages
	// (MsgRBVector/MsgRBPull/MsgRBPullResp); Round is always 0 — the
	// entries inside a vector carry their own tags and instances.
	ModRBRelay
)

// String implements fmt.Stringer (a switch for the same reason as
// MsgKind.String).
func (m Module) String() string {
	switch m {
	case ModConsCB0:
		return "cons-cb0"
	case ModEACB:
		return "ea-cb"
	case ModEA:
		return "ea"
	case ModACCB:
		return "ac-cb"
	case ModACEst:
		return "ac-est"
	case ModDecide:
		return "decide"
	case ModKV:
		return "kv"
	case ModSnap:
		return "snap"
	case ModRBRelay:
		return "rb-relay"
	default:
		return fmt.Sprintf("Module(%d)", int(m))
	}
}

// Tag identifies a protocol instance: a module family plus the round it
// belongs to (0 for the round-less CB[0] and DECIDE).
type Tag struct {
	Mod   Module
	Round types.Round
}

// String implements fmt.Stringer.
func (t Tag) String() string { return fmt.Sprintf("%v/%v", t.Mod, t.Round) }

// Message is the single wire format of the whole stack.
//
// For RB kinds, Tag names the RB stream, Origin the process whose
// broadcast is being relayed, and Val the payload.
// For EA kinds, Tag is {ModEA, r}, Origin is unused (the network-level
// sender is authoritative), Val carries PROP2/COORD values, and Opt
// carries the RELAY value, which may be ⊥.
//
// Instance scopes the message to one numbered consensus instance of the
// replicated log (internal/log). Single-shot executions leave it 0; the
// protocol modules below the log engine never read it — the instance-
// scoped Env stamps it on egress and the log engine demultiplexes on
// ingress.
type Message struct {
	Kind     MsgKind
	Tag      Tag
	Instance types.Instance
	Origin   types.ProcID
	Val      types.Value
	Opt      types.OptValue
}

// String implements fmt.Stringer.
func (m Message) String() string {
	inst := ""
	if m.Instance != 0 {
		inst = m.Instance.String() + ":"
	}
	switch m.Kind {
	case MsgEARelay:
		return fmt.Sprintf("%v[%s%v](%v)", m.Kind, inst, m.Tag, m.Opt)
	case MsgRBInit, MsgRBEcho, MsgRBReady:
		return fmt.Sprintf("%v[%s%v]@%v(%s)", m.Kind, inst, m.Tag, m.Origin, m.Val)
	default:
		return fmt.Sprintf("%v[%s%v](%s)", m.Kind, inst, m.Tag, m.Val)
	}
}

// AsMessage extracts the protocol message from a raw network payload,
// which may be boxed by value or travel behind a pooled pointer (see
// MsgPool). Network-level adversaries and harness receivers must go
// through it rather than type-asserting Message directly.
func AsMessage(payload any) (Message, bool) {
	switch p := payload.(type) {
	case *Message:
		return *p, true
	case Message:
		return p, true
	default:
		return Message{}, false
	}
}

// MsgPool is a free list of outbound Message boxes. Sending a Message
// through an `any` network payload would box (heap-allocate) the struct on
// every send; a pool turns the steady state into zero allocations. It is
// NOT synchronized — each simulated world owns one and runs
// single-threaded, which is also why sync.Pool would be overkill here.
type MsgPool struct {
	free []*Message
}

// Get returns a box holding a copy of m.
func (p *MsgPool) Get(m Message) *Message {
	if n := len(p.free); n > 0 {
		pm := p.free[n-1]
		p.free = p.free[:n-1]
		*pm = m
		return pm
	}
	pm := new(Message)
	*pm = m
	return pm
}

// Put recycles a box after its payload has been consumed. The box is
// cleared so recycled messages cannot leak stale values.
func (p *MsgPool) Put(pm *Message) {
	*pm = Message{}
	p.free = append(p.free, pm)
}

// Env is everything a protocol module may do to the outside world. The
// simulation runtime and the real-time runtime both implement it, so the
// protocol code in rb/cb/ac/ea/core runs unchanged under either.
//
// A host may additionally implement IdleNotifier; modules discover it by
// type assertion and must work without it.
type Env interface {
	// ID returns the process running this module.
	ID() types.ProcID
	// Params returns the (n, t, m) resilience parameters.
	Params() types.Params
	// Now returns the current (virtual or wall-clock) time.
	Now() types.Time
	// Send transmits m to exactly one process.
	Send(to types.ProcID, m Message)
	// Broadcast performs the paper's unreliable best-effort broadcast:
	// send to every process including the sender itself.
	Broadcast(m Message)
	// SetTimer schedules fn after d; the returned function cancels it.
	SetTimer(d types.Duration, fn func()) (cancel func())
	// Trace is the event log, nil when the host records nothing (a nil
	// *trace.Log discards what it is given).
	Trace() *trace.Log
}

// IdleNotifier is the one optional interface of an Env: a host that can
// tell when it has run out of input — nothing queued for this process,
// the next step would block — runs every registered fn at that moment, on
// the same single thread as every other call into the module. The
// real-time host (internal/rt) implements it; rb.Relay uses it to send
// what it is holding at every such moment rather than wait for its grid
// timer. The virtual-time host (internal/harness) deliberately does not:
// a step that costs no time is "out of input" after every delivery, so
// there the relay's time grid is what stands in for a backlog.
type IdleNotifier interface {
	// OnIdle registers fn. It may send; the host handles the self-sends
	// before it blocks.
	OnIdle(fn func())
}

// Handler consumes protocol messages. A handler that does not apply the
// first-message rule itself sits behind a Node.
type Handler interface {
	OnMessage(from types.ProcID, m Message)
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(from types.ProcID, m Message)

var _ Handler = HandlerFunc(nil)

// OnMessage implements Handler.
func (f HandlerFunc) OnMessage(from types.ProcID, m Message) { f(from, m) }

// RuleBound reports whether kind k obeys the first-message rule (§2.1):
// of each (sender, kind, tag, origin), one message per instance counts.
// The transfer kinds, the relay carriers and forwarded commands do not;
// their declarations say why.
func (k MsgKind) RuleBound() bool {
	switch k {
	case MsgSnapRequest, MsgSnapResponse, MsgSnapChunk, MsgSnapAck,
		MsgRBVector, MsgRBPull, MsgRBPullResp, MsgKVRequest:
		return false
	}
	return true
}

// Node applies the first-message rule in front of a Handler, which can
// therefore assume every rule-bound (sender, kind, tag, origin) arrives
// at most once per instance — what the paper's pseudo-code assumes
// implicitly. It hosts every handler that is not a replicated-log engine
// (single-shot consensus engines, adversary behaviors); a log engine
// applies the rule itself, inside its instance window, in the same table.
type Node struct {
	h       Handler
	seen    *Seen
	metrics *obs.DedupMetrics
}

var _ Handler = (*Node)(nil)

// NewNode puts a first-message table for n processes in front of h,
// counting what it drops into m (obs.NewDedupMetrics; nil counts into
// private cells).
func NewNode(n int, h Handler, m *obs.DedupMetrics) *Node {
	if m == nil {
		m = obs.NewDedupMetrics(nil, "")
	}
	return &Node{h: h, seen: NewSeen(n), metrics: m}
}

// OnMessage implements Handler: a rule-bound message reaches the handler
// only if it is the first of its identity. A repeat and an identity the
// table refuses (Seen.Bit) are dropped and counted alike.
func (n *Node) OnMessage(from types.ProcID, m Message) {
	if m.Kind.RuleBound() {
		if first, _ := n.seen.Admit(from, m); !first {
			n.metrics.DroppedDuplicates.Inc()
			return
		}
	}
	n.h.OnMessage(from, m)
}
