// Package rb implements Bracha's reliable broadcast (Bracha 1987, the
// paper's reference [7]) — the RB abstraction of §2.2, defined by:
//
//	RB-Validity:      a delivered message from a correct sender was broadcast by it
//	RB-Unicity:       at most one delivery per (origin, tag)
//	RB-Termination-1: a correct sender's broadcast is delivered by all correct processes
//	RB-Termination-2: if one correct process delivers m from p, all correct do
//
// The implementation is the classic three-phase echo protocol, requiring
// t < n/3:
//
//	sender:  broadcast INIT(v)
//	on INIT(v) from origin:                 if no ECHO sent — broadcast ECHO(v)
//	on > (n+t)/2 ECHO(v):                   if no READY sent — broadcast READY(v)
//	on ≥ t+1 READY(v):                      if no READY sent — broadcast READY(v)
//	on ≥ 2t+1 READY(v):                     deliver v (once)
//
// One Layer multiplexes every RB instance of a process; instances are
// identified by (origin, tag), so the same layer serves the CB_VAL and
// AC_EST streams of all rounds simultaneously.
package rb

import (
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/trace"
	"repro/internal/types"
	"repro/internal/xtrace"
)

// DeliverFunc is invoked exactly once per delivered (origin, tag) pair.
type DeliverFunc func(origin types.ProcID, tag proto.Tag, v types.Value)

// Layer is the per-process reliable-broadcast engine. It is driven by the
// single-threaded runtime; it is not safe for concurrent use.
type Layer struct {
	env     proto.Env
	params  types.Params // env.Params(), fixed for the env's lifetime
	deliver DeliverFunc
	metrics *obs.RBMetrics
	tracer  *xtrace.Tracer

	// rows holds one tag's instances, indexed by origin−1: a row is one
	// allocation for all n origins. recent caches the rows of the tags
	// messages named last, direct-mapped by recentRow: messages come in
	// runs that share a tag and cycle through the few tags of the rounds
	// in progress, so most find their record without a map lookup. live
	// counts the instances a message has touched.
	rows   map[proto.Tag][]instance
	recent [recentRows]struct {
		tag proto.Tag
		row []instance
	}
	live int
}

// recentRows is the size of a Layer's recent-row cache.
const recentRows = 8

// recentRow maps a tag to its slot in the recent-row cache. The rb
// modules are 1, 2, 4 and 5, so CB[0] and the three rb tags of one round
// take distinct slots.
func recentRow(tag proto.Tag) int {
	return int((uint64(tag.Mod) + uint64(tag.Round)*3) % recentRows)
}

type instance struct {
	used      bool // a message has touched this instance
	sentEcho  bool
	sentReady bool
	delivered bool
	// first counts the first value voted for; correct processes all vote
	// for one value, so more holds only values a Byzantine sender added.
	first votes
	more  []votes
}

// votes is the ECHO and READY senders of one value.
type votes struct {
	val     types.Value
	echoes  types.ProcSet
	readies types.ProcSet
}

// votesFor returns v's tally, taking the inline slot while it is unused.
func (in *instance) votesFor(v types.Value) *votes {
	if f := &in.first; f.val == v || f.echoes.Len()+f.readies.Len() == 0 {
		f.val = v
		return f
	}
	for i := range in.more {
		if in.more[i].val == v {
			return &in.more[i]
		}
	}
	in.more = append(in.more, votes{val: v})
	return &in.more[len(in.more)-1]
}

// unread is the bundle of every Layer given none. A Layer is built per
// consensus instance and has no accessor reading its counts, so one set
// of private cells serves them all.
var unread = obs.NewRBMetrics(nil, "")

// New creates the RB layer for env; deliver receives RB-deliveries.
func New(env proto.Env, deliver DeliverFunc) *Layer {
	return &Layer{env: env, params: env.Params(), deliver: deliver, rows: make(map[proto.Tag][]instance), metrics: unread}
}

// SetMetrics sets the telemetry bundle (obs.NewRBMetrics; nil counts into
// cells nobody reads). Counts the echo/ready traffic this process
// ORIGINATES — the Θ(n²) amplification volume — plus deliveries;
// passive, never alters the protocol.
func (l *Layer) SetMetrics(m *obs.RBMetrics) {
	if m == nil {
		m = unread
	}
	l.metrics = m
}

// SetTracer attaches a causal tracer (nil detaches); a span names the
// instance of the message that caused it. Passive like SetMetrics: the
// tracer observes the sentEcho/sentReady/delivered transitions, never
// the protocol itself.
func (l *Layer) SetTracer(t *xtrace.Tracer) { l.tracer = t }

// Broadcast RB-broadcasts v on the stream (self, tag): it sends
// INIT(v) to everyone (including self, which triggers the echo phase
// locally like any other process).
func (l *Layer) Broadcast(tag proto.Tag, v types.Value) {
	if tr := l.env.Trace(); tr != nil {
		tr.Emit(trace.Event{
			At: l.env.Now(), Kind: trace.KindRBBroadcast, Proc: l.env.ID(),
			Round: tag.Round, Value: v, Aux: tag.String(),
		})
	}
	l.metrics.Broadcasts.Inc()
	l.env.Broadcast(proto.Message{Kind: proto.MsgRBInit, Tag: tag, Origin: l.env.ID(), Val: v})
}

// Instances returns the number of live RB instances (memory metric).
func (l *Layer) Instances() int { return l.live }

// instance returns the record of (origin, tag), nil for an origin that is
// no process: no correct process echoes an INIT such an origin did not
// send, so no quorum can ever form for it.
func (l *Layer) instance(origin types.ProcID, tag proto.Tag) *instance {
	o := int(origin) - 1
	if o < 0 || o >= l.params.N {
		return nil
	}
	slot := &l.recent[recentRow(tag)]
	if slot.row == nil || slot.tag != tag {
		row, ok := l.rows[tag]
		if !ok {
			row = make([]instance, l.params.N)
			l.rows[tag] = row
		}
		slot.tag, slot.row = tag, row
	}
	inst := &slot.row[o]
	if !inst.used {
		inst.used = true
		l.live++
	}
	return inst
}

// OnMessage consumes RB submessages; it reports false for non-RB kinds so
// the caller can route them elsewhere. The caller must have applied the
// first-message rule (a proto.Node in front, or the log engine).
func (l *Layer) OnMessage(from types.ProcID, m proto.Message) bool {
	switch m.Kind {
	case proto.MsgRBInit, proto.MsgRBEcho, proto.MsgRBReady:
	default:
		return false
	}
	// No impersonation: an INIT for origin o is only valid from o itself.
	if m.Kind == proto.MsgRBInit && from != m.Origin {
		return true // consumed (and discarded): forged INIT
	}
	inst := l.instance(m.Origin, m.Tag)
	if inst == nil {
		return true // consumed (and discarded): no such origin
	}
	p := l.params
	switch m.Kind {
	case proto.MsgRBInit:
		if !inst.sentEcho {
			inst.sentEcho = true
			l.metrics.Echoes.Inc()
			l.tracer.RBEvent(xtrace.StageRBEcho, m.Instance, m.Origin)
			l.env.Broadcast(proto.Message{Kind: proto.MsgRBEcho, Tag: m.Tag, Origin: m.Origin, Val: m.Val})
		}
	case proto.MsgRBEcho:
		set := &inst.votesFor(m.Val).echoes
		set.Add(from)
		if set.Len() >= p.EchoQuorum() && !inst.sentReady {
			inst.sentReady = true
			l.metrics.Readies.Inc()
			l.tracer.RBEvent(xtrace.StageRBReady, m.Instance, m.Origin)
			l.env.Broadcast(proto.Message{Kind: proto.MsgRBReady, Tag: m.Tag, Origin: m.Origin, Val: m.Val})
		}
	case proto.MsgRBReady:
		set := &inst.votesFor(m.Val).readies
		set.Add(from)
		if set.Len() >= p.ReadyAmplify() && !inst.sentReady {
			inst.sentReady = true
			l.metrics.Readies.Inc()
			l.tracer.RBEvent(xtrace.StageRBReady, m.Instance, m.Origin)
			l.env.Broadcast(proto.Message{Kind: proto.MsgRBReady, Tag: m.Tag, Origin: m.Origin, Val: m.Val})
		}
		if set.Len() >= p.ReadyDeliver() && !inst.delivered {
			inst.delivered = true
			l.metrics.Delivers.Inc()
			if tr := l.env.Trace(); tr != nil {
				tr.Emit(trace.Event{
					At: l.env.Now(), Kind: trace.KindRBDeliver, Proc: l.env.ID(),
					Peer: m.Origin, Round: m.Tag.Round, Value: m.Val, Aux: m.Tag.String(),
				})
			}
			l.tracer.RBEvent(xtrace.StageRBDeliver, m.Instance, m.Origin)
			l.deliver(m.Origin, m.Tag, m.Val)
		}
	}
	return true
}
