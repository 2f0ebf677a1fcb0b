// Package trace records structured protocol events. Every layer of the
// stack emits events into a *Log; the invariant checkers in internal/check
// replay it to verify the specification properties of RB, CB, AC, EA and
// consensus. Counters are not derived from it: each layer counts into its
// own internal/obs bundle.
//
// Tracing is optional: a nil *Log discards events, so hosts that record
// nothing (the real-time runtime, an unrecorded simulation) pass nil.
package trace

import (
	"fmt"
	"strings"

	"repro/internal/types"
)

// Kind enumerates event types. Enums start at 1 so the zero value is
// detectably invalid.
type Kind int

// Event kinds.
const (
	// Transport layer.
	KindSend Kind = iota + 1 // one point-to-point message handed to the network
	KindDeliver

	// Reliable broadcast.
	KindRBBroadcast
	KindRBDeliver

	// Cooperative broadcast.
	KindCBBroadcast // operation invoked
	KindCBValid     // value added to cb_valid
	KindCBReturn    // operation returned

	// Adopt-commit.
	KindACPropose
	KindACReturn // Tag field holds "commit" or "adopt" in Aux

	// Eventual agreement.
	KindEAPropose
	KindEAFastPath // returned at line 4
	KindEACoord    // coordinator championed a value
	KindEARelay    // relay broadcast (Opt may be ⊥)
	KindEATimeout  // round timer expired before EA_COORD arrived
	KindEAReturn

	// Consensus.
	KindConsPropose
	KindConsRoundStart
	KindConsDecideSend // DECIDE broadcast; Aux "commit" or "forward" (t+1 received)
	KindConsDecide

	// Byzantine action annotations (emitted by adversary behaviors).
	KindByzAction

	// Replicated KV service (state-machine layer above the log).
	KindKVSnapshot // digest-stamped state snapshot taken
	KindKVRecover  // replica rebuilt state from snapshot + retained log

	// Snapshot state transfer between replicas (sm.Transfer).
	KindSnapRequest // lagging replica broadcast a snapshot fetch request
	KindSnapServe   // replica served its latest snapshot to a laggard
	KindSnapInstall // laggard installed a corroborated peer snapshot

	// Process lifecycle (simulated power failures).
	KindCrash // process powered off; volatile state lost
)

// kindNames indexes the name of each Kind.
var kindNames = [...]string{
	KindSend:           "send",
	KindDeliver:        "deliver",
	KindRBBroadcast:    "rb-broadcast",
	KindRBDeliver:      "rb-deliver",
	KindCBBroadcast:    "cb-broadcast",
	KindCBValid:        "cb-valid",
	KindCBReturn:       "cb-return",
	KindACPropose:      "ac-propose",
	KindACReturn:       "ac-return",
	KindEAPropose:      "ea-propose",
	KindEAFastPath:     "ea-fastpath",
	KindEACoord:        "ea-coord",
	KindEARelay:        "ea-relay",
	KindEATimeout:      "ea-timeout",
	KindEAReturn:       "ea-return",
	KindConsPropose:    "cons-propose",
	KindConsRoundStart: "cons-round",
	KindConsDecideSend: "cons-decide-send",
	KindConsDecide:     "cons-decide",
	KindByzAction:      "byz",
	KindKVSnapshot:     "kv-snapshot",
	KindKVRecover:      "kv-recover",
	KindSnapRequest:    "snap-request",
	KindSnapServe:      "snap-serve",
	KindSnapInstall:    "snap-install",
	KindCrash:          "crash",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k > 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one structured record. Field meaning depends on Kind; unused
// fields are zero. Proc is always the process at which the event occurred.
type Event struct {
	At    types.Time
	Kind  Kind
	Proc  types.ProcID // where the event happened
	Peer  types.ProcID // counterpart: receiver of a send, origin of a deliver/RB
	Round types.Round  // protocol round (0 when not applicable / CB[0])
	Value types.Value  // payload value, if any
	Opt   types.OptValue
	Aux   string // free-form: message kind, commit/adopt tag, byz note…
}

// String renders the event compactly for logs and test failures.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s t=%-14v %v", e.Kind, e.At, e.Proc)
	if e.Peer != types.NoProc {
		fmt.Fprintf(&b, "↔%v", e.Peer)
	}
	if e.Round != 0 {
		fmt.Fprintf(&b, " %v", e.Round)
	}
	if e.Value != "" {
		fmt.Fprintf(&b, " val=%s", e.Value)
	}
	if e.Opt.Valid || e.Kind == KindEARelay {
		fmt.Fprintf(&b, " opt=%s", e.Opt)
	}
	if e.Aux != "" {
		fmt.Fprintf(&b, " [%s]", e.Aux)
	}
	return b.String()
}

// chunkSize is the fixed capacity of one log chunk. Chunked growth means a
// million-event log never copies recorded events: filling up allocates one
// fresh chunk instead of doubling-and-moving the whole history.
const chunkSize = 4096

// Log is the in-memory event log. A nil *Log discards events, so callers
// can emit unconditionally. Storage is chunked; Events consolidates on demand
// for the replay-style consumers.
type Log struct {
	chunks [][]Event
	n      int
}

// NewLog returns an empty log.
func NewLog() *Log { return &Log{} }

// Emit appends the event. Safe on a nil receiver (drops the event).
func (l *Log) Emit(e Event) {
	if l == nil {
		return
	}
	if k := len(l.chunks); k == 0 || len(l.chunks[k-1]) >= chunkSize {
		l.chunks = append(l.chunks, make([]Event, 0, chunkSize))
	}
	l.chunks[len(l.chunks)-1] = append(l.chunks[len(l.chunks)-1], e)
	l.n++
}

// Events returns the recorded events in emission order; callers must not
// mutate the slice. Multi-chunk logs are consolidated into a single
// contiguous chunk first (the old chunks are released, so repeated calls
// cost nothing extra and the log is never held twice in memory).
func (l *Log) Events() []Event {
	if l == nil || l.n == 0 {
		return nil
	}
	if len(l.chunks) > 1 {
		flat := make([]Event, 0, l.n)
		for _, c := range l.chunks {
			flat = append(flat, c...)
		}
		l.chunks = append(l.chunks[:0], flat)
	}
	return l.chunks[0]
}

// ForEach calls fn on every recorded event in emission order without
// flattening (the digest and metrics paths iterate this way).
func (l *Log) ForEach(fn func(Event)) {
	if l == nil {
		return
	}
	for _, c := range l.chunks {
		for i := range c {
			fn(c[i])
		}
	}
}

// Len returns the number of recorded events (0 for nil).
func (l *Log) Len() int {
	if l == nil {
		return 0
	}
	return l.n
}

// Filter returns the events matching every given predicate.
func (l *Log) Filter(preds ...func(Event) bool) []Event {
	if l == nil {
		return nil
	}
	var out []Event
	l.ForEach(func(e Event) {
		for _, p := range preds {
			if !p(e) {
				return
			}
		}
		out = append(out, e)
	})
	return out
}

// ByKind is a Filter predicate.
func ByKind(k Kind) func(Event) bool { return func(e Event) bool { return e.Kind == k } }

// ByProc is a Filter predicate.
func ByProc(p types.ProcID) func(Event) bool { return func(e Event) bool { return e.Proc == p } }

// ByRound is a Filter predicate.
func ByRound(r types.Round) func(Event) bool { return func(e Event) bool { return e.Round == r } }

// Dump renders the whole log, one event per line (test diagnostics).
func (l *Log) Dump() string {
	if l == nil {
		return ""
	}
	var b strings.Builder
	l.ForEach(func(e Event) {
		b.WriteString(e.String())
		b.WriteByte('\n')
	})
	return b.String()
}
