// Package types defines the basic vocabulary shared by every layer of the
// minsync stack: process identities, proposal values, rounds, virtual time,
// and the small set utilities the protocol quorum logic is built on.
//
// The package is intentionally dependency-free so that every other package
// (simulator, network, protocol layers, checkers) can use it without cycles.
package types

import (
	"fmt"
	"math/bits"
	"strconv"
	"time"
)

// ProcID identifies a process. Following the paper, processes are named
// p1..pn, so valid IDs are 1..n. The zero value is invalid and is used as
// "no process".
type ProcID int

// NoProc is the zero ProcID, meaning "no process".
const NoProc ProcID = 0

// String returns the paper-style name of the process ("p3").
func (p ProcID) String() string {
	if p == NoProc {
		return "p?"
	}
	return "p" + strconv.Itoa(int(p))
}

// Round is a 1-based round number of the consensus / EA loop. Round 0 is
// reserved for the CB[0] instance used by the consensus validity check.
type Round int64

// String implements fmt.Stringer.
func (r Round) String() string { return "r" + strconv.FormatInt(int64(r), 10) }

// Instance is a 0-based consensus-instance number of the replicated log:
// instance i decides the i-th log entry. Single-shot executions use
// instance 0 throughout, which is also what version-1 wire frames decode
// to, so the single-decision stack is the i=0 slice of the log engine.
type Instance int64

// String implements fmt.Stringer.
func (i Instance) String() string { return "i" + strconv.FormatInt(int64(i), 10) }

// Value is a proposal value. m-valued consensus restricts how many distinct
// Values correct processes may propose (feasibility condition n-t > m*t),
// but the type itself is an opaque string so applications can propose
// commands, hashes, etc.
//
// The distinguished "bottom" value of the EA relay messages and of the
// ⊥-validity consensus variant is NOT representable as a Value; it is
// modeled separately (see OptValue) so that no application value can be
// confused with ⊥.
type Value string

// BotValue is the reserved value ⊥ used by the ⊥-default validity variant
// of the consensus algorithm (§7 of the paper): when correct processes do
// not propose enough identical values, the protocol may fall back to
// deciding ⊥. Applications must not propose BotValue themselves.
//
// BotValue is distinct from the ⊥ of the EA relay messages (see OptValue),
// which means "no coordinator value seen" and never flows into estimates.
const BotValue Value = "\x00⊥"

// OptValue is a Value or ⊥ (Bot). The zero value is ⊥, which matches the
// "know nothing" reading used by the EA relay phase.
type OptValue struct {
	V     Value
	Valid bool // false => ⊥
}

// Bot is the ⊥ option.
var Bot = OptValue{}

// Some wraps a concrete value.
func Some(v Value) OptValue { return OptValue{V: v, Valid: true} }

// IsBot reports whether o is ⊥.
func (o OptValue) IsBot() bool { return !o.Valid }

// String implements fmt.Stringer.
func (o OptValue) String() string {
	if o.IsBot() {
		return "⊥"
	}
	return string(o.V)
}

// Time is virtual (simulated) or wall-clock time in nanoseconds, depending
// on the runtime driving the protocol. Protocol code only ever compares
// Times and adds Durations, so the same code runs under both.
type Time int64

// Duration is a span of Time.
type Duration = time.Duration

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// String renders the time as a duration since the epoch of the run.
func (t Time) String() string { return time.Duration(t).String() }

// MaxProcs is the largest n a run may have (Params.Validate): process IDs
// 1..MaxProcs are the bits of a ProcSet.
const MaxProcs = 128

// ProcSet is a set of process IDs held as a bitset, bit id−1 for process
// id. It is a plain value: the zero value is the empty set and a copy is
// an independent set. IDs outside 1..MaxProcs are never members.
type ProcSet struct {
	w [MaxProcs / 64]uint64
}

// NewProcSet builds a set from the given members.
func NewProcSet(ids ...ProcID) ProcSet {
	var s ProcSet
	for _, id := range ids {
		s.Add(id)
	}
	return s
}

// bit locates id's word and mask; ok is false outside 1..MaxProcs.
func bit(id ProcID) (word int, mask uint64, ok bool) {
	i := uint(id) - 1
	if i >= MaxProcs {
		return 0, 0, false
	}
	return int(i / 64), 1 << (i % 64), true
}

// Add inserts id and reports whether it was newly added (false for an ID
// outside 1..MaxProcs, which is not added).
func (s *ProcSet) Add(id ProcID) bool {
	w, mask, ok := bit(id)
	if !ok || s.w[w]&mask != 0 {
		return false
	}
	s.w[w] |= mask
	return true
}

// Has reports membership.
func (s ProcSet) Has(id ProcID) bool {
	w, mask, ok := bit(id)
	return ok && s.w[w]&mask != 0
}

// Len returns the cardinality.
func (s ProcSet) Len() int {
	n := 0
	for _, w := range s.w {
		n += bits.OnesCount64(w)
	}
	return n
}

// Members returns the members in ascending order.
func (s ProcSet) Members() []ProcID {
	out := make([]ProcID, 0, s.Len())
	for i, w := range s.w {
		for ; w != 0; w &= w - 1 {
			out = append(out, ProcID(i*64+bits.TrailingZeros64(w)+1))
		}
	}
	return out
}

// SubsetOf reports whether every member of s is in other.
func (s ProcSet) SubsetOf(other ProcSet) bool {
	for i, w := range s.w {
		if w&^other.w[i] != 0 {
			return false
		}
	}
	return true
}

// String implements fmt.Stringer.
func (s ProcSet) String() string { return fmt.Sprintf("%v", s.Members()) }

// Params carries the resilience parameters of a run. It is embedded in most
// configuration structs and validated once at world-construction time.
type Params struct {
	// N is the total number of processes (n > 1).
	N int
	// T is the maximum number of Byzantine processes tolerated (t < n/3).
	T int
	// M is the maximum number of distinct values correct processes may
	// propose. For the m-valued algorithms the feasibility condition
	// n-t > m*t must hold; the ⊥-validity variant lifts it.
	M int
}

// Validate checks the model constraints of the paper
// (n > 1, 0 ≤ t < n/3), n ≤ MaxProcs and, unless botOK, the m-valued
// feasibility condition n−t > m·t with m ≥ 1.
func (p Params) Validate(botOK bool) error {
	if p.N <= 1 {
		return fmt.Errorf("params: n must be > 1, got %d", p.N)
	}
	if p.N > MaxProcs {
		return fmt.Errorf("params: n must be ≤ %d (types.MaxProcs), got %d", MaxProcs, p.N)
	}
	if p.T < 0 {
		return fmt.Errorf("params: t must be ≥ 0, got %d", p.T)
	}
	if 3*p.T >= p.N {
		return fmt.Errorf("params: need t < n/3, got n=%d t=%d", p.N, p.T)
	}
	if botOK {
		return nil
	}
	if p.M < 1 {
		return fmt.Errorf("params: m must be ≥ 1, got %d", p.M)
	}
	if p.T > 0 && p.N-p.T <= p.M*p.T {
		return fmt.Errorf("params: feasibility n−t > m·t violated: n=%d t=%d m=%d (max m = %d)",
			p.N, p.T, p.M, p.MaxM())
	}
	return nil
}

// MaxM returns the largest feasible m, ⌊(n−(t+1))/t⌋, or a huge value when
// t = 0 (any m is feasible without Byzantine processes).
func (p Params) MaxM() int {
	if p.T == 0 {
		return int(^uint(0) >> 1) // MaxInt
	}
	return (p.N - (p.T + 1)) / p.T
}

// Quorum returns n−t, the size of the waiting quorums used throughout the
// paper's algorithms.
func (p Params) Quorum() int { return p.N - p.T }

// EchoQuorum returns the Bracha echo threshold ⌊(n+t)/2⌋+1 (strictly more
// than (n+t)/2 distinct ECHOs).
func (p Params) EchoQuorum() int { return (p.N+p.T)/2 + 1 }

// ReadyAmplify returns t+1, the READY amplification threshold.
func (p Params) ReadyAmplify() int { return p.T + 1 }

// ReadyDeliver returns 2t+1, the READY delivery threshold.
func (p Params) ReadyDeliver() int { return 2*p.T + 1 }

// AllProcs returns the full process set 1..n.
func (p Params) AllProcs() []ProcID {
	out := make([]ProcID, p.N)
	for i := range out {
		out[i] = ProcID(i + 1)
	}
	return out
}
