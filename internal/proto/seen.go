package proto

import "repro/internal/types"

// Seen is a process's first-message table (§2.1): of each (sender, kind,
// tag, origin), one message per instance counts. A Node holds one in
// front of a single-shot handler, a log engine's rb.Relay one for vector
// entries and loose messages alike. It keeps a bitmap per (instance,
// tag) scope indexed by (sender, origin, kind) (see Bit): the (sender,
// origin) plane is dense, so a bit test replaces a hashed-key set.
type Seen struct {
	n      int // Params().N, fixes the bitmap geometry
	scopes map[seenScope][]uint64
	// recent caches the bitmaps of recently used scopes, direct-mapped
	// (recentSlot): a vector's entries come in runs that share a scope,
	// and cycle through the few scopes of the pipelined instances, so
	// each run finds its bitmap without a map lookup.
	recent [recentScopes]recentScope
}

// seenScope identifies one bitmap: an instance and a tag inside it.
type seenScope struct {
	inst  types.Instance
	mod   Module
	round types.Round
}

// recentScopes is the size of the recent-scope cache: room for the four
// rb tags of about eight instances.
const recentScopes = 32

// recentScope is one slot of the recent-scope cache; nil bits is empty.
type recentScope struct {
	scope seenScope
	bits  []uint64
}

// recentSlot maps a scope to its slot in the recent-scope cache. The
// scope modules are 1, 2, 4 and 5, so the four tags of one round of six
// consecutive instances take distinct slots.
func recentSlot(s seenScope) int {
	return int((uint64(s.inst)*5 + uint64(s.mod) + uint64(s.round)*7) % recentScopes)
}

// maxScopes caps the live bitmaps. A scope costs 2n²+5n bits, so the cap
// bounds what a Byzantine peer naming fresh (instance, tag) pairs makes a
// process allocate, far above the few hundred scopes a correct run
// reaches. Past it Bit refuses: an overflow message is dropped, never
// delivered undeduplicated.
const maxScopes = 1 << 14

// NewSeen returns an empty table for n processes.
func NewSeen(n int) *Seen {
	return &Seen{n: n, scopes: make(map[seenScope][]uint64)}
}

// Bit locates the first-message bit of one identity: a word of its
// scope's bitmap, allocated on first use, and the bit's mask. Only what a
// correct process can send has a bit, from a sender in 1..n: an rb
// message of an rb module, round ≥ 0, about an origin in 1..n (an INIT
// only from its origin); an EA message of round ≥ 1 with no origin; a
// DECIDE of round 0 with no origin. For anything else, and past the
// scope cap, Bit returns nil.
//
// A scope's bitmap holds ECHO and READY per (sender, origin), then INIT,
// the three EA kinds and DECIDE per sender. EA messages of round r share
// the scope of CB[r] inside EA (ModEACB), DECIDE that of CB[0]: the
// plain kinds add bits, never scopes, so an instance takes as many scopes
// as its rb traffic alone would.
func (t *Seen) Bit(from types.ProcID, kind MsgKind, tag Tag, origin types.ProcID, inst types.Instance) (*uint64, uint64) {
	n, s, o := t.n, int(from)-1, int(origin)-1
	idx, mod := -1, tag.Mod
	switch {
	case s < 0 || s >= n:
	case tag.Mod == ModEA:
		if tag.Round >= 1 && origin == types.NoProc && kind >= MsgEAProp2 && kind <= MsgEARelay {
			idx, mod = 2*n*n+n+3*s+int(kind-MsgEAProp2), ModEACB
		}
	case tag.Mod == ModDecide:
		if tag.Round == 0 && origin == types.NoProc && kind == MsgDecide {
			idx, mod = 2*n*n+4*n+s, ModConsCB0
		}
	case tag.Mod >= ModConsCB0 && tag.Mod <= ModACEst: // the rb modules
		if tag.Round < 0 || o < 0 || o >= n {
			break
		}
		switch {
		case kind == MsgRBEcho:
			idx = (s*n + o) * 2
		case kind == MsgRBReady:
			idx = (s*n+o)*2 + 1
		case kind == MsgRBInit && o == s:
			idx = 2*n*n + s
		}
	}
	if idx < 0 {
		return nil, 0
	}
	scope := seenScope{inst: inst, mod: mod, round: tag.Round}
	slot := &t.recent[recentSlot(scope)]
	bits := slot.bits
	if bits == nil || scope != slot.scope {
		if bits = t.scopes[scope]; bits == nil {
			if len(t.scopes) >= maxScopes {
				return nil, 0
			}
			bits = make([]uint64, (2*n*n+5*n+63)/64)
			t.scopes[scope] = bits
		}
		slot.scope, slot.bits = scope, bits
	}
	return &bits[idx>>6], uint64(1) << (idx & 63)
}

// Admit applies the rule to m from sender from: first reports that m is
// the first of its (sender, kind, tag, origin) in its instance, now
// recorded; dup that it repeats one recorded before, whatever its value.
// Neither means Bit refused m's identity, before allocating anything.
func (t *Seen) Admit(from types.ProcID, m Message) (first, dup bool) {
	word, mask := t.Bit(from, m.Kind, m.Tag, m.Origin, m.Instance)
	if word == nil {
		return false, false
	}
	if *word&mask != 0 {
		return false, true
	}
	*word |= mask
	return true, false
}

// RetireBefore drops the scopes of every instance below floor.
func (t *Seen) RetireBefore(floor types.Instance) {
	t.recent = [recentScopes]recentScope{}
	for s := range t.scopes {
		if s.inst < floor {
			delete(t.scopes, s)
		}
	}
}

// Scopes returns the number of live scopes.
func (t *Seen) Scopes() int { return len(t.scopes) }
