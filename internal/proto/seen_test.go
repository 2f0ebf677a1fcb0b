package proto

import (
	"testing"

	"repro/internal/types"
)

// TestRecentScopesKeepScopesApart: scopes that share a slot of the
// recent-scope cache — instances or rounds apart by the cache's size —
// keep their own first-message bits, and retire with the floor like any
// other.
func TestRecentScopesKeepScopesApart(t *testing.T) {
	s := NewSeen(7)
	echo := func(inst types.Instance, round types.Round) Message {
		return Message{Kind: MsgRBEcho, Tag: Tag{Mod: ModACEst, Round: round}, Origin: 2, Instance: inst, Val: "v"}
	}
	shared := []Message{echo(5, 3), echo(5+recentScopes, 3), echo(5, 3+recentScopes)}
	for _, m := range shared[1:] {
		if recentSlot(seenScope{m.Instance, m.Tag.Mod, m.Tag.Round}) != recentSlot(seenScope{5, ModACEst, 3}) {
			t.Fatalf("instance %v round %v does not share the first scope's slot", m.Instance, m.Tag.Round)
		}
	}
	for pass := 0; pass < 2; pass++ {
		for _, m := range shared {
			if first, dup := s.Admit(4, m); first != (pass == 0) || dup != (pass == 1) {
				t.Fatalf("pass %d, instance %v round %v: first=%v dup=%v", pass, m.Instance, m.Tag.Round, first, dup)
			}
		}
	}
	if s.Scopes() != len(shared) {
		t.Fatalf("Scopes()=%d, want %d", s.Scopes(), len(shared))
	}
	s.RetireBefore(6)
	if s.Scopes() != 1 {
		t.Fatalf("after retiring below 6: Scopes()=%d, want 1", s.Scopes())
	}
	if _, dup := s.Admit(4, shared[1]); !dup {
		t.Fatal("the scope past the floor lost its bits")
	}
}

// seenKey is a whole first-message identity: the key of the map the
// table replaced, kept here as its oracle.
type seenKey struct {
	from, origin types.ProcID
	kind         MsgKind
	tag          Tag
	inst         types.Instance
}

// sendable is Bit's doc comment as a predicate: whether a correct
// process among n can send the identity k.
func sendable(n int, k seenKey) bool {
	inRange := func(p types.ProcID) bool { return p >= 1 && int(p) <= n }
	switch {
	case !inRange(k.from):
		return false
	case k.tag.Mod == ModEA:
		return k.tag.Round >= 1 && k.origin == types.NoProc &&
			(k.kind == MsgEAProp2 || k.kind == MsgEACoord || k.kind == MsgEARelay)
	case k.tag.Mod == ModDecide:
		return k.tag.Round == 0 && k.origin == types.NoProc && k.kind == MsgDecide
	case k.tag.Mod == ModConsCB0 || k.tag.Mod == ModEACB || k.tag.Mod == ModACCB || k.tag.Mod == ModACEst:
		return k.tag.Round >= 0 && inRange(k.origin) &&
			(k.kind == MsgRBEcho || k.kind == MsgRBReady || k.kind == MsgRBInit && k.origin == k.from)
	}
	return false
}

// FuzzSeen drives one table with the identities six bytes at a time
// describe — senders, origins, kinds, modules and rounds just past every
// edge Bit tests, over a few instances — and holds it to a map keyed by
// the whole identity: Bit refuses exactly what a correct process cannot
// send, and wherever it accepts, Admit reports first and dup as the map
// does.
func FuzzSeen(f *testing.F) {
	f.Add(uint8(4), []byte{2, 2, 2, 6, 3, 0, 2, 2, 2, 6, 3, 0, 3, 2, 1, 6, 3, 0})
	f.Add(uint8(7), []byte{5, 4, 0, 3, 9, 1, 5, 5, 16, 6, 0, 1, 5, 0, 16, 6, 0, 1})
	f.Fuzz(func(t *testing.T, n uint8, ids []byte) {
		size := int(n%8) + 1
		s := NewSeen(size)
		oracle := make(map[seenKey]bool)
		for ; len(ids) >= 6; ids = ids[6:] {
			k := seenKey{
				from:   types.ProcID(int(ids[0]%uint8(size+3)) - 1),
				origin: types.ProcID(int(ids[1]%uint8(size+3)) - 1),
				kind:   MsgKind(ids[2] % 18),
				tag:    Tag{Mod: Module(ids[3] % 11), Round: types.Round(int(ids[4]%8) - 1)},
				inst:   types.Instance(ids[5] % 4),
			}
			word, _ := s.Bit(k.from, k.kind, k.tag, k.origin, k.inst)
			if want := sendable(size, k); (word != nil) != want {
				t.Fatalf("n=%d %+v: Bit accepted=%v, want %v", size, k, word != nil, want)
			}
			first, dup := s.Admit(k.from, Message{Kind: k.kind, Tag: k.tag, Origin: k.origin, Instance: k.inst, Val: "v"})
			if word == nil {
				if first || dup {
					t.Fatalf("n=%d %+v: refused by Bit, Admit says first=%v dup=%v", size, k, first, dup)
				}
				continue
			}
			if first == oracle[k] || dup != oracle[k] {
				t.Fatalf("n=%d %+v: first=%v dup=%v, map has it: %v", size, k, first, dup, oracle[k])
			}
			oracle[k] = true
		}
	})
}
