package proto

import (
	"strings"
	"testing"

	"repro/internal/types"
)

func TestDedup(t *testing.T) {
	var got []Message
	n := NewNode(4, HandlerFunc(func(_ types.ProcID, m Message) { got = append(got, m) }), nil)

	m1 := Message{Kind: MsgRBEcho, Tag: Tag{Mod: ModACEst, Round: 3}, Origin: 2, Val: "a"}
	n.OnMessage(2, m1)
	// Same (sender, kind, tag, origin) with different value: discarded.
	m2 := m1
	m2.Val = "b"
	n.OnMessage(2, m2)
	if len(got) != 1 || got[0].Val != "a" {
		t.Fatalf("dedup failed: %v", got)
	}
	if n.metrics.DroppedDuplicates.Value() != 1 {
		t.Fatalf("Dropped = %d", n.metrics.DroppedDuplicates.Value())
	}
	// Different sender: accepted.
	n.OnMessage(3, m1)
	// Different round: accepted.
	m3 := m1
	m3.Tag.Round = 4
	n.OnMessage(2, m3)
	// Different kinds: accepted (the sender's own INIT, then a READY).
	m4 := m1
	m4.Kind = MsgRBInit
	n.OnMessage(2, m4)
	m4.Kind = MsgRBReady
	n.OnMessage(2, m4)
	// Different origin: accepted.
	m5 := m1
	m5.Origin = 4
	n.OnMessage(2, m5)
	// Different module: accepted.
	m6 := m1
	m6.Tag.Mod = ModACCB
	n.OnMessage(2, m6)
	if len(got) != 7 || n.metrics.DroppedDuplicates.Value() != 1 {
		t.Fatalf("accepted = %d dropped = %d, want 7 and 1", len(got), n.metrics.DroppedDuplicates.Value())
	}
}

func TestKeyFields(t *testing.T) {
	// The payload value must NOT be part of the dedup identity (the
	// first-message rule is per tag, not per content): a second message
	// differing only in Val is a duplicate.
	delivered := 0
	n := NewNode(7, HandlerFunc(func(types.ProcID, Message) { delivered++ }), nil)
	m := Message{Kind: MsgEAProp2, Tag: Tag{Mod: ModEA, Round: 9}, Origin: 0, Val: "x"}
	n.OnMessage(5, m)
	m.Val = "y"
	n.OnMessage(5, m)
	if delivered != 1 || n.metrics.DroppedDuplicates.Value() != 1 {
		t.Fatalf("delivered=%d dropped=%d: dedup identity must ignore the payload value", delivered, n.metrics.DroppedDuplicates.Value())
	}
	// Each identity component distinguishes: changing any accepts again.
	// EA round 9 shares its scope with CB[9] inside EA (ModEACB), so the
	// ECHOs of that CB show the module and the origin apart from it.
	for _, mm := range []Message{
		{Kind: MsgEACoord, Tag: Tag{Mod: ModEA, Round: 9}},
		{Kind: MsgEAProp2, Tag: Tag{Mod: ModEA, Round: 10}},
		{Kind: MsgEAProp2, Tag: Tag{Mod: ModEA, Round: 9}, Instance: 1},
		{Kind: MsgRBEcho, Tag: Tag{Mod: ModEACB, Round: 9}, Origin: 3},
		{Kind: MsgRBEcho, Tag: Tag{Mod: ModEACB, Round: 9}, Origin: 4},
		{Kind: MsgRBEcho, Tag: Tag{Mod: ModACCB, Round: 9}, Origin: 3},
	} {
		n.OnMessage(5, mm)
	}
	n.OnMessage(6, m) // different sender
	if delivered != 8 {
		t.Fatalf("delivered=%d, want 8: every identity component must distinguish", delivered)
	}
}

// TestRefusedIdentities: a rule-bound message whose identity no correct
// process sends never reaches the handler, however often it comes, and
// each copy is counted as a drop.
func TestRefusedIdentities(t *testing.T) {
	delivered := 0
	n := NewNode(4, HandlerFunc(func(types.ProcID, Message) { delivered++ }), nil)
	refused := []struct {
		from types.ProcID
		m    Message
	}{
		{3, Message{Kind: MsgRBInit, Tag: Tag{Mod: ModACEst, Round: 3}, Origin: 2}},  // INIT from a non-origin
		{2, Message{Kind: MsgEAProp2, Tag: Tag{Mod: ModACCB, Round: 9}}},             // EA kind under an rb module
		{2, Message{Kind: MsgEAProp2, Tag: Tag{Mod: ModEA, Round: 9}, Origin: 3}},    // EA message with an origin
		{2, Message{Kind: MsgEACoord, Tag: Tag{Mod: ModEA, Round: 0}}},               // EA round 0
		{2, Message{Kind: MsgRBEcho, Tag: Tag{Mod: ModDecide}, Origin: 2}},           // rb kind under ModDecide
		{2, Message{Kind: MsgDecide, Tag: Tag{Mod: ModDecide, Round: 1}}},            // DECIDE of round 1
		{2, Message{Kind: MsgRBEcho, Tag: Tag{Mod: ModACEst, Round: -1}, Origin: 2}}, // negative round
		{2, Message{Kind: MsgRBEcho, Tag: Tag{Mod: ModACEst}, Origin: 5}},            // origin past n
		{5, Message{Kind: MsgRBEcho, Tag: Tag{Mod: ModACEst}, Origin: 2}},            // sender past n
		{0, Message{Kind: MsgDecide, Tag: Tag{Mod: ModDecide}}},                      // no sender
	}
	for pass := 0; pass < 2; pass++ {
		for _, r := range refused {
			n.OnMessage(r.from, r.m)
		}
	}
	if delivered != 0 || n.metrics.DroppedDuplicates.Value() != uint64(2*len(refused)) || n.seen.Scopes() != 0 {
		t.Fatalf("delivered=%d dropped=%d scopes=%d, want 0, %d and 0",
			delivered, n.metrics.DroppedDuplicates.Value(), n.seen.Scopes(), 2*len(refused))
	}
}

func TestStringers(t *testing.T) {
	if MsgRBEcho.String() != "RB_ECHO" {
		t.Errorf("MsgRBEcho = %q", MsgRBEcho.String())
	}
	if MsgKind(99).String() != "MsgKind(99)" {
		t.Errorf("unknown kind = %q", MsgKind(99).String())
	}
	if ModACCB.String() != "ac-cb" {
		t.Errorf("ModACCB = %q", ModACCB.String())
	}
	if Module(99).String() != "Module(99)" {
		t.Errorf("unknown module = %q", Module(99).String())
	}
	tag := Tag{Mod: ModEA, Round: 12}
	if tag.String() != "ea/r12" {
		t.Errorf("Tag = %q", tag.String())
	}

	relay := Message{Kind: MsgEARelay, Tag: tag, Opt: types.Bot}
	if !strings.Contains(relay.String(), "⊥") {
		t.Errorf("relay String = %q", relay.String())
	}
	rb := Message{Kind: MsgRBInit, Tag: Tag{Mod: ModACEst, Round: 2}, Origin: 3, Val: "v"}
	s := rb.String()
	if !strings.Contains(s, "p3") || !strings.Contains(s, "v") {
		t.Errorf("rb String = %q", s)
	}
	plain := Message{Kind: MsgEAProp2, Tag: tag, Val: "w"}
	if !strings.Contains(plain.String(), "EA_PROP2") {
		t.Errorf("plain String = %q", plain.String())
	}
}

// Every declared kind and module must have a name.
func TestNamesComplete(t *testing.T) {
	for k := MsgRBInit; k <= MsgDecide; k++ {
		if strings.HasPrefix(k.String(), "MsgKind(") {
			t.Errorf("kind %d unnamed", int(k))
		}
	}
	for m := ModConsCB0; m <= ModRBRelay; m++ {
		if strings.HasPrefix(m.String(), "Module(") {
			t.Errorf("module %d unnamed", int(m))
		}
	}
}

// TestDedupPerInstance: the first-message rule is scoped per instance —
// the same (sender, kind, tag, origin) is accepted once in each instance.
func TestDedupPerInstance(t *testing.T) {
	var got []Message
	n := NewNode(4, HandlerFunc(func(from types.ProcID, m Message) { got = append(got, m) }), nil)
	m := Message{Kind: MsgRBEcho, Tag: Tag{Mod: ModACEst, Round: 1}, Origin: 3, Val: "v"}
	for _, inst := range []types.Instance{0, 1, 2, 1, 0} {
		m.Instance = inst
		n.OnMessage(2, m)
	}
	if len(got) != 3 || n.metrics.DroppedDuplicates.Value() != 2 {
		t.Fatalf("delivered %d dropped %d, want 3/2", len(got), n.metrics.DroppedDuplicates.Value())
	}
	if n.seen.Scopes() != 3 {
		t.Fatalf("%d scopes recorded, want 3", n.seen.Scopes())
	}
}

// TestDecideOncePerSender: a sender's first DECIDE in an instance is the
// one that counts; a second one, even for another value, is dropped.
func TestDecideOncePerSender(t *testing.T) {
	var got []Message
	n := NewNode(4, HandlerFunc(func(from types.ProcID, m Message) { got = append(got, m) }), nil)
	decide := Message{Kind: MsgDecide, Tag: Tag{Mod: ModDecide}, Instance: 4, Val: "a"}
	n.OnMessage(2, decide)
	decide.Val = "b"
	n.OnMessage(2, decide)
	n.OnMessage(3, decide)
	if len(got) != 2 || got[0].Val != "a" || got[1].Val != "b" || n.metrics.DroppedDuplicates.Value() != 1 {
		t.Fatalf("delivered %v, dropped %d; want p2's a and p3's b, one drop", got, n.metrics.DroppedDuplicates.Value())
	}
}

// TestSnapFramesBypassDedup: snapshot-transfer frames are exempt from the
// first-message rule — a lagging replica legitimately re-requests from
// the same boundary, and responses name instances far outside the
// requester's live window.
func TestSnapFramesBypassDedup(t *testing.T) {
	delivered := 0
	n := NewNode(4, HandlerFunc(func(types.ProcID, Message) { delivered++ }), nil)
	req := Message{Kind: MsgSnapRequest, Tag: Tag{Mod: ModSnap}, Instance: 2}
	n.OnMessage(3, req)
	n.OnMessage(3, req) // an identical retry must get through
	if delivered != 2 || n.metrics.DroppedDuplicates.Value() != 0 {
		t.Fatalf("retry deduplicated: delivered=%d dropped=%d", delivered, n.metrics.DroppedDuplicates.Value())
	}
	resp := Message{Kind: MsgSnapResponse, Tag: Tag{Mod: ModSnap}, Instance: 1 << 30, Val: "payload"}
	n.OnMessage(2, resp)
	n.OnMessage(2, resp)
	if delivered != 4 {
		t.Fatalf("responses deduplicated: delivered=%d", delivered)
	}
	// No dedup state accumulates for transfer traffic.
	if n.seen.Scopes() != 0 {
		t.Fatalf("transfer frames recorded %d scopes", n.seen.Scopes())
	}
}

// TestForwardsBypassDedup: a peer forwards every client command it admits
// as a MsgKVRequest, and all of its forwards share one dedup identity at
// Instance 0. Each must reach the handler.
func TestForwardsBypassDedup(t *testing.T) {
	var got []types.Value
	n := NewNode(4, HandlerFunc(func(_ types.ProcID, m Message) { got = append(got, m.Val) }), nil)
	fwd := func(v types.Value) Message { return Message{Kind: MsgKVRequest, Tag: Tag{Mod: ModKV}, Val: v} }
	n.OnMessage(2, fwd("a"))
	n.OnMessage(2, fwd("b"))
	n.OnMessage(2, fwd("c"))
	if len(got) != 3 || got[1] != "b" || got[2] != "c" || n.metrics.DroppedDuplicates.Value() != 0 {
		t.Fatalf("delivered %q, dropped %d; want every forward", got, n.metrics.DroppedDuplicates.Value())
	}
	if n.seen.Scopes() != 0 {
		t.Fatalf("forwards recorded %d scopes", n.seen.Scopes())
	}
}
