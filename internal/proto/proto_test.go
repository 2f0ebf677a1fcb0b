package proto

import (
	"strings"
	"testing"

	"repro/internal/types"
)

func TestDedup(t *testing.T) {
	var got []Message
	n := NewNode(HandlerFunc(func(_ types.ProcID, m Message) { got = append(got, m) }))

	m1 := Message{Kind: MsgRBInit, Tag: Tag{Mod: ModACEst, Round: 3}, Origin: 2, Val: "a"}
	n.Dispatch(2, m1)
	// Same (sender, kind, tag, origin) with different value: discarded.
	m2 := m1
	m2.Val = "b"
	n.Dispatch(2, m2)
	if len(got) != 1 || got[0].Val != "a" {
		t.Fatalf("dedup failed: %v", got)
	}
	if n.Dropped != 1 {
		t.Fatalf("Dropped = %d", n.Dropped)
	}
	// Different sender: accepted.
	n.Dispatch(3, m1)
	// Different round: accepted.
	m3 := m1
	m3.Tag.Round = 4
	n.Dispatch(2, m3)
	// Different kind: accepted.
	m4 := m1
	m4.Kind = MsgRBEcho
	n.Dispatch(2, m4)
	// Different origin: accepted.
	m5 := m1
	m5.Origin = 7
	n.Dispatch(2, m5)
	if len(got) != 5 {
		t.Fatalf("accepted = %d, want 5", len(got))
	}
}

func TestKeyFields(t *testing.T) {
	// The payload value must NOT be part of the dedup identity (the
	// first-message rule is per tag, not per content): a second message
	// differing only in Val is a duplicate.
	delivered := 0
	n := NewNode(HandlerFunc(func(types.ProcID, Message) { delivered++ }))
	m := Message{Kind: MsgEAProp2, Tag: Tag{Mod: ModEA, Round: 9}, Origin: 0, Val: "x"}
	n.Dispatch(5, m)
	m.Val = "y"
	n.Dispatch(5, m)
	if delivered != 1 || n.Dropped != 1 {
		t.Fatalf("delivered=%d dropped=%d: dedup identity must ignore the payload value", delivered, n.Dropped)
	}
	// Each identity component distinguishes: changing any accepts again.
	for _, mm := range []Message{
		{Kind: MsgEACoord, Tag: Tag{Mod: ModEA, Round: 9}},
		{Kind: MsgEAProp2, Tag: Tag{Mod: ModEA, Round: 10}},
		{Kind: MsgEAProp2, Tag: Tag{Mod: ModACCB, Round: 9}},
		{Kind: MsgEAProp2, Tag: Tag{Mod: ModEA, Round: 9}, Origin: 3},
	} {
		n.Dispatch(5, mm)
	}
	n.Dispatch(6, m) // different sender
	if delivered != 6 {
		t.Fatalf("delivered=%d, want 6: every identity component must distinguish", delivered)
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
	n := NewNode(HandlerFunc(func(from types.ProcID, m Message) { got = append(got, m) }))
	m := Message{Kind: MsgRBEcho, Tag: Tag{Mod: ModACEst, Round: 1}, Origin: 3, Val: "v"}
	for _, inst := range []types.Instance{0, 1, 2, 1, 0} {
		m.Instance = inst
		n.Dispatch(2, m)
	}
	if len(got) != 3 || n.Dropped != 2 {
		t.Fatalf("delivered %d dropped %d, want 3/2", len(got), n.Dropped)
	}
	if n.LiveInstances() != 3 {
		t.Fatalf("live instance sub-maps = %d, want 3", n.LiveInstances())
	}
}

// TestDecideOncePerSender: a sender's first DECIDE in an instance is the
// one that counts; a second one, even for another value, is dropped.
func TestDecideOncePerSender(t *testing.T) {
	var got []Message
	n := NewNode(HandlerFunc(func(from types.ProcID, m Message) { got = append(got, m) }))
	decide := Message{Kind: MsgDecide, Tag: Tag{Mod: ModDecide}, Instance: 4, Val: "a"}
	n.Dispatch(2, decide)
	decide.Val = "b"
	n.Dispatch(2, decide)
	n.Dispatch(3, decide)
	if len(got) != 2 || got[0].Val != "a" || got[1].Val != "b" || n.Dropped != 1 {
		t.Fatalf("delivered %v, dropped %d; want p2's a and p3's b, one drop", got, n.Dropped)
	}
}

// TestRetireInstancesBefore: retired sub-maps are dropped wholesale and
// their late traffic is rejected without reopening dedup state.
func TestRetireInstancesBefore(t *testing.T) {
	delivered := 0
	n := NewNode(HandlerFunc(func(types.ProcID, Message) { delivered++ }))
	m := Message{Kind: MsgRBEcho, Tag: Tag{Mod: ModACEst, Round: 1}, Origin: 3, Val: "v"}
	for inst := types.Instance(0); inst < 5; inst++ {
		m.Instance = inst
		n.Dispatch(2, m)
	}
	n.RetireInstancesBefore(3)
	if n.LiveInstances() != 2 {
		t.Fatalf("live sub-maps = %d, want 2", n.LiveInstances())
	}
	// Late traffic for a retired instance: rejected, no sub-map rebuilt.
	m.Instance = 1
	m.Origin = 4 // would be a fresh key if the instance were live
	n.Dispatch(2, m)
	if n.DroppedRetired != 1 || n.LiveInstances() != 2 {
		t.Fatalf("retired traffic: droppedRetired=%d live=%d", n.DroppedRetired, n.LiveInstances())
	}
	if delivered != 5 {
		t.Fatalf("delivered = %d, want 5", delivered)
	}
	// The floor is monotone: lowering it is a no-op.
	n.RetireInstancesBefore(1)
	if n.LiveInstances() != 2 {
		t.Fatal("floor regressed")
	}
	// Live instances above the floor still dedup normally.
	m.Instance = 4
	m.Origin = 3
	n.Dispatch(2, m)
	if n.Dropped != 1 {
		t.Fatalf("live-instance dedup broken: dropped=%d", n.Dropped)
	}
}

// TestSnapFramesBypassDedup: snapshot-transfer frames are exempt from the
// first-message rule and the retired-instance floor — a lagging replica
// legitimately re-requests from the same boundary, and responses name
// instances far outside the requester's live window.
func TestSnapFramesBypassDedup(t *testing.T) {
	delivered := 0
	n := NewNode(HandlerFunc(func(types.ProcID, Message) { delivered++ }))
	req := Message{Kind: MsgSnapRequest, Tag: Tag{Mod: ModSnap}, Instance: 2}
	n.Dispatch(3, req)
	n.Dispatch(3, req) // an identical retry must get through
	if delivered != 2 || n.Dropped != 0 {
		t.Fatalf("retry deduplicated: delivered=%d dropped=%d", delivered, n.Dropped)
	}
	// Below the retirement floor: still delivered (a request's boundary
	// instance is usually below the server's compaction floor).
	n.RetireInstancesBefore(10)
	n.Dispatch(3, req)
	if delivered != 3 || n.DroppedRetired != 0 {
		t.Fatalf("floor applied to transfer frame: delivered=%d droppedRetired=%d", delivered, n.DroppedRetired)
	}
	resp := Message{Kind: MsgSnapResponse, Tag: Tag{Mod: ModSnap}, Instance: 1 << 30, Val: "payload"}
	n.Dispatch(2, resp)
	n.Dispatch(2, resp)
	if delivered != 5 {
		t.Fatalf("responses deduplicated: delivered=%d", delivered)
	}
	// No dedup state accumulates for transfer traffic.
	if n.LiveInstances() != 0 {
		t.Fatalf("transfer frames grew dedup sub-maps: %d", n.LiveInstances())
	}
}

// TestForwardsBypassDedup: a peer forwards every client command it admits
// as a MsgKVRequest, and all of its forwards share one dedup identity at
// Instance 0. Each must reach the handler, before compaction and after.
func TestForwardsBypassDedup(t *testing.T) {
	var got []types.Value
	n := NewNode(HandlerFunc(func(_ types.ProcID, m Message) { got = append(got, m.Val) }))
	fwd := func(v types.Value) Message { return Message{Kind: MsgKVRequest, Tag: Tag{Mod: ModKV}, Val: v} }
	n.Dispatch(2, fwd("a"))
	n.Dispatch(2, fwd("b"))
	n.RetireInstancesBefore(5)
	n.Dispatch(2, fwd("c"))
	if len(got) != 3 || got[1] != "b" || got[2] != "c" || n.Dropped != 0 || n.DroppedRetired != 0 {
		t.Fatalf("delivered %q, dropped %d, dropped as retired %d; want every forward", got, n.Dropped, n.DroppedRetired)
	}
	if n.LiveInstances() != 0 {
		t.Fatalf("forwards grew dedup sub-maps: %d", n.LiveInstances())
	}
}
