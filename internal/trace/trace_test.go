package trace

import (
	"strings"
	"testing"
	"time"

	"repro/internal/types"
)

func TestNilLogIsSafe(t *testing.T) {
	var l *Log
	l.Emit(Event{Kind: KindSend}) // must not panic
	if l.Len() != 0 {
		t.Fatal("nil log must report 0 events")
	}
	if l.Events() != nil {
		t.Fatal("nil log must return nil events")
	}
	if l.Filter(ByKind(KindSend)) != nil {
		t.Fatal("nil log Filter must return nil")
	}
	if l.Dump() != "" {
		t.Fatal("nil log Dump must be empty")
	}
}

func TestEmitAndFilter(t *testing.T) {
	l := NewLog()
	l.Emit(Event{Kind: KindSend, Proc: 1, Peer: 2})
	l.Emit(Event{Kind: KindDeliver, Proc: 2, Peer: 1})
	l.Emit(Event{Kind: KindSend, Proc: 1, Peer: 3, Round: 4})
	l.Emit(Event{Kind: KindConsDecide, Proc: 3, Value: "v"})

	if l.Len() != 4 {
		t.Fatalf("Len = %d", l.Len())
	}
	sends := l.Filter(ByKind(KindSend))
	if len(sends) != 2 {
		t.Fatalf("sends = %d", len(sends))
	}
	p1r4 := l.Filter(ByProc(1), ByRound(4))
	if len(p1r4) != 1 || p1r4[0].Peer != 3 {
		t.Fatalf("compound filter = %+v", p1r4)
	}
}

// TestEventString pins whole renderings: fmt pads to runes (a µs duration
// is one rune short of its bytes), a relay prints ⊥ for an absent option,
// and an unknown kind prints its number.
func TestEventString(t *testing.T) {
	for _, c := range []struct {
		e    Event
		want string
	}{
		{Event{At: types.Time(1500 * time.Nanosecond), Kind: KindCBValid, Proc: 3, Round: 2, Value: "v", Aux: "CB[r2]"},
			"cb-valid     t=1.5µs          p3 r2 val=v [CB[r2]]"},
		{Event{At: types.Time(2 * time.Millisecond), Kind: KindEARelay, Proc: 2, Peer: 5, Round: 7, Opt: types.Bot, Aux: "note"},
			"ea-relay     t=2ms            p2↔p5 r7 opt=⊥ [note]"},
		{Event{At: types.Time(-5), Kind: Kind(99), Opt: types.Some("x")},
			"Kind(99)     t=-5ns           p? opt=x"},
		{Event{Kind: KindConsDecide, Proc: 1, Value: "a"},
			"cons-decide  t=0s             p1 val=a"},
	} {
		if got := c.e.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestKindString(t *testing.T) {
	if KindSend.String() != "send" {
		t.Errorf("KindSend = %q", KindSend.String())
	}
	if Kind(999).String() != "Kind(999)" {
		t.Errorf("unknown kind = %q", Kind(999).String())
	}
	// Every declared kind must have a name (catches drift when adding kinds).
	for k := KindSend; k <= KindCrash; k++ {
		if s := k.String(); s == "" || strings.HasPrefix(s, "Kind(") {
			t.Errorf("kind %d has no name", int(k))
		}
	}
}

func TestDumpAndDiscard(t *testing.T) {
	l := NewLog()
	l.Emit(Event{Kind: KindSend, Proc: 1, Peer: 2})
	l.Emit(Event{Kind: KindDeliver, Proc: 2, Peer: 1})
	dump := l.Dump()
	if got := strings.Count(dump, "\n"); got != 2 {
		t.Fatalf("Dump lines = %d", got)
	}
}
