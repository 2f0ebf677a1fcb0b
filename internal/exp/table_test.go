package exp

import (
	"strings"
	"testing"

	"repro/internal/trace"
)

func TestMessagesCounts(t *testing.T) {
	log := trace.NewLog()
	log.Emit(trace.Event{Kind: trace.KindSend, Proc: 1, Peer: 2})
	log.Emit(trace.Event{Kind: trace.KindRBBroadcast, Proc: 1, Aux: "ac-est/r3"})
	log.Emit(trace.Event{Kind: trace.KindRBDeliver, Proc: 2, Aux: "ac-est/r3"})
	log.Emit(trace.Event{Kind: trace.KindRBDeliver, Proc: 2, Aux: "decide/r0"})
	byModule := rbEventsByModule(log)
	if len(byModule) != 2 || byModule["ac-est"] != 2 || byModule["decide"] != 1 {
		t.Errorf("rbEventsByModule = %v, want ac-est:2 decide:1", byModule)
	}
}

func TestSeriesStats(t *testing.T) {
	var s series
	for _, v := range []float64{5, 1, 3, 2, 4} {
		s.add(v)
	}
	if got := s.mean(); got != 3 {
		t.Errorf("mean = %v", got)
	}
}

func TestSeriesEmpty(t *testing.T) {
	var s series
	if s.mean() != 0 {
		t.Error("empty series must report zero")
	}
}

func TestTableRendering(t *testing.T) {
	tb := newTable("n", "rounds", "msgs")
	tb.row(4, 1, 120)
	tb.row(10, 3.5, 2400)
	out := tb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "rounds") || !strings.Contains(lines[3], "3.50") {
		t.Errorf("table content wrong:\n%s", out)
	}
	// All rows must be equal width.
	for i := 1; i < len(lines); i++ {
		if len(lines[i]) != len(lines[0]) {
			t.Errorf("misaligned table:\n%s", out)
		}
	}
}
