package xtrace

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/types"
)

func TestCommandIDDeterministic(t *testing.T) {
	a, b := CommandID("put:user=ada"), CommandID("put:user=ada")
	if a != b {
		t.Fatalf("same bytes, different IDs: %x vs %x", a, b)
	}
	if CommandID("put:user=ada") == CommandID("put:user=bob") {
		t.Fatal("distinct commands collided")
	}
	if InstanceID(3) == InstanceID(4) {
		t.Fatal("distinct instances collided")
	}
	if CommandID("") == InstanceID(0) {
		t.Fatal("command and instance ID spaces overlap at zero")
	}
}

// TestStageChain drives one command through the full simulated life
// cycle and checks the spans chain causally with the right stages.
func TestStageChain(t *testing.T) {
	var clock types.Time
	reg := obs.NewRegistry()
	tr := New(Config{
		Proc:     2,
		Now:      func() types.Time { clock += 10; return clock },
		Recorder: NewRecorder(64),
		Stages:   obs.NewStageMetrics(reg, ""),
	})
	cmd := types.Value("cmd-00001")
	tr.OnAdmit(cmd)
	tr.OnSubmit(cmd)
	tr.OnPropose(5)
	tr.OnBatched(cmd, 5)
	tr.RBEvent(StageRBEcho, 5, 1)
	tr.RBEvent(StageRBDeliver, 5, 1)
	tr.OnCommitted(cmd, 5)
	tr.OnDecide(5)
	tr.OnApplied(cmd, 5)
	tr.Respond(cmd, tr.Clock())

	spans := tr.Dump("test").Spans
	want := []Stage{StageAdmitWait, StagePropose, StageBatchWait,
		StageRBEcho, StageRBDeliver, StageConsensus, StageDecide, StageApply, StageRespond}
	if len(spans) != len(want) {
		t.Fatalf("got %d spans, want %d: %+v", len(spans), len(want), spans)
	}
	id := CommandID(cmd)
	var prev uint64
	for i, s := range spans {
		if s.Stage != want[i] {
			t.Fatalf("span %d stage %s, want %s", i, s.Stage, want[i])
		}
		if s.Proc != 2 {
			t.Fatalf("span %d proc %d, want 2", i, s.Proc)
		}
		if s.End < s.Start {
			t.Fatalf("span %d ends before it starts", i)
		}
		switch s.Stage {
		case StageAdmitWait, StageBatchWait, StageConsensus, StageApply:
			if s.Trace != id {
				t.Fatalf("span %d trace %x, want command ID %x", i, s.Trace, id)
			}
			// The command chain links parent → child in stage order.
			if s.Stage != StageAdmitWait && s.Parent != prev {
				t.Fatalf("span %d parent %d, want %d", i, s.Parent, prev)
			}
			prev = s.ID
		case StageRBEcho, StageRBDeliver, StageDecide:
			if s.Trace != InstanceID(5) {
				t.Fatalf("span %d trace %x, want instance ID", i, s.Trace)
			}
		}
	}
	// Every canonical stage histogram saw exactly one observation.
	for _, name := range obs.StageNames {
		h := reg.Histogram(obs.WithLabels(obs.StageLatencyName, `stage="`+name+`"`), nil)
		if h.Count() != 1 {
			t.Fatalf("stage %q histogram count %d, want 1", name, h.Count())
		}
	}
}

// TestConsensusFallsBackToSubmit covers commands committed out of another
// proposer's batch: no local OnBatched, so the consensus stage opens at
// submission.
func TestConsensusFallsBackToSubmit(t *testing.T) {
	var clock types.Time
	tr := New(Config{Proc: 1, Now: func() types.Time { clock += 10; return clock }, Recorder: NewRecorder(8)})
	cmd := types.Value("c")
	tr.OnSubmit(cmd)
	tr.OnCommitted(cmd, 0)
	spans := tr.Dump("").Spans
	if len(spans) != 1 || spans[0].Stage != StageConsensus {
		t.Fatalf("want single consensus span, got %+v", spans)
	}
	if spans[0].Start != 10 {
		t.Fatalf("consensus opened at %d, want the submit time 10", spans[0].Start)
	}
}

func TestMaxInflightBounds(t *testing.T) {
	tr := New(Config{Proc: 1, MaxInflight: 2, Recorder: NewRecorder(8)})
	tr.OnSubmit("a")
	tr.OnSubmit("b")
	tr.OnSubmit("c") // shed
	if got := tr.Dropped(); got != 1 {
		t.Fatalf("dropped %d chains, want 1", got)
	}
	// Retiring one frees a slot.
	tr.OnCommitted("a", 0)
	tr.OnApplied("a", 0)
	tr.OnSubmit("d")
	if got := tr.Dropped(); got != 1 {
		t.Fatalf("dropped %d chains after retirement, want still 1", got)
	}
}

func TestRecorderRing(t *testing.T) {
	r := NewRecorder(3)
	for i := 1; i <= 5; i++ {
		r.Emit(Span{ID: uint64(i)})
	}
	got := r.Snapshot()
	if len(got) != 3 || got[0].ID != 3 || got[2].ID != 5 {
		t.Fatalf("window %+v, want IDs 3..5 oldest-first", got)
	}
	if r.Total() != 5 {
		t.Fatalf("total %d, want 5", r.Total())
	}
}

// TestRecorderWrapAndLast checks the /statusz?trace=N read: Last returns
// the newest n spans oldest-first, clipped to the retained window, and
// is nil on an empty or nil recorder.
func TestRecorderWrapAndLast(t *testing.T) {
	r := NewRecorder(3)
	if got := r.Last(5); got != nil {
		t.Fatalf("empty recorder Last = %+v", got)
	}
	for i := 1; i <= 5; i++ {
		r.Emit(Span{ID: uint64(i)})
	}
	if r.Total() != 5 {
		t.Fatalf("total %d, want 5", r.Total())
	}
	all := r.Last(10)
	if len(all) != 3 {
		t.Fatalf("Last(10) len %d, want the whole window of 3", len(all))
	}
	for i, want := range []uint64{3, 4, 5} {
		if all[i].ID != want {
			t.Fatalf("Last(10)[%d].ID = %d, want %d", i, all[i].ID, want)
		}
	}
	if two := r.Last(2); len(two) != 2 || two[0].ID != 4 || two[1].ID != 5 {
		t.Fatalf("Last(2) = %+v, want IDs 4, 5", two)
	}
	if r.Last(0) != nil {
		t.Fatal("Last(0) must be nil")
	}
	var nilRec *Recorder
	nilRec.Emit(Span{})
	if nilRec.Last(1) != nil || nilRec.Total() != 0 {
		t.Fatal("nil recorder not inert")
	}
}

// TestRecorderConcurrentReaders is the /statusz?trace=N and dump contract
// under the race detector: one writer goroutine (the node loop) emits
// strictly increasing span IDs while many readers (HTTP handlers, a
// stall dump) take windows concurrently. Every window must be
// consecutive IDs, never a torn mix of old and new slots.
func TestRecorderConcurrentReaders(t *testing.T) {
	r := NewRecorder(32)
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := uint64(1); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			r.Emit(Span{ID: i})
		}
	}()
	for r.Total() < 64 { // the ring has wrapped before anyone reads
		runtime.Gosched()
	}
	var readers sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 300; i++ {
				got := r.Snapshot()
				if i%2 == 1 {
					got = r.Last(16)
				}
				for j := 1; j < len(got); j++ {
					if got[j].ID != got[j-1].ID+1 {
						select {
						case errs <- fmt.Errorf("torn window: span %d followed by %d", got[j-1].ID, got[j].ID):
						default:
						}
						return
					}
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	writer.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	tr.OnAdmit("x")
	tr.OnSubmit("x")
	tr.OnBatched("x", 0)
	tr.OnCommitted("x", 0)
	tr.OnApplied("x", 0)
	tr.Respond("x", 0)
	tr.OnPropose(0)
	tr.OnDecide(0)
	tr.RBEvent(StageRBEcho, 0, 1)
	if tr.Clock() != 0 || tr.Proc() != 0 || tr.Dropped() != 0 {
		t.Fatal("nil tracer accessors not zero")
	}
	if d := tr.Dump("x"); len(d.Spans) != 0 {
		t.Fatal("nil tracer dump not empty")
	}
	var rec *Recorder
	rec.Emit(Span{})
	if rec.Snapshot() != nil || rec.Last(1) != nil || rec.Total() != 0 || rec.Cap() != 0 || tr.Recorder() != nil {
		t.Fatal("nil recorder accessors not zero")
	}
}

func TestBackChain(t *testing.T) {
	spans := []Span{
		{Trace: 7, ID: 2, Start: 20},
		{Trace: 9, ID: 3, Start: 5},
		{Trace: 7, ID: 1, Start: 10},
	}
	chain := BackChain(spans, 7)
	if len(chain) != 2 || chain[0].ID != 1 || chain[1].ID != 2 {
		t.Fatalf("back chain %+v, want IDs 1,2 by start time", chain)
	}
}

func TestDumpRoundTripAndMerge(t *testing.T) {
	mk := func(proc types.ProcID) *Dump {
		var clock types.Time
		tr := New(Config{Proc: proc, Now: func() types.Time { clock += 5; return clock }, Recorder: NewRecorder(16)})
		tr.OnSubmit("shared-cmd")
		tr.OnBatched("shared-cmd", 1)
		tr.OnCommitted("shared-cmd", 1)
		return tr.Dump("t")
	}
	d1, d2 := mk(1), mk(2)

	dir := t.TempDir()
	paths, err := WriteDumps(dir, "cell", []*Dump{d1, d2})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("wrote %d files, want 2", len(paths))
	}
	back, err := ReadDump(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if back.Proc != d1.Proc || len(back.Spans) != len(d1.Spans) {
		t.Fatalf("round trip mangled dump: %+v", back)
	}
	if filepath.Ext(paths[0]) != ".json" {
		t.Fatalf("dump path %q not .json", paths[0])
	}

	data, err := MergeChromeTrace([]*Dump{d1, d2})
	if err != nil {
		t.Fatal(err)
	}
	n, err := ValidateChromeTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	// 2 replicas × (1 process_name + lanes) metadata + 2×2 spans + a
	// cross-replica flow (s+f): just sanity-check the floor and that the
	// flow pair exists.
	if n < 8 {
		t.Fatalf("merged only %d events", n)
	}
	for _, ph := range []string{`"ph": "s"`, `"ph": "f"`} {
		if !bytes.Contains(data, []byte(ph)) {
			t.Fatalf("merged doc missing flow event %s", ph)
		}
	}
}
