package network

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/types"
)

type arrival struct {
	to, from types.ProcID
	payload  any
	at       types.Time
}

func collector(sched *sim.Scheduler, out *[]arrival) Receiver {
	return func(to, from types.ProcID, payload any) {
		*out = append(*out, arrival{to: to, from: from, payload: payload, at: sched.Now()})
	}
}

func TestTimelyBoundEnforced(t *testing.T) {
	sched := sim.NewScheduler(1)
	var got []arrival
	tp := FullySynchronous(3, types.Duration(10*time.Millisecond))
	nw, err := New(sched, Config{
		Topology: tp,
		Policy:   FixedDelay{D: types.Duration(time.Hour)}, // policy proposes way over bound
	}, collector(sched, &got))
	if err != nil {
		t.Fatal(err)
	}
	nw.Send(1, 2, "m")
	sched.Run(0, 0)
	if len(got) != 1 {
		t.Fatalf("arrivals = %d", len(got))
	}
	if got[0].at != types.Time(10*time.Millisecond) {
		t.Fatalf("timely channel delivered at %v, want 10ms", got[0].at)
	}
}

func TestEventuallyTimelyClamp(t *testing.T) {
	gst := types.Time(100 * time.Millisecond)
	delta := types.Duration(10 * time.Millisecond)
	sched := sim.NewScheduler(1)
	var got []arrival
	tp := EventuallySynchronous(2, gst, delta)
	nw, err := New(sched, Config{
		Topology: tp,
		Policy:   FixedDelay{D: types.Duration(time.Hour)},
	}, collector(sched, &got))
	if err != nil {
		t.Fatal(err)
	}
	// Sent before GST: must arrive by GST+δ, not GST+1h.
	nw.Send(1, 2, "early")
	sched.Run(0, 0)
	if want := gst.Add(delta); got[0].at != want {
		t.Fatalf("pre-GST message arrived at %v, want %v", got[0].at, want)
	}
	// Sent after GST: must arrive within δ of sending.
	sched.After(types.Duration(200*time.Millisecond)-types.Duration(sched.Now()), func() {
		nw.Send(1, 2, "late")
	})
	sched.Run(0, 0)
	if len(got) != 2 {
		t.Fatalf("arrivals = %d", len(got))
	}
	if want := types.Time(200 * time.Millisecond).Add(delta); got[1].at != want {
		t.Fatalf("post-GST message arrived at %v, want %v", got[1].at, want)
	}
}

func TestAsyncUnbounded(t *testing.T) {
	sched := sim.NewScheduler(1)
	var got []arrival
	nw, err := New(sched, Config{
		Topology: FullyAsynchronous(2),
		Policy:   FixedDelay{D: types.Duration(time.Hour)},
	}, collector(sched, &got))
	if err != nil {
		t.Fatal(err)
	}
	nw.Send(1, 2, "m")
	sched.Run(0, 0)
	if got[0].at != types.Time(time.Hour) {
		t.Fatalf("async channel clamped: arrived at %v", got[0].at)
	}
}

func TestSelfChannelInstant(t *testing.T) {
	sched := sim.NewScheduler(1)
	var got []arrival
	nw, err := New(sched, Config{
		Topology: FullyAsynchronous(2),
		Policy:   FixedDelay{D: types.Duration(time.Hour)},
	}, collector(sched, &got))
	if err != nil {
		t.Fatal(err)
	}
	sched.After(types.Duration(5), func() { nw.Send(1, 1, "self") })
	sched.Run(0, 0)
	if got[0].at != types.Time(5) {
		t.Fatalf("self message arrived at %v, want 5", got[0].at)
	}
}

// The matrix holds every channel; SetLink cannot make a self-channel
// anything but timely with zero delay, and a process outside 1..n has
// no channel.
func TestTopologyMatrix(t *testing.T) {
	tp := FullyAsynchronous(3)
	tp.SetLink(2, 2, Link{Class: Async})
	tp.SetLink(1, 3, Link{Class: Timely, Delta: 7})
	if l := tp.LinkOf(2, 2); l != (Link{Class: Timely}) {
		t.Fatalf("self-channel = %+v, want timely with δ 0", l)
	}
	if l := tp.LinkOf(1, 3); l != (Link{Class: Timely, Delta: 7}) {
		t.Fatalf("1→3 = %+v, want the link set", l)
	}
	if tp.LinkOf(3, 1).Class != Async {
		t.Fatal("3→1 must keep the default link")
	}
	for _, ch := range [][2]types.ProcID{{0, 1}, {1, 4}, {4, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("LinkOf(%v, %v) on n=3 did not panic", ch[0], ch[1])
				}
			}()
			tp.LinkOf(ch[0], ch[1])
		}()
	}
}

type fixedAdv struct{ d types.Duration }

func (a fixedAdv) MessageDelay(_, _ types.ProcID, _ types.Time, _ any) (types.Duration, bool) {
	return a.d, true
}

func TestAdversaryCannotBreakTimely(t *testing.T) {
	sched := sim.NewScheduler(1)
	var got []arrival
	delta := types.Duration(10 * time.Millisecond)
	nw, err := New(sched, Config{
		Topology: FullySynchronous(2, delta),
		Policy:   FixedDelay{D: 0},
		Adv:      fixedAdv{d: types.Duration(24 * time.Hour)},
	}, collector(sched, &got))
	if err != nil {
		t.Fatal(err)
	}
	nw.Send(1, 2, "m")
	sched.Run(0, 0)
	if got[0].at > types.Time(delta) {
		t.Fatalf("adversary broke the timely bound: %v", got[0].at)
	}
}

func TestAdversaryControlsAsync(t *testing.T) {
	sched := sim.NewScheduler(1)
	var got []arrival
	nw, err := New(sched, Config{
		Topology: FullyAsynchronous(2),
		Policy:   FixedDelay{D: 0},
		Adv:      fixedAdv{d: types.Duration(time.Minute)},
	}, collector(sched, &got))
	if err != nil {
		t.Fatal(err)
	}
	nw.Send(1, 2, "m")
	sched.Run(0, 0)
	if got[0].at != types.Time(time.Minute) {
		t.Fatalf("adversary delay ignored: %v", got[0].at)
	}
}

func TestFIFO(t *testing.T) {
	sched := sim.NewScheduler(1)
	var got []arrival
	// Policy gives decreasing delays → without FIFO the second message
	// would overtake the first.
	delays := []types.Duration{types.Duration(100 * time.Millisecond), types.Duration(1 * time.Millisecond)}
	i := 0
	nw, err := New(sched, Config{
		Topology: FullyAsynchronous(2),
		Policy: DelayFunc(func(_, _ types.ProcID, _ types.Time, _ *rand.Rand) types.Duration {
			d := delays[i%len(delays)]
			i++
			return d
		}),
		FIFO: true,
	}, collector(sched, &got))
	if err != nil {
		t.Fatal(err)
	}
	nw.Send(1, 2, "first")
	nw.Send(1, 2, "second")
	sched.Run(0, 0)
	if got[0].payload != "first" || got[1].payload != "second" {
		t.Fatalf("FIFO violated: %v then %v", got[0].payload, got[1].payload)
	}
	if got[1].at < got[0].at {
		t.Fatalf("FIFO watermark violated: %v < %v", got[1].at, got[0].at)
	}
}

func TestNoFIFOAllowsReordering(t *testing.T) {
	sched := sim.NewScheduler(1)
	var got []arrival
	delays := []types.Duration{types.Duration(100 * time.Millisecond), types.Duration(1 * time.Millisecond)}
	i := 0
	nw, err := New(sched, Config{
		Topology: FullyAsynchronous(2),
		Policy: DelayFunc(func(_, _ types.ProcID, _ types.Time, _ *rand.Rand) types.Duration {
			d := delays[i%len(delays)]
			i++
			return d
		}),
	}, collector(sched, &got))
	if err != nil {
		t.Fatal(err)
	}
	nw.Send(1, 2, "first")
	nw.Send(1, 2, "second")
	sched.Run(0, 0)
	if got[0].payload != "second" {
		t.Fatalf("expected reordering without FIFO, got %v first", got[0].payload)
	}
}

func TestPlantBisourceTopology(t *testing.T) {
	spec := BisourceSpec{
		P:     3,
		In:    []types.ProcID{1, 5},
		Out:   []types.ProcID{2, 4},
		GST:   types.Time(time.Second),
		Delta: types.Duration(10 * time.Millisecond),
	}
	tp := PlantBisource(7, spec)
	in := tp.TimelyIn(3)
	out := tp.TimelyOut(3)
	if !in.Has(1) || !in.Has(5) || !in.Has(3) || in.Len() != 3 {
		t.Fatalf("TimelyIn = %v", in)
	}
	if !out.Has(2) || !out.Has(4) || !out.Has(3) || out.Len() != 3 {
		t.Fatalf("TimelyOut = %v", out)
	}
	// Other channels stay async.
	if tp.LinkOf(2, 6).Class != Async {
		t.Fatal("unrelated channel not async")
	}
	if tp.LinkOf(3, 1).Class != Async {
		t.Fatal("bisource out-channel to non-Out peer must stay async")
	}
	// GST=0 plants an immediate bisource (Timely class).
	tp0 := PlantBisource(7, BisourceSpec{P: 3, In: []types.ProcID{1}, Out: []types.ProcID{2}, Delta: 1})
	if tp0.LinkOf(1, 3).Class != Timely {
		t.Fatal("GST=0 must produce Timely links")
	}
}

func TestTraceAndCounters(t *testing.T) {
	sched := sim.NewScheduler(1)
	log := trace.NewLog()
	var got []arrival
	nw, err := New(sched, Config{
		Topology: FullySynchronous(2, 1),
		Policy:   FixedDelay{D: 0},
		Trace:    log,
	}, collector(sched, &got))
	if err != nil {
		t.Fatal(err)
	}
	nw.Send(1, 2, "m")
	nw.Send(2, 1, "m2")
	sched.Run(0, 0)
	if nw.Sent() != 2 {
		t.Fatalf("Sent = %d", nw.Sent())
	}
	if sends := log.Filter(trace.ByKind(trace.KindSend)); len(sends) != 2 {
		t.Fatalf("trace sends = %d", len(sends))
	}
	if delivers := log.Filter(trace.ByKind(trace.KindDeliver)); len(delivers) != 2 {
		t.Fatalf("trace delivers = %d", len(delivers))
	}
}

func TestNewValidation(t *testing.T) {
	sched := sim.NewScheduler(1)
	if _, err := New(sched, Config{}, func(_, _ types.ProcID, _ any) {}); err == nil {
		t.Error("nil topology must be rejected")
	}
	if _, err := New(sched, Config{Topology: FullyAsynchronous(2)}, nil); err == nil {
		t.Error("nil receiver must be rejected")
	}
}

func TestClassString(t *testing.T) {
	if Async.String() != "async" || Timely.String() != "timely" || EventuallyTimely.String() != "◇timely" {
		t.Error("class names wrong")
	}
	if Class(9).String() != "Class(9)" {
		t.Error("unknown class name wrong")
	}
}

// TestLinkClassDelayDeterministicClasses checks that the per-link class
// assignment is a pure function of the seed and that draws stay inside
// the assigned band.
func TestLinkClassDelayDeterministicClasses(t *testing.T) {
	p := LinkClassDelay{Seed: 42}
	q := LinkClassDelay{Seed: 42}
	other := LinkClassDelay{Seed: 43}
	differs := false
	for i := 1; i <= 5; i++ {
		for j := 1; j <= 5; j++ {
			from, to := types.ProcID(i), types.ProcID(j)
			if p.Class(from, to) != q.Class(from, to) {
				t.Fatalf("class of %v→%v differs across identical seeds", from, to)
			}
			if p.Class(from, to) != other.Class(from, to) {
				differs = true
			}
		}
	}
	if !differs {
		t.Error("seeds 42 and 43 assigned identical classes on every link")
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		band := DefaultBands[p.Class(1, 2)]
		d := p.Delay(1, 2, 0, rng)
		if d < band.Min || d > band.Max {
			t.Fatalf("delay %v outside band [%v, %v]", d, band.Min, band.Max)
		}
	}
}

// TestLinkClassDelayBurst checks the congestion-spike path.
func TestLinkClassDelayBurst(t *testing.T) {
	p := LinkClassDelay{Seed: 7, BurstProb: 1.0, BurstDelay: types.Duration(time.Second)}
	rng := rand.New(rand.NewSource(1))
	if d := p.Delay(1, 2, 0, rng); d < types.Duration(time.Second) {
		t.Fatalf("burst not applied: %v", d)
	}
}

// dropAll is a Dropper that severs 1→2 before t=50ms.
type dropAll struct{}

func (dropAll) MessageDelay(types.ProcID, types.ProcID, types.Time, any) (types.Duration, bool) {
	return 0, false
}
func (dropAll) DropMessage(from, to types.ProcID, at types.Time, _ any) bool {
	return from == 1 && to == 2 && at < types.Time(50*time.Millisecond)
}

// TestDropperLosesMessages: a Dropper adversary destroys claimed
// messages outright — even on a timely channel (drops run BEFORE the
// timeliness clamp) — while unclaimed traffic flows and the self-channel
// is exempt.
func TestDropperLosesMessages(t *testing.T) {
	sched := sim.NewScheduler(1)
	var got []arrival
	tp := FullySynchronous(3, types.Duration(5*time.Millisecond))
	nw, err := New(sched, Config{
		Topology: tp,
		Policy:   FixedDelay{D: types.Duration(time.Millisecond)},
		Adv:      dropAll{},
	}, collector(sched, &got))
	if err != nil {
		t.Fatal(err)
	}
	nw.Send(1, 2, "lost")    // severed
	nw.Send(1, 3, "flows")   // different destination
	nw.Send(1, 1, "self-ok") // self-channel exempt by construction
	// Advance the virtual clock past the heal instant before re-sending.
	sched.After(types.Duration(60*time.Millisecond), func() { nw.Send(1, 2, "post-heal") })
	sched.Run(0, 0)
	if nw.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", nw.Dropped())
	}
	if nw.Sent() != 4 {
		t.Fatalf("sent = %d, want 4 (drops still count as sends)", nw.Sent())
	}
	delivered := map[any]bool{}
	for _, a := range got {
		delivered[a.payload] = true
	}
	if delivered["lost"] || !delivered["flows"] || !delivered["self-ok"] || !delivered["post-heal"] {
		t.Fatalf("deliveries: %v", got)
	}
}
