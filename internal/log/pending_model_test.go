package log

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/proto"
	"repro/internal/types"
)

// pendingModel is the pending bookkeeping as the engine once kept it:
// three maps (pendingSet, inFlight, committed) and lanes kept sorted by a
// sorted insert on every Submit and a sorted delete on every commit. It
// is the reference the engine's single map and read-time lane merge must
// match decision for decision. It mirrors only the bookkeeping; which
// instances the engine starts is read from the engine (sync).
type pendingModel struct {
	batchSize, pipeline int

	lanes      [][]types.Value
	pendingSet map[types.Value]int
	inFlight   map[types.Value]int
	uncovered  int
	committed  map[types.Value]struct{}
	entries    []Entry
	base       int

	own     map[types.Instance][]types.Value // own batch of each unapplied started instance
	ownProp map[types.Instance]types.Value   // own proposal of each started instance

	applied, nextStart, floor, named types.Instance
}

func newPendingModel(batchSize, pipeline int) *pendingModel {
	return &pendingModel{
		batchSize: batchSize, pipeline: pipeline,
		pendingSet: map[types.Value]int{},
		inFlight:   map[types.Value]int{},
		committed:  map[types.Value]struct{}{},
		own:        map[types.Instance][]types.Value{},
		ownProp:    map[types.Instance]types.Value{},
	}
}

func (o *pendingModel) enqueue(cmd types.Value) {
	if cmd == types.BotValue {
		return
	}
	if _, dup := o.committed[cmd]; dup {
		return
	}
	if _, dup := o.pendingSet[cmd]; dup {
		return
	}
	if o.lanes == nil {
		o.lanes = make([][]types.Value, o.pipeline)
	}
	lane := laneOf(cmd, o.pipeline)
	k, _ := slices.BinarySearch(o.lanes[lane], cmd)
	o.lanes[lane] = slices.Insert(o.lanes[lane], k, cmd)
	o.pendingSet[cmd] = lane
	if o.inFlight[cmd] == 0 {
		o.uncovered++
	}
}

func (o *pendingModel) canonicalBatch(i types.Instance) []types.Value {
	if len(o.pendingSet) == 0 {
		return nil
	}
	home := int(i % types.Instance(o.pipeline))
	var batch []types.Value
	for d := 0; d < o.pipeline && len(batch) < o.batchSize; d++ {
		lane := o.lanes[(home+d)%o.pipeline]
		batch = append(batch, lane[:min(len(lane), o.batchSize-len(batch))]...)
	}
	return batch
}

func (o *pendingModel) start(i types.Instance) []types.Value {
	batch := o.canonicalBatch(i)
	o.own[i] = batch
	o.ownProp[i] = EncodeBatch(batch)
	for _, c := range batch {
		if o.inFlight[c]++; o.inFlight[c] == 1 {
			if _, pending := o.pendingSet[c]; pending {
				o.uncovered--
			}
		}
	}
	return batch
}

func (o *pendingModel) release(i types.Instance) {
	for _, c := range o.own[i] {
		if o.inFlight[c]--; o.inFlight[c] <= 0 {
			delete(o.inFlight, c)
			if _, pending := o.pendingSet[c]; pending {
				o.uncovered++
			}
		}
	}
	delete(o.own, i)
}

// apply applies instance i's decision v and returns what it committed.
func (o *pendingModel) apply(i types.Instance, v types.Value) []types.Value {
	var newly []types.Value
	if cmds, err := DecodeBatch(v); v != types.BotValue && err == nil {
		for _, c := range cmds {
			if _, dup := o.committed[c]; dup {
				continue
			}
			o.committed[c] = struct{}{}
			if lane, ok := o.pendingSet[c]; ok {
				delete(o.pendingSet, c)
				if o.inFlight[c] == 0 {
					o.uncovered--
				}
				k, _ := slices.BinarySearch(o.lanes[lane], c)
				o.lanes[lane] = slices.Delete(o.lanes[lane], k, k+1)
			}
			o.entries = append(o.entries, Entry{Index: o.base + len(o.entries), Instance: i, Cmd: c})
			newly = append(newly, c)
		}
	}
	o.release(i)
	o.applied = i + 1
	o.nextStart = max(o.nextStart, o.applied)
	return newly
}

func (o *pendingModel) compact(floor types.Instance) {
	floor = min(floor, o.applied)
	if floor <= o.floor {
		return
	}
	trim := 0
	for trim < len(o.entries) && o.entries[trim].Instance < floor {
		delete(o.committed, o.entries[trim].Cmd)
		trim++
	}
	o.entries = slices.Clone(o.entries[trim:])
	o.base += trim
	o.floor = floor
}

func (o *pendingModel) install(boundary types.Instance, index int, retained []Entry) {
	for i := o.floor; i < boundary; i++ {
		o.release(i)
		delete(o.ownProp, i)
	}
	for _, e := range o.entries {
		delete(o.committed, e.Cmd)
	}
	o.entries = slices.Clone(retained)
	o.base = index - len(retained)
	for _, e := range o.entries {
		o.committed[e.Cmd] = struct{}{}
	}
	o.lanes = nil
	o.pendingSet = map[types.Value]int{}
	o.uncovered = 0
	o.applied = boundary
	o.floor = boundary
	if len(o.entries) > 0 {
		o.floor = o.entries[0].Instance
	}
	o.nextStart = max(o.nextStart, boundary)
}

// modelRun drives one engine and its model through the same steps and
// compares them after each.
type modelRun struct {
	t       *testing.T
	rng     *rand.Rand
	pool    []types.Value
	eng     *Engine
	o       *pendingModel
	decided map[types.Instance]types.Value // handed to the engine, not yet applied
	commits []types.Value                  // the engine's commits in the instance being applied
	inits   map[[2]int64]bool              // (sender, instance) of every INIT sent
}

const modelBatch, modelPipeline = 3, 4

func (r *modelRun) fresh() {
	r.eng, _ = newTestEngine(r.t, Config{
		BatchSize: modelBatch, Pipeline: modelPipeline,
		OnCommit: func(e Entry) {
			r.sync()
			r.commits = append(r.commits, e.Cmd)
		},
		OnApply: func(i types.Instance, newly int) {
			r.sync()
			want := r.o.apply(i, r.decided[i])
			delete(r.decided, i)
			if !slices.Equal(r.commits, want) || newly != len(want) {
				r.t.Fatalf("instance %v committed %q (newly %d), model %q", i, r.commits, newly, want)
			}
			r.commits = nil
		},
	})
	r.o = newPendingModel(modelBatch, modelPipeline)
	r.decided = map[types.Instance]types.Value{}
	r.inits = map[[2]int64]bool{}
}

// sync has the model start every instance the engine started since the
// last call, in the same state, and checks the proposals agree (by
// encoding: the own batch is gone once the instance applies). An
// instance the engine passed by applying a peer decision was not started.
func (r *modelRun) sync() {
	for j := r.o.nextStart; j < r.eng.nextStart; j++ {
		inst := r.eng.insts[j]
		if inst == nil || inst.proposal == "" {
			continue
		}
		if want := r.o.start(j); inst.proposal != EncodeBatch(want) {
			r.t.Fatalf("instance %v: engine proposed %q, model %q", j, inst.proposal, EncodeBatch(want))
		}
	}
	r.o.nextStart = r.eng.nextStart
}

func (r *modelRun) check(step string) {
	r.t.Helper()
	r.sync()
	o := r.o
	for i := o.applied; i < o.applied+modelPipeline; i++ {
		if got, want := r.eng.canonicalBatch(i), o.canonicalBatch(i); !slices.Equal(got, want) {
			r.t.Fatalf("after %s: canonicalBatch(%v) = %q, model %q", step, i, got, want)
		}
	}
	if r.eng.Pending() != len(o.pendingSet) || r.eng.uncovered != o.uncovered {
		r.t.Fatalf("after %s: pending %d uncovered %d, model %d and %d",
			step, r.eng.Pending(), r.eng.uncovered, len(o.pendingSet), o.uncovered)
	}
	if got, want := r.eng.demanded(), o.uncovered > 0 || o.nextStart < o.named; got != want {
		r.t.Fatalf("after %s: demanded %v, model %v", step, got, want)
	}
	if r.eng.Committed() != o.base+len(o.entries) || r.eng.Applied() != o.applied {
		r.t.Fatalf("after %s: committed %d applied %v, model %d and %v",
			step, r.eng.Committed(), r.eng.Applied(), o.base+len(o.entries), o.applied)
	}
}

func (r *modelRun) cmds(n int) []types.Value {
	out := make([]types.Value, n)
	for k := range out {
		out[k] = r.pool[r.rng.Intn(len(r.pool))]
	}
	return out
}

// decide hands the engine a decision for an undecided instance near the
// apply point: its own batch (or the canonical one), a foreign batch or ⊥.
func (r *modelRun) decide(kind int) string {
	i := r.o.applied + types.Instance(r.rng.Intn(modelPipeline+1))
	if _, done := r.decided[i]; done {
		return "nothing"
	}
	var v types.Value
	switch kind {
	case 0:
		if own, ok := r.o.own[i]; ok {
			v = EncodeBatch(own)
		} else {
			v = EncodeBatch(r.o.canonicalBatch(i))
		}
	case 1:
		v = EncodeBatch(append(r.cmds(r.rng.Intn(modelBatch)), types.Value(fmt.Sprintf("foreign-%d", r.rng.Intn(50)))))
	default:
		v = types.BotValue
	}
	r.decided[i] = v
	r.eng.onInstanceDecided(i, v)
	return fmt.Sprintf("decide(%v, kind %d)", i, kind)
}

// learn delivers a peer's CB[0] INIT carrying a batch for an instance in
// the start window, which the engine enqueues before deciding to start.
func (r *modelRun) learn() string {
	from := types.ProcID(2 + r.rng.Intn(3))
	i := r.o.applied + types.Instance(r.rng.Intn(modelPipeline))
	key := [2]int64{int64(from), int64(i)}
	val := EncodeBatch(r.cmds(1 + r.rng.Intn(modelBatch)))
	// The first-message rule drops a sender's second INIT for an instance,
	// and the engine's own batch teaches it nothing.
	if !r.inits[key] && r.o.ownProp[i] != val {
		cmds, _ := DecodeBatch(val)
		for _, c := range cmds {
			r.o.enqueue(c)
		}
	}
	r.inits[key] = true
	r.o.named = max(r.o.named, i+1)
	r.eng.OnMessage(from, proto.Message{Kind: proto.MsgRBInit, Tag: proto.Tag{Mod: proto.ModConsCB0}, Instance: i, Origin: from, Val: val})
	return fmt.Sprintf("learn(%v from %v)", i, from)
}

// install jumps both to a snapshot boundary past the apply point with a
// retained suffix drawn from the pool.
func (r *modelRun) install() string {
	boundary := r.o.applied + 1 + types.Instance(r.rng.Intn(6))
	index := r.o.base + len(r.o.entries) + r.rng.Intn(4)
	k := min(index, r.rng.Intn(4))
	retained := make([]Entry, k)
	for j := range retained {
		retained[j] = Entry{Index: index - k + j, Instance: max(0, boundary-types.Instance(k-j)), Cmd: r.pool[r.rng.Intn(len(r.pool))]}
	}
	for i := range r.decided {
		if i < boundary {
			delete(r.decided, i)
		}
	}
	r.o.install(boundary, index, retained)
	if err := r.eng.InstallSnapshot(boundary, index, retained); err != nil {
		r.t.Fatal(err)
	}
	return fmt.Sprintf("install(%v, %d)", boundary, index)
}

// resume restarts from durable state: a fresh engine and model resumed
// at the apply point with the retained entries, then started.
func (r *modelRun) resume() string {
	boundary, base, retained := r.o.applied, r.o.base, slices.Clone(r.o.entries)
	r.fresh()
	r.o.entries, r.o.base = retained, base
	for _, e := range retained {
		r.o.committed[e.Cmd] = struct{}{}
	}
	r.o.applied, r.o.nextStart, r.o.floor = boundary, boundary, boundary
	if len(retained) > 0 {
		r.o.floor = min(boundary, retained[0].Instance)
	}
	if err := r.eng.Resume(boundary, base, retained); err != nil {
		r.t.Fatal(err)
	}
	if err := r.eng.Start(); err != nil {
		r.t.Fatal(err)
	}
	return fmt.Sprintf("resume(%v)", boundary)
}

// TestPendingBookkeepingMatchesModel drives random sequences of Submit,
// learn, canonical/foreign/⊥ decisions, Compact, InstallSnapshot and
// Resume through the engine and the reference model; after every step the
// batches, the pending and uncovered counts, the start rule and every
// commit/skip decision must agree.
func TestPendingBookkeepingMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		r := &modelRun{t: t, rng: rand.New(rand.NewSource(seed))}
		for k := 0; k < 24; k++ {
			r.pool = append(r.pool, types.Value(fmt.Sprintf("cmd-%02d", k)))
		}
		r.fresh()
		if err := r.eng.Start(); err != nil {
			t.Fatal(err)
		}
		// A command committed, forgotten by Compact and re-submitted
		// before its lane was read again: it must sit in its lane once.
		c := r.pool[0]
		r.o.enqueue(c)
		_ = r.eng.Submit(c)
		r.check("submit")
		r.decided[0] = EncodeBatch([]types.Value{c})
		r.eng.onInstanceDecided(0, r.decided[0])
		r.o.compact(1)
		r.eng.Compact(1)
		r.o.enqueue(c)
		_ = r.eng.Submit(c)
		r.check("re-submit after compact")

		for step := 0; step < 300; step++ {
			var what string
			switch p := r.rng.Intn(100); {
			case p < 30:
				c := r.pool[r.rng.Intn(len(r.pool))]
				r.o.enqueue(c)
				_ = r.eng.Submit(c)
				what = fmt.Sprintf("submit(%q)", c)
			case p < 45:
				what = r.learn()
			case p < 65:
				what = r.decide(0)
			case p < 75:
				what = r.decide(1)
			case p < 83:
				what = r.decide(2)
			case p < 93:
				floor := r.o.applied - types.Instance(r.rng.Intn(3))
				r.o.compact(floor)
				r.eng.Compact(floor)
				what = fmt.Sprintf("compact(%v)", floor)
			case p < 97:
				what = r.install()
			default:
				what = r.resume()
			}
			r.check(fmt.Sprintf("seed %d step %d %s", seed, step, what))
		}
	}
}

// BenchmarkPendingChurn: enqueue 4 096 commands, then apply 128 canonical
// batches of 32 — the pending bookkeeping of a deep queue draining, with
// no consensus underneath.
func BenchmarkPendingChurn(b *testing.B) {
	const cmds, batches, batch = 4096, 128, 32
	pool := make([]types.Value, cmds)
	for k := range pool {
		pool[k] = types.Value(fmt.Sprintf("cmd-%05d", k))
	}
	b.ReportAllocs()
	for b.Loop() {
		eng, err := New(Config{Env: &stubEnv{id: 1, params: types.Params{N: 4, T: 1}}, BatchSize: batch, Pipeline: 4})
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range pool {
			_ = eng.Submit(c)
		}
		for i := types.Instance(0); i < batches; i++ {
			eng.onInstanceDecided(i, EncodeBatch(eng.canonicalBatch(i)))
		}
		if eng.Committed() != batches*batch {
			b.Fatalf("committed %d, want %d", eng.Committed(), batches*batch)
		}
	}
}
