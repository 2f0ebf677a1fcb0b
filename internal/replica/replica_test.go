package replica_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/kv"
	"repro/internal/log"
	"repro/internal/network"
	"repro/internal/proto"
	"repro/internal/replica"
	"repro/internal/rt"
	"repro/internal/sm"
	"repro/internal/store"
	"repro/internal/types"
)

var params = types.Params{N: 4, T: 1}

// workload is order-independent: one put per distinct client and key, so
// the final machine state (data, session table, duplicate counters) is a
// function of the committed SET, whatever order a runtime decides it in.
func workload() []types.Value {
	cmds := make([]types.Value, 12)
	for i := range cmds {
		c := kv.Command{Op: kv.OpPut, Client: uint64(i + 1), Seq: 1, Key: fmt.Sprintf("key-%02d", i), Val: fmt.Sprintf("val-%02d", i)}
		cmds[i] = c.Encode()
	}
	return cmds
}

// config is THE replica configuration of this file: both runtimes and
// every case below assemble from it, differing only in the environment,
// the persister and who listens to commits.
func config(env proto.Env, persist store.Persister, onCommit func(log.Entry)) replica.Config {
	cfg := replica.Config{
		Env:           env,
		Persist:       persist,
		SnapshotEvery: 4,
		Compact:       true,
		Transfer:      true,
		OnCommit:      onCommit,
	}
	cfg.Log.BatchSize = 4
	cfg.Log.Pipeline = 2
	cfg.Log.Target = len(workload())
	cfg.Log.Engine.TimeUnit = types.Duration(10 * time.Millisecond)
	return cfg
}

// runSim runs the assembly on the deterministic kernel until every
// replica committed the workload and returns the replicas.
func runSim(t *testing.T, persist func(types.ProcID) store.Persister) map[types.ProcID]*replica.Replica {
	t.Helper()
	w, err := harness.New(harness.Config{
		Params:   params,
		Topology: network.FullySynchronous(params.N, types.Duration(2*time.Millisecond)),
		Seed:     1,
		BotOK:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	reps := make(map[types.ProcID]*replica.Replica)
	for _, id := range params.AllProcs() {
		err := w.SetBehavior(id, func(env proto.Env) proto.Handler {
			rep, err := replica.New(config(env, persist(id), nil))
			if err != nil {
				t.Fatalf("replica %v: %v", id, err)
			}
			reps[id] = rep
			env.SetTimer(0, func() {
				for _, c := range workload() {
					_ = rep.Engine.Submit(c)
				}
				if err := rep.Engine.Start(); err != nil {
					t.Errorf("replica %v: start: %v", id, err)
				}
			})
			return rep.Handler
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// The transfer layer's stall probe re-arms forever, so the world never
	// drains; a virtual minute is far past the workload.
	w.Run(types.Time(time.Minute), 0)
	for id, rep := range reps {
		if got := rep.Applier.Applied(); got != len(workload()) {
			t.Fatalf("sim replica %v applied %d of %d", id, got, len(workload()))
		}
	}
	return reps
}

func volatile(types.ProcID) store.Persister { return nil }

// runLive assembles the one Config under four rt.Nodes on mn, submits
// submit(id)'s commands at every replica but silent (0 = none silent),
// whose node runs a handler that ignores everything, and returns the
// applied StateDigest of each live replica once it has committed the whole
// workload.
func runLive(t *testing.T, mn *rt.MemNetwork, silent types.ProcID, submit func(types.ProcID) []types.Value) map[types.ProcID][32]byte {
	t.Helper()
	nodes := make(map[types.ProcID]*rt.Node)
	reps := make(map[types.ProcID]*replica.Replica)
	done := make(map[types.ProcID]chan struct{})
	for _, id := range params.AllProcs() {
		node, err := rt.NewNode(rt.NodeConfig{ID: id, Params: params, Transport: mn.Attach(id)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(node.Stop)
		mn.Register(id, node)
		if id == silent {
			node.Start(func(proto.Env) proto.Handler {
				return proto.HandlerFunc(func(types.ProcID, proto.Message) {})
			})
			continue
		}
		nodes[id], done[id] = node, make(chan struct{})
	}
	for id, node := range nodes {
		var newErr error
		node.Start(func(env proto.Env) proto.Handler {
			committed := 0
			reps[id], newErr = replica.New(config(env, nil, func(log.Entry) {
				if committed++; committed == len(workload()) {
					close(done[id])
				}
			}))
			if newErr != nil {
				return proto.HandlerFunc(func(types.ProcID, proto.Message) {})
			}
			return reps[id].Handler
		})
		if newErr != nil {
			t.Fatalf("replica %v: %v", id, newErr)
		}
	}
	for id, node := range nodes {
		rep, cmds := reps[id], submit(id)
		node.Post(func() {
			for _, c := range cmds {
				_ = rep.Engine.Submit(c)
			}
			if err := rep.Engine.Start(); err != nil {
				t.Errorf("replica %v: start: %v", id, err)
			}
		})
	}
	digests := make(map[types.ProcID][32]byte)
	timeout := time.After(time.Minute)
	for id, node := range nodes {
		select {
		case <-done[id]:
		case <-timeout:
			t.Fatalf("live replica %v never committed the workload", id)
		}
		got := make(chan [32]byte, 1)
		node.Post(func() { got <- reps[id].Applier.StateDigest() })
		digests[id] = <-got
	}
	return digests
}

// TestSameConfigBothRuntimes: the one Config, assembled under
// harness.World and under four rt.Nodes on rt.MemNetwork, ends in the
// same machine state — the simulator exercises the object production runs.
func TestSameConfigBothRuntimes(t *testing.T) {
	want := runSim(t, volatile)[1].Applier.StateDigest()
	all := func(types.ProcID) []types.Value { return workload() }
	for id, d := range runLive(t, rt.NewMemNetwork(), 0, all) {
		if d != want {
			t.Errorf("live replica %v state %x, simulated %x", id, d[:8], want[:8])
		}
	}
}

// TestSilentReplicaOverMemNetwork: with replica 4 silent from the start
// (within t = 1) and every link delayed by its own 0–2 ms, replicas 1–3
// each submit a disjoint third of the workload and still all commit all
// of it into one machine state: n−t quorums, joins and the commands INITs
// forward carry the rest in real time.
func TestSilentReplicaOverMemNetwork(t *testing.T) {
	mn := rt.NewMemNetwork()
	mn.Delay = func(from, to types.ProcID) time.Duration {
		return time.Duration((int(from)+int(to))%3) * time.Millisecond
	}
	third := func(id types.ProcID) []types.Value {
		var mine []types.Value
		for i, c := range workload() {
			if i%3 == int(id)-1 {
				mine = append(mine, c)
			}
		}
		return mine
	}
	digests := runLive(t, mn, 4, third)
	if len(digests) != 3 {
		t.Fatalf("%d live replicas, want 3", len(digests))
	}
	want := digests[1]
	for id, d := range digests {
		if d != want {
			t.Errorf("replica %v state %x, p1 %x", id, d[:8], want[:8])
		}
	}
}

// TestTypedNilPersisterIsVolatile: a nil pointer inside the Persister
// interface must not reach the applier, whose nil check it would pass
// before panicking on the first commit.
func TestTypedNilPersisterIsVolatile(t *testing.T) {
	for name, p := range map[string]store.Persister{
		"File":   (*store.File)(nil),
		"Memory": (*store.Memory)(nil),
	} {
		t.Run(name, func(t *testing.T) {
			for id, rep := range runSim(t, func(types.ProcID) store.Persister { return p }) {
				if err := rep.Applier.Err(); err != nil {
					t.Fatalf("replica %v poisoned: %v", id, err)
				}
			}
		})
	}
}

// TestBootStatsMatchSMBoot: New over a used medium reports exactly what
// sm.Boot alone recovers from it.
func TestBootStatsMatchSMBoot(t *testing.T) {
	disks := make(map[types.ProcID]*store.Memory)
	for _, id := range params.AllProcs() {
		disks[id] = store.NewMemory()
	}
	runSim(t, func(id types.ProcID) store.Persister { return disks[id] })

	w, err := harness.New(harness.Config{Params: params, BotOK: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg := config(w.Env(1), disks[1], nil)
	app, err := sm.New(sm.Config{Machine: kv.NewStore(), SnapshotEvery: cfg.SnapshotEvery})
	if err != nil {
		t.Fatal(err)
	}
	lc := cfg.Log
	lc.Env = cfg.Env
	eng, err := log.New(lc)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sm.Boot(disks[1], app, eng)
	if err != nil {
		t.Fatal(err)
	}
	if !want.HadSnapshot || want.Boundary == 0 {
		t.Fatalf("the medium holds nothing worth booting from: %+v", want)
	}
	rep, err := replica.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Boot != want {
		t.Fatalf("New booted %+v, sm.Boot reports %+v", rep.Boot, want)
	}
	if rep.Applier.Applied() != app.Applied() || rep.Applier.StateDigest() != app.StateDigest() {
		t.Fatalf("New restored %d entries, sm.Boot %d (or different state)", rep.Applier.Applied(), app.Applied())
	}
}

// TestCommandlessInstancesStayCompacted pins the idle wedge. The replica
// assembly runs with minsync-node's default flags while a Byzantine peer
// keeps naming the next instance — an empty proposal for instance i+1 the
// moment it sees traffic for i — so the three correct replicas join and
// decide 4 000 consecutive instances that carry no command. Snapshots by
// entry count never fire on such a run; without the instance-count floor
// (DefaultSnapshotRefresh) nothing is compacted: every instance engine
// stays, and past instance ≈ 4 090 the relay's first-message table is
// full, every message of a new instance is dropped and the cluster stops
// deciding for good. With it the instances are applied and retired as
// they come, and a command submitted afterwards commits.
func TestCommandlessInstancesStayCompacted(t *testing.T) {
	const empties = 4000
	w, err := harness.New(harness.Config{
		Params:   params,
		Topology: network.FullySynchronous(params.N, types.Duration(2*time.Millisecond)),
		Seed:     1,
		BotOK:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	correct := params.AllProcs()[:3]
	reps := make(map[types.ProcID]*replica.Replica)
	for _, id := range correct {
		err := w.SetBehavior(id, func(env proto.Env) proto.Handler {
			cfg := replica.Config{ // the flag defaults of cmd/minsync-node
				Env:             env,
				SnapshotEvery:   16,
				SnapshotRefresh: replica.DefaultSnapshotRefresh,
				Compact:         true,
				Transfer:        true,
				TransferRetry:   time.Second,
				TransferProbe:   2 * time.Second,
			}
			cfg.Log.BatchSize, cfg.Log.Pipeline = 16, 4
			cfg.Log.Engine.TimeUnit = types.Duration(50 * time.Millisecond)
			rep, err := replica.New(cfg)
			if err != nil {
				t.Fatalf("replica %v: %v", id, err)
			}
			reps[id] = rep
			env.SetTimer(0, func() {
				if err := rep.Engine.Start(); err != nil {
					t.Errorf("replica %v: start: %v", id, err)
				}
			})
			return rep.Handler
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	err = w.SetBehavior(4, func(env proto.Env) proto.Handler {
		named := types.Instance(0)
		name := func(upTo types.Instance) {
			for ; named <= upTo && named < empties; named++ {
				env.Broadcast(proto.Message{
					Kind: proto.MsgRBInit, Tag: proto.Tag{Mod: proto.ModConsCB0},
					Instance: named, Origin: 4, Val: log.EncodeBatch(nil),
				})
			}
		}
		env.SetTimer(0, func() { name(0) })
		return proto.HandlerFunc(func(from types.ProcID, m proto.Message) {
			if m.Kind == proto.MsgRBInit && from != env.ID() {
				name(m.Instance + 1)
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}

	idle := func() bool {
		for _, rep := range reps {
			if rep.Engine.Applied() < empties || !rep.Engine.Quiescent() {
				return false
			}
		}
		return true
	}
	for at := types.Time(time.Second); !idle(); at += types.Time(time.Second) {
		if at > types.Time(10*time.Minute) {
			for id, rep := range reps {
				t.Logf("replica %v: applied %v instances, floor %v, %d in flight, relay scope drops %d",
					id, rep.Engine.Applied(), rep.Engine.Floor(), rep.Engine.InFlight(), rep.Engine.Relay().ScopeDrops())
			}
			t.Fatalf("the cluster stopped deciding before instance %d", empties)
		}
		w.Run(at, 0)
	}
	cmd := kv.Command{Op: kv.OpPut, Client: 1, Seq: 1, Key: "after", Val: "the-empties"}.Encode()
	for _, rep := range reps {
		_ = rep.Engine.Submit(cmd)
	}
	w.Run(w.Sched.Now()+types.Time(10*time.Second), 0)
	for id, rep := range reps {
		if rep.Applier.Applied() != 1 || rep.Engine.Committed() != 1 {
			t.Errorf("replica %v applied %d entries after %v instances", id, rep.Applier.Applied(), rep.Engine.Applied())
		}
		if rep.Engine.NoOps() < empties {
			t.Errorf("replica %v: only %d command-less instances, the run proved nothing", id, rep.Engine.NoOps())
		}
		if drops := rep.Engine.Relay().ScopeDrops(); drops != 0 {
			t.Errorf("replica %v: relay dropped %d entries at the dedup-scope cap", id, drops)
		}
		if kept := rep.Engine.Instances(); kept > 2*int(replica.DefaultSnapshotRefresh) {
			t.Errorf("replica %v still holds %d instance engines", id, kept)
		}
	}
}
