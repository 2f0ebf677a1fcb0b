package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/httpapi"
	"repro/internal/kv"
	"repro/internal/log"
	"repro/internal/network"
	"repro/internal/netx"
	"repro/internal/proto"
	"repro/internal/rb"
	"repro/internal/rt"
	"repro/internal/runner"
	"repro/internal/sm"
	"repro/internal/store"
	"repro/internal/txpool"
	"repro/internal/types"
	"repro/internal/wire"
)

// The layer harness calls each layer's public functions in this process
// with fixed inputs and fixed iteration counts, and records spans from
// out here: nothing inside the layers is instrumented. Each metric names
// the commit-latency stage it feeds in README.md. The inputs do not
// depend on --seed, so a run-to-run difference is noise, not input.

// spanRounds spans of iters calls each are timed; the median span gives
// ns/op, so one descheduling does not move the figure.
const spanRounds = 9

// sink keeps results alive so the compiler cannot drop the measured call.
var sink any

// timeOp returns the median ns per call of fn and its allocations per
// call.
func timeOp(iters int, fn func(i int)) (nsPerOp, allocsPerOp float64) {
	fn(0) // first-call effects (lazy init, cold caches) stay out
	var spans []float64
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for r := 0; r < spanRounds; r++ {
		start := time.Now()
		for i := 0; i < iters; i++ {
			fn(i)
		}
		spans = append(spans, float64(time.Since(start).Nanoseconds())/float64(iters))
	}
	runtime.ReadMemStats(&m1)
	return median(spans), float64(m1.Mallocs-m0.Mallocs) / float64(spanRounds*iters)
}

// harnessCommands is the 16-command batch of 64-byte puts the codec
// spans carry (a full live batch).
func harnessCommands(n int) []types.Value {
	cmds := make([]types.Value, n)
	for i := range cmds {
		cmds[i] = kv.Command{Op: kv.OpPut, Client: uint64(i%4 + 1), Seq: uint64(i/4 + 1),
			Key: fmt.Sprintf("s1-k%03d", i), Val: fmt.Sprintf("%064d", i)}.Encode()
	}
	return cmds
}

// harnessEntries is a 20-entry coalesced vector: echoes by hash and
// readies for five instances.
func harnessEntries() []rb.Entry {
	entries := make([]rb.Entry, 20)
	for i := range entries {
		e := rb.Entry{Kind: proto.MsgRBEcho, Tag: proto.Tag{Mod: proto.ModConsCB0}, Origin: types.ProcID(i%4 + 1),
			Instance: types.Instance(100 + i/4), Hashed: true, Val: types.Value(fmt.Sprintf("%0*d", rb.HashLen, i))}
		if i%2 == 1 {
			e.Kind = proto.MsgRBReady
		}
		entries[i] = e
	}
	return entries
}

func layerHarness(env *benchEnv, res *result) error {
	steps := []func(*benchEnv, *result) error{
		harnessCodecs, harnessNetx, harnessRT, harnessCore,
		harnessKV, harnessSM, harnessStore, harnessEdge,
	}
	for _, step := range steps {
		if err := step(env, res); err != nil {
			return fmt.Errorf("layer harness: %w", err)
		}
	}
	return nil
}

// harnessCodecs: wire, the relay vector codec and the batch codec.
func harnessCodecs(_ *benchEnv, res *result) error {
	cmds := harnessCommands(16)
	entries := harnessEntries()
	vec, err := rb.EncodeEntries(entries)
	if err != nil {
		return err
	}
	msgs := []proto.Message{
		{Kind: proto.MsgRBInit, Tag: proto.Tag{Mod: proto.ModConsCB0}, Instance: 100, Origin: 1, Val: log.EncodeBatch(cmds)},
		{Kind: proto.MsgRBVector, Tag: proto.Tag{Mod: proto.ModRBRelay}, Val: types.Value(vec)},
	}
	var frames [][]byte
	for _, m := range msgs {
		b, err := wire.Encode(m)
		if err != nil {
			return err
		}
		frames = append(frames, b)
	}
	// One op = one message, the INIT and the VECTOR alternating.
	ns, allocs := timeOp(20000, func(i int) { sink, _ = wire.Encode(msgs[i%2]) })
	res.set("wire.encode_ns", ns)
	res.set("wire.encode_allocs", allocs)
	ns, allocs = timeOp(20000, func(i int) { sink, _ = wire.Decode(frames[i%2]) })
	res.set("wire.decode_ns", ns)
	res.set("wire.decode_allocs", allocs)

	ns, _ = timeOp(20000, func(int) { sink, _ = rb.EncodeEntries(entries) })
	res.set("rb.vector_encode_ns", ns)
	ns, _ = timeOp(20000, func(int) { sink, _ = rb.DecodeEntries(types.Value(vec)) })
	res.set("rb.vector_decode_ns", ns)

	ns, _ = timeOp(20000, func(int) { sink, _ = log.DecodeBatch(log.EncodeBatch(cmds)) })
	res.set("log.batch_codec_ns", ns)
	return nil
}

// harnessNetx: two real transports on loopback — one-way frame rate and
// ping-pong round trip, with the live 16-command INIT as the frame.
func harnessNetx(_ *benchEnv, res *result) error {
	addrs, err := reserveAddrs(2)
	if err != nil {
		return err
	}
	book := map[types.ProcID]string{1: addrs[0], 2: addrs[1]}
	msg := proto.Message{Kind: proto.MsgRBInit, Tag: proto.Tag{Mod: proto.ModConsCB0}, Instance: 1, Origin: 1,
		Val: log.EncodeBatch(harnessCommands(16))}

	atA := make(chan struct{}, 1) // a frame reached A
	atB := make(chan struct{}, 1) // the counted batch fully reached B
	var pong atomic.Bool          // B answers every frame
	var want, got atomic.Int64    // the one-way phase counts arrivals at B
	var a, b *netx.Transport
	a, err = netx.Listen(netx.Config{Self: 1, Addrs: book, Recv: func(types.ProcID, proto.Message) { atA <- struct{}{} }})
	if err != nil {
		return err
	}
	defer a.Close()
	b, err = netx.Listen(netx.Config{Self: 2, Addrs: book, Recv: func(types.ProcID, proto.Message) {
		if pong.Load() {
			b.Send(1, msg)
			return
		}
		if got.Add(1) == want.Load() {
			atB <- struct{}{}
		}
	}})
	if err != nil {
		return err
	}
	defer b.Close()

	wait := func(ch chan struct{}, what string) error {
		select {
		case <-ch:
			return nil
		case <-time.After(10 * time.Second):
			return fmt.Errorf("netx loopback: %s never arrived", what)
		}
	}
	// Connect and warm both directions.
	pong.Store(true)
	if err := a.Send(2, msg); err != nil {
		return err
	}
	if err := wait(atA, "warm-up echo"); err != nil {
		return err
	}

	const rtts = 2000
	start := time.Now()
	for i := 0; i < rtts; i++ {
		if err := a.Send(2, msg); err != nil {
			return err
		}
		if err := wait(atA, "echo"); err != nil {
			return err
		}
	}
	res.set("netx.loopback_rtt_us", float64(time.Since(start).Microseconds())/rtts)

	const frames = 20000
	want.Store(frames)
	pong.Store(false)
	start = time.Now()
	for i := 0; i < frames; i++ {
		if err := a.Send(2, msg); err != nil {
			return err
		}
	}
	if err := wait(atB, "the last frame"); err != nil {
		return err
	}
	res.set("netx.loopback_frames_per_s", frames/time.Since(start).Seconds())
	return nil
}

// nullTransport drops outbound messages: the rt span needs a node, not
// peers.
type nullTransport struct{}

func (nullTransport) Send(types.ProcID, proto.Message) error { return nil }

// harnessRT: Post → the closure running on the node loop → back.
func harnessRT(_ *benchEnv, res *result) error {
	node, err := rt.NewNode(rt.NodeConfig{ID: 1, Params: types.Params{N: 4, T: 1}, Transport: nullTransport{}})
	if err != nil {
		return err
	}
	node.Start(func(proto.Env) proto.Handler { return proto.HandlerFunc(func(types.ProcID, proto.Message) {}) })
	defer node.Stop()
	done := make(chan struct{}, 1)
	ns, _ := timeOp(5000, func(int) {
		node.Post(func() { done <- struct{}{} })
		<-done
	})
	res.set("rt.post_handle_us", ns/1e3)
	return nil
}

// harnessCore: one single-shot n=4 consensus instance on the simulator,
// fully synchronous, everyone proposing the same value.
func harnessCore(_ *benchEnv, res *result) error {
	spec := runner.Spec{
		Params:   types.Params{N: 4, T: 1, M: 2},
		Topology: network.FullySynchronous(4, types.Duration(2*time.Millisecond)),
		Seed:     1,
		Proposals: map[types.ProcID]types.Value{
			1: "a", 2: "a", 3: "a", 4: "a",
		},
	}
	spec.Engine.TimeUnit = types.Duration(50 * time.Millisecond)
	var last *runner.Result
	var runErr error
	ns, _ := timeOp(100, func(int) {
		r, err := runner.Run(spec)
		if err != nil {
			runErr = err
			return
		}
		last = r
	})
	if runErr != nil {
		return runErr
	}
	if v, ok := last.CommonDecision(); !ok || v != "a" {
		return fmt.Errorf("core: single-shot instance did not decide the unanimous proposal")
	}
	res.set("core.decide_us", ns/1e3)
	res.set("core.decide_msgs", float64(last.Messages))
	res.set("core.decide_rounds", float64(last.MaxDecideRound()))
	return nil
}

// harnessKV: the state machine alone, at 2 000 keys.
func harnessKV(_ *benchEnv, res *result) error {
	const keys = 2000
	s := kv.NewStore()
	next := make([]uint64, keys) // per-session sequence numbers: applies must not hit the dedup path
	enc := func(k int) types.Value {
		next[k]++
		return kv.Command{Op: kv.OpPut, Client: uint64(k + 1), Seq: next[k], Key: fmt.Sprintf("key-%04d", k), Val: fmt.Sprintf("%064d", next[k])}.Encode()
	}
	for k := 0; k < keys; k++ {
		s.Apply(enc(k))
	}
	// Encoding is outside the span: pre-encode one round of commands.
	const iters = 2000
	batch := make([]types.Value, (spanRounds+1)*iters)
	for i := range batch {
		batch[i] = enc(i % keys)
	}
	n := 0
	ns, _ := timeOp(iters, func(int) { sink = s.Apply(batch[n]); n++ })
	res.set("kv.apply_ns", ns)

	var snap []byte
	ns, _ = timeOp(20, func(int) { snap = s.Snapshot() })
	res.set("kv.snapshot_us", ns/1e3)
	var restoreErr error
	ns, _ = timeOp(20, func(int) {
		if err := kv.NewStore().Restore(snap); err != nil {
			restoreErr = err
		}
	})
	res.set("kv.restore_us", ns/1e3)
	return restoreErr
}

// harnessSM: the applier's commit path with the write-ahead discipline
// on (store.Memory), one entry per instance, snapshots off so the span
// is OnCommit+OnApply and nothing else.
func harnessSM(_ *benchEnv, res *result) error {
	app, err := sm.New(sm.Config{Machine: kv.NewStore(), Persist: store.NewMemory()})
	if err != nil {
		return err
	}
	const iters = 2000
	cmds := make([]types.Value, (spanRounds+1)*iters)
	for i := range cmds {
		cmds[i] = kv.Command{Op: kv.OpPut, Client: 1, Seq: uint64(i + 1), Key: fmt.Sprintf("key-%03d", i%128), Val: fmt.Sprintf("%064d", i)}.Encode()
	}
	n := 0
	ns, _ := timeOp(iters, func(int) {
		app.OnCommit(log.Entry{Index: n, Instance: types.Instance(n), Cmd: cmds[n]})
		app.OnApply(types.Instance(n), 1)
		n++
	})
	if err := app.Err(); err != nil {
		return err
	}
	res.set("sm.commit_apply_ns", ns)
	return nil
}

// harnessStore: store.File on the filesystem the durable workload uses.
// Each call is its own span here — an fsync is long enough to time alone.
func harnessStore(env *benchEnv, res *result) error {
	dir, err := os.MkdirTemp(env.runDir, "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	f, err := store.OpenFile(dir)
	if err != nil {
		return err
	}
	if _, err := f.Recover(); err != nil {
		return err
	}
	cmd := harnessCommands(1)[0]
	span := func(fn func() error) (float64, error) {
		start := time.Now()
		err := fn()
		return float64(time.Since(start).Nanoseconds()) / 1e3, err
	}
	var appends, marks, stamps []float64
	for i := 0; i < 200; i++ {
		us, err := span(func() error { return f.AppendEntry(log.Entry{Index: i, Instance: types.Instance(i), Cmd: cmd}) })
		if err != nil {
			return err
		}
		appends = append(appends, us)
		if us, err = span(func() error { return f.MarkApplied(types.Instance(i + 1)) }); err != nil {
			return err
		}
		marks = append(marks, us)
	}
	payload := bytes.Repeat([]byte{0xA5}, 64<<10)
	for i := 0; i < 20; i++ {
		us, err := span(func() error { return f.StampSnapshot(i, types.Instance(i), payload) })
		if err != nil {
			return err
		}
		stamps = append(stamps, us)
	}
	res.set("store.append_us", median(appends))
	res.set("store.mark_applied_us", median(marks))
	res.set("store.stamp_us", median(stamps))
	if err := f.Close(); err != nil {
		return err
	}

	// Recovery of a 10 000-entry WAL (no snapshot in front of it).
	rdir, err := os.MkdirTemp(env.runDir, "recover-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(rdir)
	if f, err = store.OpenFile(rdir); err != nil {
		return err
	}
	if _, err := f.Recover(); err != nil {
		return err
	}
	const walEntries = 10000
	for i := 0; i < walEntries; i++ {
		if err := f.AppendEntry(log.Entry{Index: i, Instance: types.Instance(i / 16), Cmd: cmd}); err != nil {
			return err
		}
	}
	if err := f.MarkApplied(walEntries / 16); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	var recovers []float64
	for i := 0; i < 5; i++ {
		g, err := store.OpenFile(rdir)
		if err != nil {
			return err
		}
		start := time.Now()
		rec, err := g.Recover()
		recovers = append(recovers, float64(time.Since(start).Nanoseconds())/1e6)
		g.Close()
		if err != nil {
			return err
		}
		if len(rec.Entries) != walEntries {
			return fmt.Errorf("store: recovered %d of %d entries", len(rec.Entries), walEntries)
		}
	}
	res.set("store.recover_ms", median(recovers))
	return nil
}

// harnessEdge: the admission pool alone, and the HTTP handler around it
// with a Propose that resolves at once — what the edge costs when the
// ordering layer costs nothing.
func harnessEdge(_ *benchEnv, res *result) error {
	pool := txpool.New(txpool.Config{Capacity: 1024})
	resp := kv.Response{Status: kv.StatusOK}.Encode()
	var seq uint64
	var admitErr error
	ns, _ := timeOp(20000, func(int) {
		seq++
		k := txpool.Key{Client: 1, Seq: seq}
		ch, _, err := pool.Admit(k, "")
		if err != nil {
			admitErr = err
			return
		}
		pool.Resolve(k, resp)
		sink = <-ch
	})
	if admitErr != nil {
		return admitErr
	}
	res.set("txpool.admit_resolve_ns", ns)

	api, err := httpapi.New(httpapi.Config{
		Pool: pool,
		Propose: func(c kv.Command, _ types.Value) error {
			pool.Resolve(txpool.Key{Client: c.Client, Seq: c.Seq}, resp)
			return nil
		},
		Read: func(string) (string, bool, error) { return "", false, nil },
	})
	if err != nil {
		return err
	}
	status := http.StatusOK
	ns, _ = timeOp(5000, func(int) {
		seq++
		body, _ := json.Marshal(txReq{Client: 2, Seq: seq, Op: "put", Key: "s1-k000", Value: fmt.Sprintf("%064d", seq)})
		rec := httptest.NewRecorder()
		api.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/tx", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			status = rec.Code
		}
	})
	if status != http.StatusOK {
		return fmt.Errorf("httpapi: POST /v1/tx answered HTTP %d", status)
	}
	res.set("httpapi.tx_overhead_us", ns/1e3)
	return nil
}
