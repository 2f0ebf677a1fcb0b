package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sync"
	"time"
)

const (
	// liveSessions is the closed-loop client count: each session is a
	// caller that waits for its (client, seq) reply before sending the
	// next request. Two, so the generator stays within the two cores of
	// the reference box alongside the replicas.
	liveSessions = 2
	sessionKeys  = 128
	// opDeadline is the watchdog: an op with no acknowledgement after
	// this long is a counted failure, never a hang.
	opDeadline = 10 * time.Second
)

type opKind int

const (
	opPut opKind = iota
	opOrderedGet
	opLocalGet
)

// op is one generated client operation.
type op struct {
	Kind  opKind
	Key   string
	Value string // puts only; 64 bytes
}

// opGen yields one session's operations. The sequence is a pure function
// of (seed, session): put k → ordered get k → put k' → local get k',
// with each put's key drawn from the session's own 128 keys and its
// 64-byte value drawn from the same stream.
type opGen struct {
	rng     *rand.Rand
	session int
	step    int
	key     string
}

func newOpGen(seed int64, session int) *opGen {
	return &opGen{rng: rand.New(rand.NewSource(seed*1_000_003 + int64(session))), session: session}
}

func (g *opGen) next() op {
	step := g.step % 4
	g.step++
	switch step {
	case 0, 2:
		g.key = fmt.Sprintf("s%d-k%03d", g.session, g.rng.Intn(sessionKeys))
		v := fmt.Sprintf("%016x%016x%016x%016x", g.rng.Uint64(), g.rng.Uint64(), g.rng.Uint64(), g.rng.Uint64())
		return op{Kind: opPut, Key: g.key, Value: v}
	case 1:
		return op{Kind: opOrderedGet, Key: g.key}
	default:
		return op{Kind: opLocalGet, Key: g.key}
	}
}

// txReq / txResp / readResp mirror the HTTP edge's JSON contract
// (docs/api.md). Declared here, not imported: the generator is a client.
type txReq struct {
	Client    uint64 `json:"client"`
	Seq       uint64 `json:"seq"`
	Op        string `json:"op"`
	Key       string `json:"key"`
	Value     string `json:"value,omitempty"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
}

type txResp struct {
	Status string `json:"status"`
	Value  string `json:"value"`
}

type readResp struct {
	Value string `json:"value"`
}

// phaseStats is what one session observed during one phase (warm-up or
// the measured window).
type phaseStats struct {
	commitMS    []float64 // one per acknowledged ordered command, retries included
	localReadUS []float64 // one per answered local read
	attempted   int       // ops started
	failed      int       // timed out, refused after retries, or answered with the wrong value
	retries     int       // extra attempts beyond the first
	shed        int       // 429 answers
	problems    []string  // first few failures, for the report
}

func (p *phaseStats) fail(format string, args ...any) {
	p.failed++
	if len(p.problems) < 5 {
		p.problems = append(p.problems, fmt.Sprintf(format, args...))
	}
}

// session is one closed-loop client pinned to one replica.
type session struct {
	id     int // 1-based; also the client id of its commands
	target *replica
	hc     *http.Client
	gen    *opGen
	seq    uint64
	// model maps each key to the last put this session had acknowledged.
	// A key whose put failed is dropped: its value is then unknown.
	model map[string]string
}

func newSession(id int, seed int64, target *replica) *session {
	return &session{
		id:     id,
		target: target,
		// One keep-alive connection per session, like a real client.
		hc:    &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}},
		gen:   newOpGen(seed, id),
		model: make(map[string]string),
	}
}

func (s *session) close() { s.hc.CloseIdleConnections() }

// step runs the session's next operation to completion.
func (s *session) step(st *phaseStats) {
	o := s.gen.next()
	st.attempted++
	if o.Kind == opLocalGet {
		s.localRead(o, st)
		return
	}
	s.ordered(o, st)
}

// runUntil runs operations back to back until the deadline passes; an
// operation started before it is completed and counted.
func (s *session) runUntil(deadline time.Time) *phaseStats {
	st := &phaseStats{}
	for time.Now().Before(deadline) {
		s.step(st)
	}
	return st
}

// ordered sends one sessioned command through POST /v1/tx and waits for
// its committed reply, retrying the SAME (client, seq) on timeouts,
// sheds and transport errors until the watchdog deadline.
func (s *session) ordered(o op, st *phaseStats) {
	s.seq++
	req := txReq{Client: uint64(s.id), Seq: s.seq, Op: "put", Key: o.Key, Value: o.Value, TimeoutMS: 5000}
	if o.Kind == opOrderedGet {
		req.Op = "get"
	}
	body, _ := json.Marshal(req)
	start := time.Now()
	ctx, cancel := context.WithDeadline(context.Background(), start.Add(opDeadline))
	defer cancel()

	for attempt := 0; ; attempt++ {
		if ctx.Err() != nil {
			if o.Kind == opPut {
				delete(s.model, o.Key)
			}
			st.fail("session %d seq %d %s %s: no acknowledgement within %v", s.id, s.seq, req.Op, o.Key, opDeadline)
			return
		}
		if attempt > 0 {
			st.retries++
		}
		hreq, _ := http.NewRequestWithContext(ctx, http.MethodPost, s.target.http+"/v1/tx", bytes.NewReader(body))
		hreq.Header.Set("Content-Type", "application/json")
		resp, err := s.hc.Do(hreq)
		if err != nil {
			sleepCtx(ctx, 50*time.Millisecond)
			continue
		}
		payload, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			var tr txResp
			if err := json.Unmarshal(payload, &tr); err != nil {
				st.fail("session %d seq %d: undecodable reply %q", s.id, s.seq, payload)
				return
			}
			elapsed := time.Since(start)
			want, known := s.model[o.Key]
			switch {
			case tr.Status != "ok":
				st.fail("session %d seq %d %s %s: status %q", s.id, s.seq, req.Op, o.Key, tr.Status)
			case o.Kind == opOrderedGet && known && tr.Value != want:
				st.fail("session %d seq %d ordered get %s = %q, last put was %q", s.id, s.seq, o.Key, tr.Value, want)
			default:
				st.commitMS = append(st.commitMS, float64(elapsed.Nanoseconds())/1e6)
			}
			if o.Kind == opPut {
				s.model[o.Key] = o.Value
			}
			return
		case http.StatusTooManyRequests:
			st.shed++
			sleepCtx(ctx, 250*time.Millisecond)
		case http.StatusGatewayTimeout:
			// Possibly committed; the retry is answered from the pool or
			// the session cache.
		default:
			sleepCtx(ctx, 50*time.Millisecond)
		}
	}
}

// localRead issues GET /v1/kv/{key} at the session's own replica. That
// replica applied the session's last put before acknowledging it, so the
// read must return exactly that value.
func (s *session) localRead(o op, st *phaseStats) {
	start := time.Now()
	val, err := readKey(s.hc, s.target, o.Key)
	elapsed := time.Since(start)
	want, known := s.model[o.Key]
	switch {
	case err != nil:
		st.fail("session %d local read %s: %v", s.id, o.Key, err)
	case known && val != want:
		st.fail("session %d local read %s = %q, last put was %q", s.id, o.Key, val, want)
	default:
		st.localReadUS = append(st.localReadUS, float64(elapsed.Nanoseconds())/1e3)
	}
}

// readKey reads one key from one replica's applied state.
func readKey(hc *http.Client, r *replica, key string) (string, error) {
	ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
	defer cancel()
	hreq, _ := http.NewRequestWithContext(ctx, http.MethodGet, r.http+"/v1/kv/"+url.PathEscape(key), nil)
	resp, err := hc.Do(hreq)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	payload, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(payload))
	}
	var rr readResp
	if err := json.Unmarshal(payload, &rr); err != nil {
		return "", err
	}
	return rr.Value, nil
}

func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// runPhase runs every session concurrently until the deadline and
// returns their stats, one per session in session order.
func runPhase(sessions []*session, deadline time.Time) []*phaseStats {
	out := make([]*phaseStats, len(sessions))
	var wg sync.WaitGroup
	for i, s := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = s.runUntil(deadline)
		}()
	}
	wg.Wait()
	return out
}
