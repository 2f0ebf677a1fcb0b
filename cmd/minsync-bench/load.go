// Load mode: minsync-bench -load drives a LIVE cluster through its
// HTTP/JSON edge (internal/httpapi) instead of the simulator — many
// concurrent client sessions, each issuing sessioned put/get commands and
// retrying across replicas with the same (client, seq), exactly as a real
// client would. The run reports sustained commands/sec and wall-clock
// p50/p99/p999 command latency on stdout and in BENCH_<label>.json.
//
//	minsync-bench -load http://h1:8081,http://h2:8082 \
//	    [-clients 64] [-ops 32] [-req-timeout 10s] [-label load] [-out dir]
//
// Every get is checked against the value the session last put: a wrong
// read, like any command that still fails after retries, makes the run
// exit nonzero — CI's load-smoke job leans on that for its "zero
// failed/incorrect responses" assertion.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// txReq / txResp mirror internal/httpapi's wire types. Declared locally:
// the bench binary is a CLIENT and deliberately speaks the JSON contract,
// not the server's Go types, so a wire-visible change breaks this bench
// the same way it would break real clients.
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
	Value  string `json:"value,omitempty"`
}

type txError struct {
	Error struct {
		Code         string `json:"code"`
		Message      string `json:"message"`
		RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
	} `json:"error"`
}

// result is the one entry of the load report: ok-answered commands per
// second and wall-clock request latency (accepted → answered, as the HTTP
// client sees it, retries included).
type result struct {
	Name           string  `json:"name"`
	Ops            int     `json:"ops"`
	WallNS         int64   `json:"wall_ns"`
	CommandsPerSec float64 `json:"commands_per_sec"`
	CommitP50NS    float64 `json:"commit_p50_ns"`
	CommitP99NS    float64 `json:"commit_p99_ns"`
	CommitP999NS   float64 `json:"commit_p999_ns"`
}

// report is the whole BENCH_<label>.json document.
type report struct {
	Label       string   `json:"label"`
	GoVersion   string   `json:"go_version"`
	GOOS        string   `json:"goos"`
	GOARCH      string   `json:"goarch"`
	CreatedUnix int64    `json:"created_unix"`
	Clients     int      `json:"clients"`
	Results     []result `json:"results"`
}

// loadTotals aggregates what happened across every client session.
type loadTotals struct {
	mu        sync.Mutex
	latencies []int64 // wall-clock ns per completed command, retries included
	commands  uint64  // commands answered ok
	retries   uint64  // extra attempts beyond the first (timeouts, errors)
	shed      uint64  // 429 POOL_FULL answers absorbed by backoff
	failed    uint64  // commands with no ok answer within the op deadline
	incorrect uint64  // gets that returned the wrong value
}

// loadSession runs one client: `ops` sessioned commands, alternating
// put/get on the session's own key so every read has one correct answer.
// Attempts rotate through the replicas — a retry of (client, seq) lands
// on a DIFFERENT replica than the original, which is the whole point: any
// replica must answer it exactly-once from its pool or session cache.
func loadSession(hc *http.Client, urls []string, client uint64, idx, ops int, reqTimeout time.Duration, tot *loadTotals) {
	key := fmt.Sprintf("load/c%d", idx)
	var lastVal string
	var lats []int64
	var commands, retries, shed, failed, incorrect uint64
	for i := 0; i < ops; i++ {
		req := txReq{
			Client:    client,
			Seq:       uint64(i + 1),
			TimeoutMS: reqTimeout.Milliseconds(),
		}
		if i%2 == 0 {
			req.Op, req.Key, req.Value = "put", key, fmt.Sprintf("v%d-%d", idx, i)
		} else {
			req.Op, req.Key = "get", key
		}
		body, _ := json.Marshal(req)

		start := time.Now()
		deadline := start.Add(reqTimeout + 20*time.Second) // room for shed backoff + retries
		var resp *txResp
		for attempt := 0; ; attempt++ {
			if attempt > 0 {
				retries++
			}
			if time.Now().After(deadline) {
				break
			}
			url := urls[(idx+attempt)%len(urls)] + "/v1/tx"
			r, err := hc.Post(url, "application/json", bytes.NewReader(body))
			if err != nil {
				time.Sleep(100 * time.Millisecond)
				continue
			}
			payload, _ := io.ReadAll(io.LimitReader(r.Body, 1<<20))
			r.Body.Close()
			switch r.StatusCode {
			case http.StatusOK:
				var tr txResp
				if err := json.Unmarshal(payload, &tr); err == nil && tr.Status == "ok" {
					resp = &tr
				}
			case http.StatusTooManyRequests:
				shed++
				var te txError
				back := 250 * time.Millisecond
				if json.Unmarshal(payload, &te) == nil && te.Error.RetryAfterMS > 0 {
					back = time.Duration(te.Error.RetryAfterMS) * time.Millisecond
				}
				time.Sleep(back)
			case http.StatusGatewayTimeout:
				// The command may still commit; retry the SAME seq at
				// once — some replica will answer from pool or cache.
			default:
				time.Sleep(100 * time.Millisecond)
			}
			if resp != nil {
				break
			}
		}
		if resp == nil {
			failed++
			continue
		}
		lats = append(lats, time.Since(start).Nanoseconds())
		commands++
		if req.Op == "put" {
			lastVal = req.Value
		} else if resp.Value != lastVal {
			incorrect++
		}
	}
	tot.mu.Lock()
	tot.latencies = append(tot.latencies, lats...)
	tot.commands += commands
	tot.retries += retries
	tot.shed += shed
	tot.failed += failed
	tot.incorrect += incorrect
	tot.mu.Unlock()
}

// quantileNS reads a quantile from the sorted latency slice.
func quantileNS(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return float64(sorted[i])
}

// runLoadMode fans out the client sessions, aggregates, writes
// BENCH_<label>.json and fails the run if any command went unanswered or
// any read was wrong.
func runLoadMode(urlsCSV string, clients, ops int, reqTimeout time.Duration, label, out string) error {
	var urls []string
	for _, u := range strings.Split(urlsCSV, ",") {
		if u = strings.TrimRight(strings.TrimSpace(u), "/"); u != "" {
			urls = append(urls, u)
		}
	}
	if len(urls) == 0 {
		return fmt.Errorf("-load needs at least one replica URL")
	}
	hc := &http.Client{
		Timeout: reqTimeout + 5*time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        clients * 2,
			MaxIdleConnsPerHost: clients,
		},
	}
	// Fresh session ids per run: a reused (client, seq) would be answered
	// "stale"/cached by a cluster that already served a previous run.
	base := uint64(time.Now().UnixNano())

	fmt.Fprintf(os.Stderr, "load: %d clients x %d ops against %d replicas...\n", clients, ops, len(urls))
	tot := &loadTotals{}
	span := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			loadSession(hc, urls, base+uint64(c), c, ops, reqTimeout, tot)
		}(c)
	}
	wg.Wait()
	wall := time.Since(span)

	sort.Slice(tot.latencies, func(i, j int) bool { return tot.latencies[i] < tot.latencies[j] })
	r := result{
		Name:           "http-load",
		Ops:            clients * ops,
		WallNS:         wall.Nanoseconds(),
		CommandsPerSec: float64(tot.commands) / wall.Seconds(),
		CommitP50NS:    quantileNS(tot.latencies, 0.5),
		CommitP99NS:    quantileNS(tot.latencies, 0.99),
		CommitP999NS:   quantileNS(tot.latencies, 0.999),
	}
	rep := report{
		Label:       label,
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		CreatedUnix: time.Now().Unix(),
		Clients:     clients,
		Results:     []result{r},
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(out, "BENCH_"+label+".json")
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println(path)
	fmt.Printf("http-load: %d/%d commands ok, %.1f commands/sec, p50/p99/p999 %.1f/%.1f/%.1fms (retries %d, shed %d)\n",
		tot.commands, clients*ops, r.CommandsPerSec,
		r.CommitP50NS/1e6, r.CommitP99NS/1e6, r.CommitP999NS/1e6, tot.retries, tot.shed)
	if tot.failed > 0 || tot.incorrect > 0 {
		return fmt.Errorf("%d commands failed, %d reads incorrect", tot.failed, tot.incorrect)
	}
	return nil
}
