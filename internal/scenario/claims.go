package scenario

import (
	"fmt"
	"time"

	"repro/internal/adversary"
	"repro/internal/combin"
	"repro/internal/ea"
	"repro/internal/network"
	"repro/internal/runner"
	"repro/internal/types"
)

// Experiments returns the catalogue of claim experiments, in paper order.
// docs/paper-map.md maps each id to its clause and to what PASS means;
// the per-layer claims (RB, CB, AC, EA, the fast-path finding) are pinned
// by the layer packages' own tests and have no entry here.
func Experiments() []Experiment {
	return []Experiment{e5(), e6(), e7(), e8(), e10(), e11(), e12(), gstSweep()}
}

// syncNet is the experiments' full-synchrony schedule (δ = 2 ms).
var syncNet = Net{Kind: NetFull, Delta: 2 * time.Millisecond}

// duel is the shared E7/E10/GST configuration: one minimal ◇⟨t+1⟩bisource
// planted at p_n (timely in-channels from the t processes before it,
// out-channels to the t after it, wrapping), balanced correct inputs and
// the splitter adversary. Placing the bisource away from p1 forces the
// coordinator/F-set rotation to run for several rounds before the good
// (coord, F) pair comes up — the §5.2 mechanism in action. gst = 0 is a
// bisource from the start (1 ns: Net.GST = 0 means the 150 ms default).
func duel(name string, n, t int, gst time.Duration, maxRounds types.Round) Spec {
	gst = max(gst, time.Nanosecond)
	b := network.BisourceSpec{P: types.ProcID(n)}
	for i := 1; i <= t; i++ {
		b.In = append(b.In, types.ProcID(n-i))
		b.Out = append(b.Out, types.ProcID(i))
	}
	return Spec{
		Name: name, N: n, T: t, M: 2,
		Net:               Net{Kind: NetBisource, GST: gst, Delta: syncNet.Delta, Bisource: b, Splitter: true},
		Work:              Work{Kind: WorkConsensus},
		ExpectTermination: true,
		MaxRounds:         maxRounds,
	}
}

// worstCase is the §5.4 round bound β·n for witness sets of n−t+k.
func worstCase(n, t, k int) uint64 {
	plan, err := combin.NewRoundPlan(n, n-t+k)
	if err != nil {
		panic(err) // the catalogue's parameters are constants
	}
	return plan.WorstCaseRounds()
}

// allDecided reports whether every one of the correct processes decided.
func allDecided(correct int) func(*Outcome) bool {
	return func(o *Outcome) bool { return o.Decided == correct }
}

// e5 crosses the Byzantine behaviors with full synchrony and verifies all
// consensus properties (Theorem 4) on every cell.
func e5() Experiment {
	e := Experiment{
		ID:     "E5",
		Claim:  "Theorem 4: consensus termination/agreement/validity with t<n/3 under every attack",
		header: []string{"attack", "terminated", "mean rounds", "mean msgs"},
	}
	for _, f := range []Fault{
		{Kind: FaultSilent},
		{Kind: FaultCrashAt, After: 50 * time.Millisecond},
		{Kind: FaultEquivocate},
		{Kind: FaultMuteCoordinator, Value: "b"},
		{Kind: FaultPoison, Alt: "zzz"},
		{Kind: FaultRandom},
		{Kind: FaultSpam, Value: "zzz"},
	} {
		e.cells = append(e.cells, cell{
			spec: Spec{
				Name: "E5/" + f.Kind.String(), N: 7, T: 2, M: 2,
				Faults: []Fault{f, f},
				Net:    syncNet, Work: Work{Kind: WorkConsensus},
				ExpectTermination: true,
			},
			cols: func(os outcomes) []any {
				return []any{f.Kind, os.count(allDecided(5)), os.mean(rounds), os.mean(messages)}
			},
		})
	}
	return e
}

// e6 sweeps the number of distinct correct values m around the bound
// ⌊(n−(t+1))/t⌋ and shows exactly where CB (hence consensus) loses its
// termination guarantee — the feasibility predicate n−t > m·t. Infeasible
// runs stall quietly (the CB wait produces no further events), so they
// still drain.
func e6() Experiment {
	const n, t = 7, 2 // bound: m ≤ 2
	e := Experiment{
		ID:     "E6",
		Claim:  "feasibility condition §2.3: m-valued CB/AC/consensus require n−t > m·t",
		Notes:  "m=3,4 violate the bound for n=7,t=2: every correct process blocks in CB[0] (no value has t+1 correct supporters), exactly as predicted",
		header: []string{"distinct m", "n−t > m·t", "terminated"},
	}
	vals := []types.Value{"v1", "v2", "v3", "v4"}
	for m := 1; m <= len(vals); m++ {
		feasible := n-t > m*t
		e.cells = append(e.cells, cell{
			spec: Spec{
				Name: fmt.Sprintf("E6/m=%d", m), N: n, T: t, M: 2,
				Faults: []Fault{{Kind: FaultSilent}, {Kind: FaultSilent}},
				Net:    syncNet, Work: Work{Kind: WorkConsensus, Values: vals[:m]},
				ExpectTermination: feasible,
				MaxRounds:         30,
			},
			expect: func(o *Outcome) bool { return feasible || o.Decided == 0 },
			cols: func(os outcomes) []any {
				return []any{m, feasible, os.count(allDecided(n - t))}
			},
		})
	}
	return e
}

// e7 verifies the §5.4 worst-case bound: with a ⟨t+1⟩bisource from the
// start, decisions land within α·n rounds (α = C(n, n−t)), under the
// strongest scheduling adversary in the library.
func e7() Experiment {
	e := Experiment{
		ID:     "E7",
		Claim:  "§5.4: with a ⟨t+1⟩bisource from the start the algorithm terminates within α·n rounds",
		Notes:  "adversary: ConsensusSplitter (estimate splitting + coordinator suppression); the bisource's good rounds still land",
		header: []string{"n", "t", "α·n bound", "max round seen", "mean round"},
	}
	for _, nt := range []struct{ n, t int }{{4, 1}, {7, 2}} {
		bound := worstCase(nt.n, nt.t, 0)
		e.cells = append(e.cells, cell{
			spec:   duel(fmt.Sprintf("E7/n=%d", nt.n), nt.n, nt.t, 0, 200),
			expect: func(o *Outcome) bool { return uint64(o.DecideRound) <= bound },
			cols: func(os outcomes) []any {
				return []any{nt.n, nt.t, bound, os.max(rounds), os.mean(rounds)}
			},
		})
	}
	return e
}

// e8 reproduces the §5.4 tuning table: the worst-case bound β·n,
// β = C(n, n−t+k), collapses from α·n at k=0 to n at k=t, at the price of
// a stronger ⟨t+1+k⟩bisource assumption. Measured rounds come from full
// synchrony (every process is a ⟨n⟩bisource, satisfying every k).
func e8() Experiment {
	const n, t = 7, 2
	e := Experiment{
		ID:     "E8",
		Claim:  "§5.4 parameterized EA: bound β·n with β = C(n, n−t+k); k=t gives n, the coordinator-rotation optimum",
		header: []string{"k", "|F(r)| = n−t+k", "β = C(n,n−t+k)", "β·n bound", "mean round", "max round", "mean msgs"},
	}
	for k := 0; k <= t; k++ {
		bound := worstCase(n, t, k)
		e.cells = append(e.cells, cell{
			spec: Spec{
				Name: fmt.Sprintf("E8/k=%d", k), N: n, T: t, M: 2,
				Faults: []Fault{{Kind: FaultMuteCoordinator, Value: "b"}, {Kind: FaultSilent}},
				Net:    syncNet, Work: Work{Kind: WorkConsensus, K: k},
				ExpectTermination: true,
			},
			expect: func(o *Outcome) bool { return uint64(o.DecideRound) <= bound },
			cols: func(os outcomes) []any {
				return []any{k, n - t + k, bound / n, bound, os.mean(rounds), os.max(rounds), os.mean(messages)}
			},
		})
	}
	return e
}

// e10 runs the synchrony-separation duel: the paper's algorithm vs the
// RelayQuorum baseline (which needs a ◇⟨n−t⟩bisource, the assumption of
// reference [1]) under a minimal ⟨t+1⟩bisource topology and the splitter
// adversary. The baseline's cell promises nothing and predicts that every
// process runs into the round cap.
func e10() Experiment {
	const n, t = 4, 1
	stalled := func(o *Outcome) float64 { return float64(o.Stalled) }
	ours := duel("E10/paper", n, t, 0, 200)
	base := duel("E10/baseline", n, t, 0, 200)
	base.ExpectTermination = false
	return Experiment{
		ID:     "E10",
		Claim:  "minimality (§1, [1] vs this paper): one ⟨t+1⟩bisource suffices for the paper's algorithm; a baseline needing ⟨n−t⟩ coordinator coverage cannot converge there",
		header: []string{"algorithm", "synchrony needed", "decided", "stalled procs", "mean decide round"},
		cells: []cell{{
			spec: ours,
			cols: func(os outcomes) []any {
				return []any{"paper (RelayAnyF)", "◇⟨t+1⟩bisource", os.count(allDecided(n)), os.max(stalled), os.mean(rounds)}
			},
		}, {
			spec:   base,
			tweak:  func(rs *runner.Spec) { rs.Engine.Relay = ea.RelayQuorum },
			expect: func(o *Outcome) bool { return o.Decided == 0 && o.Stalled == n },
			cols: func(os outcomes) []any {
				return []any{"baseline (RelayQuorum)", "◇⟨n−t⟩bisource", os.count(allDecided(n)), os.max(stalled), "—"}
			},
		}},
	}
}

// e11 tabulates message complexity against n: total point-to-point sends
// of a fault-free run to decision and the RB stream count, showing the
// expected O(n²) per plain broadcast and O(n³) per RB wave.
func e11() Experiment {
	e := Experiment{
		ID:     "E11",
		Claim:  "message complexity: O(n²) per plain broadcast wave, O(n³) per RB wave (per instance)",
		header: []string{"n", "t", "msgs to decision", "msgs/n²", "msgs/n³", "rb streams"},
	}
	for _, nt := range []struct{ n, t int }{{4, 1}, {7, 2}, {10, 3}, {13, 4}} {
		n := float64(nt.n)
		e.cells = append(e.cells, cell{
			spec: Spec{
				Name: fmt.Sprintf("E11/n=%d", nt.n), N: nt.n, T: nt.t, M: 2,
				Net: syncNet, Work: Work{Kind: WorkConsensus},
				ExpectTermination: true,
			},
			cols: func(os outcomes) []any {
				msgs := os.mean(messages)
				return []any{nt.n, nt.t, os.max(messages), msgs / (n * n), msgs / (n * n * n),
					os.max(func(o *Outcome) float64 { return float64(o.RBStreams) })}
			},
		})
	}
	return e
}

// e12 exercises the §7 validity variant across proposal shapes: a full
// split must decide ⊥, unanimity never may.
func e12() Experiment {
	e := Experiment{
		ID:     "E12",
		Claim:  "§7 variant: decide a correctly-proposed value or ⊥; ⊥ impossible under unanimity, forced by a full split",
		header: []string{"proposals", "decided ⊥", "⊥ expected"},
	}
	for _, sc := range []struct {
		name    string
		props   []types.Value // p1..p4
		wantBot string        // "must", "may", "never"
	}{
		{"4-way split", []types.Value{"w", "x", "y", "z"}, "must"},
		{"2-2 split", []types.Value{"w", "w", "x", "x"}, "may"},
		{"3-1 plurality", []types.Value{"w", "w", "w", "x"}, "may"},
		{"unanimous", []types.Value{"w"}, "never"},
	} {
		e.cells = append(e.cells, cell{
			spec: Spec{
				Name: "E12/" + sc.name, N: 4, T: 1, M: 4,
				Net:               syncNet,
				Work:              Work{Kind: WorkConsensus, BotMode: true, Values: sc.props},
				ExpectTermination: true,
			},
			expect: func(o *Outcome) bool {
				return sc.wantBot == "may" || (o.Decision == types.BotValue) == (sc.wantBot == "must")
			},
			cols: func(os outcomes) []any {
				return []any{sc.name, os.count(func(o *Outcome) bool { return o.Decision == types.BotValue }), sc.wantBot}
			},
		})
	}
	return e
}

// gstSweep produces the figure-style series: decision latency as a
// function of when the bisource turns timely (GST). The splitter keeps
// the estimates divided, so progress genuinely requires the bisource's
// good rounds. The ◇-guarantee is an upper bound — decision by GST plus a
// bounded protocol tail; earlier decisions are legal, because the
// algorithm converges opportunistically whenever a coordinator happens to
// get a value through (e.g. its own instantaneous self-channel feeding
// line 7), which no model-legal adversary can fully suppress.
func gstSweep() Experiment {
	const tail = 10 * time.Second
	e := Experiment{
		ID:     "GST",
		Claim:  "◇-synchrony: decision latency ≤ GST + a bounded protocol tail (opportunistic earlier decisions allowed)",
		Notes:  "large-GST rows show the bisource is load-bearing: the decision lands right after stabilization (small latency−GST tail)",
		header: []string{"GST (ms)", "decided", "mean latency (ms)", "mean latency − GST (ms)", "max round"},
	}
	for _, gstMS := range []int{0, 250, 500, 1000, 2000, 4000} {
		gst := time.Duration(gstMS) * time.Millisecond
		e.cells = append(e.cells, cell{
			spec: duel("GST/"+gst.String(), 4, 1, gst, 2000),
			// The splitter's stream delay is scaled down so the round pace
			// is much faster than the GST scale, and its coordinator delay
			// up, far beyond any plausible decision time.
			tweak: func(rs *runner.Spec) {
				adv := rs.Adv.(adversary.ConsensusSplitter)
				adv.Delay = types.Duration(150 * time.Millisecond)
				adv.CoordDelay = types.Duration(time.Hour)
				rs.Adv = adv
			},
			expect: func(o *Outcome) bool { return o.DecideTime <= gst+tail },
			cols: func(os outcomes) []any {
				lat := os.mean(func(o *Outcome) float64 { return float64(o.DecideTime) / float64(time.Millisecond) })
				return []any{gstMS, os.count(allDecided(4)), lat, lat - float64(gstMS), os.max(rounds)}
			},
		})
	}
	return e
}
