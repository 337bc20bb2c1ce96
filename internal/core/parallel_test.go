package core

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/graph"
)

// The parallel candidate-group pipeline must be bit-identical to the
// serial run: groups own deterministic RNGs and reserved id blocks,
// non-conflicting groups commute, and conflicting groups keep their
// serial order across waves.
func TestParallelMatchesSerial(t *testing.T) {
	graphs := []*graph.Graph{
		graph.Caveman(6, 8, 4, 3),
		graph.HierCommunity(graph.HierParams{
			Levels: 2, Branching: 4, LeafSize: 6,
			Density: []float64{0.01, 0.15, 0.8},
		}, 5),
		graph.ErdosRenyi(120, 400, 7),
	}
	for gi, g := range graphs {
		serial, sStats := Summarize(g, Config{T: 6, Seed: 11})
		parallel, pStats := Summarize(g, Config{T: 6, Seed: 11, Workers: 4})
		if serial.Cost() != parallel.Cost() {
			t.Fatalf("graph %d: serial cost %d != parallel cost %d",
				gi, serial.Cost(), parallel.Cost())
		}
		if sStats.Merges != pStats.Merges {
			t.Fatalf("graph %d: serial merges %d != parallel merges %d",
				gi, sStats.Merges, pStats.Merges)
		}
		if serial.NumSupernodes() != parallel.NumSupernodes() {
			t.Fatalf("graph %d: supernode counts differ", gi)
		}
		if err := parallel.Validate(g); err != nil {
			t.Fatalf("graph %d: parallel run not lossless: %v", gi, err)
		}
	}
}

// Determinism across the whole worker-count axis: every worker count
// must produce byte-identical summary costs, merge counts, supernode
// counts and per-iteration cost traces for a fixed seed.
func TestGroupPipelineDeterministicAcrossWorkerCounts(t *testing.T) {
	graphs := []*graph.Graph{
		graph.HierCommunity(graph.HierParams{
			Levels: 2, Branching: 5, LeafSize: 7,
			Density: []float64{0.02, 0.2, 0.8},
		}, 29),
		graph.BarabasiAlbert(200, 3, 31),
	}
	for gi, g := range graphs {
		for _, seed := range []int64{1, 42} {
			var refCosts []int64
			var refFinal int64
			var refMerges, refSupernodes int
			for wi, workers := range []int{1, 2, 3, 4, 8} {
				var costs []int64
				sum, stats := Summarize(g, Config{
					T: 6, Seed: seed, Workers: workers,
					OnIteration: func(t int, c int64) { costs = append(costs, c) },
				})
				if wi == 0 {
					refCosts = costs
					refFinal = sum.Cost()
					refMerges = stats.Merges
					refSupernodes = sum.NumSupernodes()
					continue
				}
				if sum.Cost() != refFinal || stats.Merges != refMerges ||
					sum.NumSupernodes() != refSupernodes {
					t.Fatalf("graph %d seed %d workers %d: cost/merges/supernodes %d/%d/%d, want %d/%d/%d",
						gi, seed, workers, sum.Cost(), stats.Merges, sum.NumSupernodes(),
						refFinal, refMerges, refSupernodes)
				}
				for i := range refCosts {
					if costs[i] != refCosts[i] {
						t.Fatalf("graph %d seed %d workers %d: iteration %d cost %d, want %d",
							gi, seed, workers, i+1, costs[i], refCosts[i])
					}
				}
			}
		}
	}
}

// Run a parallel summarization under the race detector's eye (the test
// is meaningful with `go test -race`).
func TestParallelNoRaces(t *testing.T) {
	g := graph.Caveman(8, 10, 6, 9)
	sum, _ := Summarize(g, Config{T: 8, Seed: 13, Workers: runtime.NumCPU()})
	if err := sum.Validate(g); err != nil {
		t.Fatal(err)
	}
}

// allocState builds a mid-run merge state for the allocation tests.
func allocState(tb testing.TB) *state {
	g := graph.HierCommunity(graph.HierParams{
		Levels: 2, Branching: 6, LeafSize: 8,
		Density: []float64{0.01, 0.15, 0.8},
	}, 7)
	rng := rand.New(rand.NewSource(1))
	st := newState(g, rng)
	for k := 0; k < 60; k++ {
		mergeRandomPair(st, rng)
	}
	return st
}

// The arena-backed sweep must stay allocation-free in steady state;
// allow a little slack for map-bucket rehashing inside the recycled
// lookup tables.
func TestSweepAllocationFree(t *testing.T) {
	st := allocState(t)
	ctx := st.getCtx()
	roots := st.roots()
	// Warm the free-lists.
	for _, r := range roots {
		ctx.putSweep(st.sweepInto(ctx, r))
	}
	i := 0
	avg := testing.AllocsPerRun(200, func() {
		ctx.putSweep(st.sweepInto(ctx, roots[i%len(roots)]))
		i++
	})
	if avg > 1.0 {
		t.Fatalf("sweep allocates %.2f objects per op, want <= 1", avg)
	}
	st.putCtx(ctx)
}

// evalBench holds a mid-run state with the sweeps of all its roots, for
// evaluating the pairs of consecutive roots.
type evalBench struct {
	st     *state
	ctx    *gctx
	roots  []int32
	sweeps []*rootSweep
	mid    int32
}

func newEvalBench(tb testing.TB) *evalBench {
	st := allocState(tb)
	eb := &evalBench{st: st, ctx: st.getCtx(), roots: st.roots(), mid: st.reserveIDs(1)[0]}
	eb.sweeps = make([]*rootSweep, len(eb.roots))
	for i, r := range eb.roots {
		eb.sweeps[i] = st.sweepInto(eb.ctx, r)
	}
	return eb
}

// eval evaluates the i-th consecutive root pair, returning the decision
// (to be recycled by the caller) or nil.
func (eb *evalBench) eval(i int, minSaving float64) *mergeDecision {
	j := i % (len(eb.roots) - 1)
	return eb.st.evaluateMerge(eb.ctx, eb.roots[j], eb.roots[j+1], eb.mid, eb.sweeps[j], eb.sweeps[j+1], 0, minSaving)
}

// evaluateMerge recycles decisions, panel problems and scratch through
// the context, so steady-state partner evaluations allocate nothing —
// also on the full path that solves the panels of every neighbor root.
func TestEvaluateMergeAllocationFree(t *testing.T) {
	eb := newEvalBench(t)
	n := len(eb.roots) - 1
	// Warm the decision/problem free-lists; with no cutoff every pair
	// must reach the cross plans.
	crosses := 0
	for j := 0; j < n; j++ {
		dec := eb.eval(j, -1e18)
		if dec == nil {
			t.Fatalf("pair %d: no decision without a cutoff", j)
		}
		crosses += len(dec.crosses)
		eb.ctx.putDec(dec)
	}
	if crosses < n {
		t.Fatalf("%d pairs gathered only %d cross plans", n, crosses)
	}
	i := 0
	avg := testing.AllocsPerRun(200, func() {
		eb.ctx.putDec(eb.eval(i, -1e18))
		i++
	})
	if avg != 0 {
		t.Fatalf("evaluateMerge allocates %.2f objects per op, want 0", avg)
	}
}

// BenchmarkSweep measures the merge inner loop's sweep on a mid-run
// state.
func BenchmarkSweep(b *testing.B) {
	st := allocState(b)
	ctx := st.getCtx()
	roots := st.roots()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.putSweep(st.sweepInto(ctx, roots[i%len(roots)]))
	}
}

// BenchmarkEvaluateMerge measures one partner evaluation on a mid-run
// state: cutoff=none takes the full path through every panel solve,
// cutoff=theta uses a merging threshold as the cutoff, so that most
// pairs are rejected by the bound before any solve. decisions/op is
// the share of evaluations that return a decision.
func BenchmarkEvaluateMerge(b *testing.B) {
	for _, bc := range []struct {
		name      string
		minSaving float64
	}{
		{"cutoff=none", -1e18},
		{"cutoff=theta", Threshold(5, 20)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			eb := newEvalBench(b)
			decisions := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if dec := eb.eval(i, bc.minSaving); dec != nil {
					decisions++
					eb.ctx.putDec(dec)
				}
			}
			b.ReportMetric(float64(decisions)/float64(b.N), "decisions/op")
		})
	}
}
