package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

func TestNumeratorCutoffSaturates(t *testing.T) {
	for _, denom := range []int64{10, 12, 1 << 20} {
		if got := numeratorCutoff(-1e18, denom); got != math.MaxInt64 {
			t.Fatalf("numeratorCutoff(-1e18, %d) = %d, want MaxInt64", denom, got)
		}
	}
	// Finite cutoffs keep their exact value.
	if got := numeratorCutoff(0.5, 12); got != 7 {
		t.Fatalf("numeratorCutoff(0.5, 12) = %d, want 7", got)
	}
	if got := numeratorCutoff(0, 1000); got != 1001 {
		t.Fatalf("numeratorCutoff(0, 1000) = %d, want 1001", got)
	}
}

// A cutoff of -1e18 means "no cutoff": every feasible pair must yield a
// decision, also when (1-minSaving)*denom exceeds the int64 range.
func TestEvaluateMergeWithoutCutoff(t *testing.T) {
	// Vertex 0 is adjacent to 2..7 and vertex 1 to 8..13 (a losing
	// pair, saving < 0); vertex 14 shares 0's neighbors (a twin).
	var edges [][2]int32
	for c := int32(2); c < 8; c++ {
		edges = append(edges, [2]int32{0, c}, [2]int32{14, c})
	}
	for c := int32(8); c < 14; c++ {
		edges = append(edges, [2]int32{1, c})
	}
	g := graph.FromEdges(15, edges)
	for _, tc := range []struct {
		a, b    int32
		crosses int // |N(a) ∪ N(b)|
	}{{0, 1, 12}, {0, 14, 6}} {
		st := newState(g, rand.New(rand.NewSource(1)))
		ctx := st.getCtx()
		a, b := tc.a, tc.b
		if denom := st.rootCost(a) + st.rootCost(b) - st.crossLen(a, b); denom < 10 {
			t.Fatalf("pair (%d,%d): denom %d, want >= 10", a, b, denom)
		}
		mid := st.reserveIDs(1)[0]
		sweepA, sweepB := st.sweepInto(ctx, a), st.sweepInto(ctx, b)
		dec := st.evaluateMerge(ctx, a, b, mid, sweepA, sweepB, 0, -1e18)
		if dec == nil {
			t.Fatalf("pair (%d,%d): no decision without a cutoff", a, b)
		}
		if len(dec.crosses) != tc.crosses {
			t.Fatalf("pair (%d,%d): %d cross plans, want %d", a, b, len(dec.crosses), tc.crosses)
		}
		if m := st.commitMerge(ctx, dec, mid); m != mid {
			t.Fatalf("pair (%d,%d): committed as %d, want %d", a, b, m, mid)
		}
		sum := newPruner(st).emit()
		if err := sum.Validate(g); err != nil {
			t.Fatalf("pair (%d,%d): %v", a, b, err)
		}
		st.putCtx(ctx)
	}
}

// midRunState drives g through a few SLUGGER iterations and then a few
// random merges, so that roots of every height and encoding shape
// appear.
func midRunState(g *graph.Graph, seed int64, iters, randomMerges int) *state {
	rng := rand.New(rand.NewSource(seed))
	st := newState(g, rng)
	st.workers = 1
	for it := 1; it <= iters; it++ {
		groups := st.generateCandidates(it, 500, 10, seed)
		if _, err := st.runIteration(context.Background(), groups, it, seed, Threshold(it, 20), 0); err != nil {
			panic(err)
		}
	}
	for k := 0; k < randomMerges; k++ {
		mergeRandomPair(st, rng)
	}
	return st
}

// TestMergeBoundSound checks the bound evaluateMerge rejects pairs by:
// for every root pair of mid-run states it never exceeds the exact
// numerator, a cutoff below it rejects the pair, and a cutoff at the
// pair's own saving keeps the identical decision.
func TestMergeBoundSound(t *testing.T) {
	graphs := []func(seed int64) *graph.Graph{
		func(seed int64) *graph.Graph { return graph.ErdosRenyi(40, 160, seed) },
		func(seed int64) *graph.Graph { return graph.Caveman(5, 8, 6, seed) },
		func(seed int64) *graph.Graph { return graph.BarabasiAlbert(50, 3, seed) },
		func(seed int64) *graph.Graph {
			return graph.HierCommunity(graph.HierParams{
				Levels: 2, Branching: 3, LeafSize: 6,
				Density: []float64{0.02, 0.2, 0.9},
			}, seed)
		},
	}
	var pairs, rejected, solved int
	for gi, gen := range graphs {
		for seed := int64(0); seed < 3; seed++ {
			g := gen(seed)
			st := midRunState(g, seed, int(seed)+1, 4)
			ctx := st.getCtx()
			roots := st.roots()
			sweeps := make(map[int32]*rootSweep, len(roots))
			for _, r := range roots {
				sweeps[r] = st.sweepInto(ctx, r)
			}
			mid := st.reserveIDs(1)[0]
			for _, a := range roots {
				for _, b := range roots {
					if a == b {
						continue
					}
					denom := st.rootCost(a) + st.rootCost(b) - st.crossLen(a, b)
					dec := st.evaluateMerge(ctx, a, b, mid, sweeps[a], sweeps[b], 0, -1e18)
					if denom <= 0 {
						if dec != nil {
							t.Fatalf("graph %d seed %d: infeasible pair (%d,%d) yields a decision", gi, seed, a, b)
						}
						continue
					}
					if dec == nil {
						t.Fatalf("graph %d seed %d: feasible pair (%d,%d) yields no decision", gi, seed, a, b)
					}
					pairs++
					num, saving, ncross := dec.numerator, dec.saving, len(dec.crosses)
					for _, cp := range dec.crosses {
						if !cp.keep {
							solved++
						}
					}
					ctx.putDec(dec)

					var wb withinBound
					lb := st.mergeBound(ctx, a, b, sweeps[a], sweeps[b], &wb, math.MaxInt64)
					if lb > num {
						t.Fatalf("graph %d seed %d pair (%d,%d): bound %d exceeds numerator %d", gi, seed, a, b, lb, num)
					}
					if len(ctx.cands) != ncross {
						t.Fatalf("graph %d seed %d pair (%d,%d): gathered %d neighbors, decision has %d", gi, seed, a, b, len(ctx.cands), ncross)
					}

					// A cutoff below the bound rejects the pair up front.
					if lb >= 2 {
						ms := 1 - float64(lb-2)/float64(denom)
						if numeratorCutoff(ms, denom) < lb {
							rejected++
							if d := st.evaluateMerge(ctx, a, b, mid, sweeps[a], sweeps[b], 0, ms); d != nil {
								t.Fatalf("graph %d seed %d pair (%d,%d): bound %d above cutoff %d, got a decision",
									gi, seed, a, b, lb, numeratorCutoff(ms, denom))
							}
						}
					}
					// The pair's own saving as the cutoff keeps it, unchanged.
					d := st.evaluateMerge(ctx, a, b, mid, sweeps[a], sweeps[b], 0, saving)
					if d == nil || d.numerator != num || len(d.crosses) != ncross {
						t.Fatalf("graph %d seed %d pair (%d,%d): cutoff at its own saving changed the decision", gi, seed, a, b)
					}
					ctx.putDec(d)
				}
			}
			st.putCtx(ctx)
		}
	}
	if pairs < 1000 || rejected < pairs/4 || solved == 0 {
		t.Fatalf("weak coverage: %d pairs, %d bound rejections, %d rewritten crosses", pairs, rejected, solved)
	}
}
