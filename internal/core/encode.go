package core

// This file implements the local encoding search of Sect. III-B3: when
// two root supernodes A and B are (temporarily) merged into M, SLUGGER
// re-encodes (Case 1) the adjacency between A and B inside the panel
// {M, A, B, ch(A), ch(B)} and (Case 2) the adjacency between tree(M)
// and tree(C) inside the panel {M, A, B, ch(A), ch(B)} x {C, ch(C)},
// for every root C with a p/n-edge to A or B.
//
// Both cases reduce to the same optimization: given left "atoms"
// (children of A and B, or A/B themselves when they are leaves)
// arranged laminarly under {A,B} under M, right atoms under C, and the
// ground-truth subedge count of every atom block, choose signed net
// values on panel supernode pairs plus optional subnode-level
// correction lists so that every block is encoded exactly with
// per-pair net counts in {0,1}, minimizing the number of edges.
//
// The paper performs a memoized exhaustive search over the constant
// number of panel encodings; we solve the same family exactly with a
// small dynamic program: conditioning on the (top, column) nets makes
// the rows independent, so the search is
//   3 (top) x 3^q (columns) x per-group 3 (group row) x per-atom 3 (row)
// over precomputed per-block cost tables. The lower bounds work at two
// levels, the analogue of the paper's memoized fast path. Per panel,
// the sum of each block's best achievable cost (case1Bound,
// case2Bound) skips the enumeration entirely whenever keeping the
// current encoding is provably at least as good. Per candidate merge,
// evaluateMerge sums min(keep cost, panel bound) over every panel of
// the pair and rejects the pair before solving any panel when that sum
// already misses the saving cutoff. The "keep" candidate is always
// compared, so a rewrite never increases the encoding cost.

const inf = int64(1) << 50

const (
	maxAtoms = 4 // left atoms: children of A plus children of B
	maxRight = 2 // right atoms: children of C (or C itself)
	// tab indexes block net values from tabMin to tabMax.
	tabMin = -2
	tabMax = 3
	tabLen = tabMax - tabMin + 1
)

// bipProblem is one instance of the panel optimization. It is a value
// type with fixed-size storage so that trial evaluations allocate
// nothing; plans copy the problem only when a rewrite is selected.
type bipProblem struct {
	leftTop   int32
	groups    [2]int32 // mid-level supernodes (A,B) in Case 2; -1 when absent
	nAtoms    int
	atoms     [maxAtoms]int32
	groupOf   [maxAtoms]int8 // 0/1 into groups, or -1
	rowOK     [maxAtoms]bool // whether the (atom, rightTop) slot is distinct from top
	leftSizes [maxAtoms]int64

	rightTop   int32
	nRight     int
	rightAtoms [maxRight]int32
	rightSizes [maxRight]int64
	colsOK     bool // whether (leftTop, rightAtom) slots are distinct from top

	cnt    [maxAtoms][maxRight]int64 // ground-truth block counts
	offset int8                      // ambient net already covering every block

	// tab[i][j][s-tabMin] is the minimal cost of finishing block (i,j)
	// when all coarser edges contribute net s; filled by finalize.
	tab [maxAtoms][maxRight][tabLen]int64
	lb  int64 // sum over blocks of the best achievable cost
}

// bipPlan records the chosen coarse nets; atom-level edges and subnode
// correction lists are re-derived deterministically at materialization.
type bipPlan struct {
	cost      int64
	top       int8
	cols      [maxRight]int8
	groupVals [2]int8
	rows      [maxAtoms]int8
}

// listCost returns the subnode-correction cost of a block whose pairs
// all carry ambient net s: 0 or a full listing, or inf when s is
// outside {0,1} (which would violate the per-pair restriction).
func listCost(s int, gt, total int64) int64 {
	switch s {
	case 0:
		return gt
	case 1:
		return total - gt
	default:
		return inf
	}
}

// rawBlockCost computes the minimal cost of finishing one block given
// the net contributed by all coarser edges, optimizing over the
// atom-level edge in {-1,0,+1} and the subnode listing.
func rawBlockCost(base int, gt, total int64) int64 {
	best := inf
	for a := -1; a <= 1; a++ {
		c := int64(absInt(a)) + listCost(base+a, gt, total)
		if c < best {
			best = c
		}
	}
	return best
}

// blockChoice returns the atom-level edge value realizing rawBlockCost.
func blockChoice(base int, gt, total int64) int {
	best, bestA := inf, 0
	for a := -1; a <= 1; a++ {
		c := int64(absInt(a)) + listCost(base+a, gt, total)
		if c < best {
			best = c
			bestA = a
		}
	}
	return bestA
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// finalize fills the per-block cost tables and the lower bound.
func (p *bipProblem) finalize() {
	p.lb = 0
	for i := 0; i < p.nAtoms; i++ {
		for j := 0; j < p.nRight; j++ {
			gt := p.cnt[i][j]
			total := p.leftSizes[i] * p.rightSizes[j]
			blockMin := inf
			for s := tabMin; s <= tabMax; s++ {
				c := rawBlockCost(s, gt, total)
				p.tab[i][j][s-tabMin] = c
				if c < blockMin {
					blockMin = c
				}
			}
			p.lb += blockMin
		}
	}
}

// block returns the finishing cost of block (i,j) at ambient net s.
func (p *bipProblem) block(i, j, s int) int64 {
	if s < tabMin || s > tabMax {
		return inf
	}
	return p.tab[i][j][s-tabMin]
}

// solveBip finds a cost-minimal panel encoding for the problem.
func solveBip(p *bipProblem) bipPlan {
	// Fast path: a single right atom with no group structure makes the
	// rows independent given the top net — the common case while most
	// supernodes are still small.
	if p.nRight == 1 && p.groups[0] == -1 && p.groups[1] == -1 {
		return solveSmall(p)
	}
	p.finalize()
	best := bipPlan{cost: inf}
	q := p.nRight

	// rowBest returns the optimal (row value, cost incl. blocks) for one
	// atom given the per-column nets from top+cols+group.
	rowBest := func(i int, tops *[maxRight]int) (int8, int64) {
		bestRow, bestCost := int8(0), inf
		lo, hi := -1, 1
		if !p.rowOK[i] {
			lo, hi = 0, 0
		}
		for r := lo; r <= hi; r++ {
			c := int64(absInt(r))
			for j := 0; j < q && c < inf; j++ {
				c += p.block(i, j, tops[j]+r)
			}
			if c < bestCost {
				bestCost = c
				bestRow = int8(r)
			}
		}
		return bestRow, bestCost
	}

	var cols [maxRight]int8
	evaluate := func(t int) {
		var base [maxRight]int
		colCost := int64(absInt(t))
		for j := 0; j < q; j++ {
			base[j] = int(p.offset) + t + int(cols[j])
			colCost += int64(absInt(int(cols[j])))
		}
		if colCost >= best.cost {
			return
		}
		total := colCost
		var plan bipPlan
		plan.top = int8(t)
		plan.cols = cols
		// Ungrouped atoms.
		for i := 0; i < p.nAtoms; i++ {
			if p.groupOf[i] != -1 {
				continue
			}
			row, c := rowBest(i, &base)
			plan.rows[i] = row
			total += c
			if total >= best.cost {
				return
			}
		}
		// Grouped atoms: choose each group's net jointly with its rows.
		for g := 0; g < 2; g++ {
			if p.groups[g] == -1 {
				continue
			}
			bestG, bestGCost := int8(0), inf
			var bestRows, rows [maxAtoms]int8
			var tops [maxRight]int
			for r := -1; r <= 1; r++ {
				for j := 0; j < q; j++ {
					tops[j] = base[j] + r
				}
				c := int64(absInt(r))
				for i := 0; i < p.nAtoms && c < inf; i++ {
					if p.groupOf[i] != int8(g) {
						continue
					}
					row, rc := rowBest(i, &tops)
					rows[i] = row
					c += rc
				}
				if c < bestGCost {
					bestGCost = c
					bestG = int8(r)
					bestRows = rows
				}
			}
			plan.groupVals[g] = bestG
			for i := 0; i < p.nAtoms; i++ {
				if p.groupOf[i] == int8(g) {
					plan.rows[i] = bestRows[i]
				}
			}
			total += bestGCost
			if total >= best.cost {
				return
			}
		}
		if total < best.cost {
			plan.cost = total
			best = plan
		}
	}

	// Restrict the top and column nets so that the cumulative ambient
	// net stays in {0,1}: a top/column layer outside that range forces
	// every block underneath to compensate, which row- and atom-level
	// edges almost never do more cheaply. (Rows and atoms remain fully
	// ternary, so e.g. "cover everything, carve one row out" encodings
	// are still found.) This prunes the enumeration 3x.
	for t := -int(p.offset); t <= 1-int(p.offset); t++ {
		cum := int(p.offset) + t
		colLo, colHi := 0, 0
		if p.colsOK {
			colLo, colHi = -cum, 1-cum
		}
		for c0 := colLo; c0 <= colHi; c0++ {
			cols[0] = int8(c0)
			if q > 1 {
				for c1 := colLo; c1 <= colHi; c1++ {
					cols[1] = int8(c1)
					evaluate(t)
				}
			} else {
				evaluate(t)
			}
		}
	}
	return best
}

// solveSmall handles panels with one right atom and no left groups by
// direct enumeration: for each top net the optimal row values decompose
// per atom.
func solveSmall(p *bipProblem) bipPlan {
	best := bipPlan{cost: inf}
	for t := -int(p.offset); t <= 1-int(p.offset); t++ {
		var plan bipPlan
		plan.top = int8(t)
		total := int64(absInt(t))
		for i := 0; i < p.nAtoms && total < inf; i++ {
			gt := p.cnt[i][0]
			sz := p.leftSizes[i] * p.rightSizes[0]
			lo, hi := -1, 1
			if !p.rowOK[i] {
				lo, hi = 0, 0
			}
			bestRow, bestCost := int8(0), inf
			for r := lo; r <= hi; r++ {
				c := int64(absInt(r)) + rawBlockCost(int(p.offset)+t+r, gt, sz)
				if c < bestCost {
					bestCost = c
					bestRow = int8(r)
				}
			}
			plan.rows[i] = bestRow
			total += bestCost
		}
		if total < best.cost {
			plan.cost = total
			best = plan
		}
	}
	return best
}

// materializeBip converts a plan into concrete signed edges appended
// to out, including subnode-level correction lists for blocks that
// stay mixed. Vertex marks come from the caller's context, so commits
// in different groups can materialize concurrently.
func (st *state) materializeBip(ctx *gctx, out []sedge, p *bipProblem, plan *bipPlan) []sedge {
	emit := func(a, b int32, v int8) {
		if v != 0 {
			out = append(out, sedge{a: a, b: b, sign: v})
		}
	}
	emit(p.leftTop, p.rightTop, plan.top)
	for j := 0; j < p.nRight; j++ {
		emit(p.leftTop, p.rightAtoms[j], plan.cols[j])
	}
	for g := 0; g < 2; g++ {
		if p.groups[g] != -1 {
			emit(p.groups[g], p.rightTop, plan.groupVals[g])
		}
	}
	for i := 0; i < p.nAtoms; i++ {
		x := p.atoms[i]
		emit(x, p.rightTop, plan.rows[i])
		base := int(p.offset) + int(plan.top) + int(plan.rows[i])
		if g := p.groupOf[i]; g != -1 {
			base += int(plan.groupVals[g])
		}
		for j := 0; j < p.nRight; j++ {
			y := p.rightAtoms[j]
			b := base + int(plan.cols[j])
			gt, total := p.cnt[i][j], p.leftSizes[i]*p.rightSizes[j]
			a := blockChoice(b, gt, total)
			emit(x, y, int8(a))
			switch b + a {
			case 0:
				if gt > 0 {
					out = st.appendBlockEdges(ctx, out, x, y, 1)
				}
			case 1:
				if gt < total {
					out = st.appendBlockNonEdges(ctx, out, x, y, -1)
				}
			default:
				panic("core: materializeBip reached invalid net")
			}
		}
	}
	return out
}

// appendBlockEdges appends one signed subnode edge per subedge between
// the (disjoint) supernodes x and y.
func (st *state) appendBlockEdges(ctx *gctx, out []sedge, x, y int32, sign int8) []sedge {
	ep := ctx.nextEpoch()
	ctx.markVerts(y, ep)
	for _, u := range st.verts[x] {
		for _, w := range st.g.Neighbors(u) {
			if ctx.mark[w] == ep {
				out = append(out, sedge{a: u, b: w, sign: sign})
			}
		}
	}
	return out
}

// appendBlockNonEdges appends one signed subnode edge per non-adjacent
// pair between the (disjoint) supernodes x and y.
func (st *state) appendBlockNonEdges(ctx *gctx, out []sedge, x, y int32, sign int8) []sedge {
	for _, u := range st.verts[x] {
		ep := ctx.nextEpoch()
		for _, w := range st.g.Neighbors(u) {
			ctx.mark[w] = ep
		}
		for _, w := range st.verts[y] {
			if ctx.mark[w] != ep {
				out = append(out, sedge{a: u, b: w, sign: sign})
			}
		}
	}
	return out
}

// appendWithinNonEdges appends an n-edge for every non-adjacent pair
// inside supernode x (used when the (M,M) scenario rewrites a side).
func (st *state) appendWithinNonEdges(ctx *gctx, out []sedge, x int32, sign int8) []sedge {
	vs := st.verts[x]
	for i, u := range vs {
		ep := ctx.nextEpoch()
		for _, w := range st.g.Neighbors(u) {
			ctx.mark[w] = ep
		}
		for _, w := range vs[i+1:] {
			if ctx.mark[w] != ep {
				out = append(out, sedge{a: u, b: w, sign: sign})
			}
		}
	}
	return out
}
