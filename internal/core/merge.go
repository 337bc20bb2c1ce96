package core

// This file implements the merging step (Algorithm 2): computing the
// saving of a candidate pair (Eq. (8)) by temporarily merging it, and
// committing the best merge with the encoding update of Sect. III-B3.
//
// A partner evaluation is bound-first: one pass over the pair's
// neighbor roots sums a lower bound on the saving's numerator from
// per-panel bounds, and a pair that provably cannot reach the cutoff is
// rejected before any panel is solved (see evaluateMerge).
//
// All transient objects of the evaluation inner loop (panel problems,
// decisions, sweep results) are recycled through the caller's gctx, so
// steady-state evaluations are allocation-free; commits allocate only
// the long-lived encoding (exact-size edge lists and cross entries).

import "math"

// Within-encoding scenarios for Case 1.
const (
	withinKeep     = iota // keep the current cross(A,B) edges unchanged
	withinRewrite         // rewrite cross(A,B) inside the panel
	withinSelfLoop        // (M,M) p-loop scenario; sides handled per sideMode
)

// Side handling under the (M,M) scenario.
const (
	sideNLoopKeep = iota // add n-loop (X,X), keep within(X)
	sideDrop             // drop within(X): X is a leaf or a complete supernode
	sideNList            // drop within(X), list every non-adjacent pair as n-edges
)

type withinPlan struct {
	cost     int64
	scenario int
	prob     *bipProblem
	plan     bipPlan
	sideMode [2]int8
}

// withinBound holds the Case-1 quantities of a pair that the bound
// pass computes once and computeWithinPlan reuses.
type withinBound struct {
	bc       *blockCounts // cross(A,B) block counts, or nil
	w        int64        // |within(A)| + |within(B)|
	keepCost int64        // w + |cross(A,B)|
	lb       int64        // case1Bound floor for the rewrite panel
	lbLoop   int64        // case1Bound sum for the (M,M) panel
	sideMode [2]int8
	sideCost int64
}

// bound returns a lower bound on computeWithinPlan's cost: the rewrite
// and (M,M) scenarios cost at least their panel bounds plus fixed
// parts, and keeping is always a candidate.
func (wb *withinBound) bound() int64 {
	return min(wb.keepCost, wb.w+wb.lb, 1+wb.sideCost+wb.lbLoop)
}

// crossCand is one neighbor root C of a pair under evaluation, as
// gathered by the bound pass.
type crossCand struct {
	c        int32
	bcA, bcB *blockCounts // looked up only when the panel may be solved
	keepCost int64        // |cross(A,C)| + |cross(B,C)|
	gt       int64
	bound    int64 // min(keepCost, case2Bound): the cross plan costs at least this
}

type crossPlan struct {
	c        int32
	keep     bool
	prob     *bipProblem
	plan     bipPlan
	cost     int64
	keepCost int64
	gt       int64
}

// blockMin returns the cheapest achievable cost of one block over all
// ambient nets: 0 for uniform blocks, min(gt, total-gt) for mixed ones.
func blockMin(gt, total int64) int64 {
	if gt == 0 || gt == total {
		return 0
	}
	if d := total - gt; d < gt {
		return d
	}
	return gt
}

// case2Bound computes, without building the problem, a lower bound on
// any panel rewrite of the (A∪B, C) encoding: the sum of per-block
// minima over the atoms of A, B and C.
func (st *state) case2Bound(a, b, c int32, bcA, bcB *blockCounts) int64 {
	var lb, gtTotal int64
	catoms := st.atomsOf(c)
	nc := numAtoms(catoms)
	for s, x := range [2]int32{a, b} {
		bc := bcA
		if s == 1 {
			bc = bcB
		}
		atoms := st.atomsOf(x)
		na := numAtoms(atoms)
		for i := 0; i < na; i++ {
			for j := 0; j < nc; j++ {
				var gt int64
				if bc != nil {
					gt = bc.cnt[i][j]
				}
				gtTotal += gt
				lb += blockMin(gt, int64(st.size[atoms[i]])*int64(st.size[catoms[j]]))
			}
		}
	}
	// Any panel with subedges needs at least one signed edge.
	if lb == 0 && gtTotal > 0 {
		lb = 1
	}
	return lb
}

// case1Bound is the analogous bound for the cross(A,B) blocks. loop is
// the plain sum of block minima; lb adds the one-edge floor, which
// holds only for a panel without an ambient net: under the (M,M)
// self-loop a complete cross(A,B) costs nothing.
func (st *state) case1Bound(a, b int32, bc *blockCounts) (lb, loop int64) {
	var gtTotal int64
	aAtoms := st.atomsOf(a)
	bAtoms := st.atomsOf(b)
	for i := 0; i < numAtoms(aAtoms); i++ {
		for j := 0; j < numAtoms(bAtoms); j++ {
			var gt int64
			if bc != nil {
				gt = bc.cnt[i][j]
			}
			gtTotal += gt
			loop += blockMin(gt, int64(st.size[aAtoms[i]])*int64(st.size[bAtoms[j]]))
		}
	}
	lb = loop
	if lb == 0 && gtTotal > 0 {
		lb = 1
	}
	return lb, loop
}

// boundWithin fills wb for the pair (a, b): the keep cost, the panel
// bounds and the (M,M) scenario's side handling.
func (st *state) boundWithin(wb *withinBound, a, b int32, bc *blockCounts) {
	wb.bc = bc
	wb.w = int64(len(st.within[a])) + int64(len(st.within[b]))
	wb.keepCost = wb.w + st.crossLen(a, b)
	wb.lb, wb.lbLoop = st.case1Bound(a, b, bc)
	wb.sideCost = 0
	for s, x := range [2]int32{a, b} {
		switch {
		case st.isLeaf(x):
			wb.sideMode[s] = sideDrop
		case st.selfGT[x] == pairsWithin(st.size[x]):
			wb.sideMode[s] = sideDrop
		default:
			nKeep := 1 + int64(len(st.within[x]))
			nList := pairsWithin(st.size[x]) - st.selfGT[x]
			if nKeep <= nList {
				wb.sideMode[s] = sideNLoopKeep
				wb.sideCost += nKeep
			} else {
				wb.sideMode[s] = sideNList
				wb.sideCost += nList
			}
		}
	}
}

// mergeDecision is the full outcome of a (temporary) merge evaluation;
// committing it applies exactly the evaluated encoding.
type mergeDecision struct {
	a, b      int32
	within    withinPlan
	crosses   []crossPlan
	numerator int64
	saving    float64
}

// fillLeftSingle configures the left side of a problem as one tree
// (top, atoms = children or self), used by Case 1.
func (st *state) fillLeftSingle(p *bipProblem, top int32) {
	atoms := st.atomsOf(top)
	p.leftTop = top
	p.groups = [2]int32{-1, -1}
	p.nAtoms = numAtoms(atoms)
	for i := 0; i < p.nAtoms; i++ {
		p.atoms[i] = atoms[i]
		p.groupOf[i] = -1
		p.rowOK[i] = atoms[i] != top
		p.leftSizes[i] = int64(st.size[atoms[i]])
	}
}

// fillRight configures the right side of a problem as one tree.
func (st *state) fillRight(p *bipProblem, top int32) {
	atoms := st.atomsOf(top)
	p.rightTop = top
	p.nRight = numAtoms(atoms)
	for j := 0; j < p.nRight; j++ {
		p.rightAtoms[j] = atoms[j]
		p.rightSizes[j] = int64(st.size[atoms[j]])
	}
	p.colsOK = p.nRight > 1
}

// fillCase1 builds the panel optimization for the cross(A,B) adjacency:
// left tree (A, ch(A)), right tree (B, ch(B)). bc may be nil (no edges).
func (st *state) fillCase1(p *bipProblem, a, b int32, bc *blockCounts, offset int8) {
	st.fillLeftSingle(p, a)
	st.fillRight(p, b)
	p.offset = offset
	for i := 0; i < p.nAtoms; i++ {
		for j := 0; j < p.nRight; j++ {
			if bc != nil {
				p.cnt[i][j] = bc.cnt[i][j]
			} else {
				p.cnt[i][j] = 0
			}
		}
	}
}

// fillCase2 builds the panel optimization for the adjacency between the
// merged tree M = A∪B and root C's tree.
func (st *state) fillCase2(p *bipProblem, mid, a, b, c int32, bcA, bcB *blockCounts) {
	p.leftTop = mid
	p.groups = [2]int32{-1, -1}
	p.offset = 0
	n := 0
	for s, x := range [2]int32{a, b} {
		atoms := st.atomsOf(x)
		na := numAtoms(atoms)
		grp := int8(-1)
		if na > 1 {
			p.groups[s] = x
			grp = int8(s)
		}
		bc := bcA
		if s == 1 {
			bc = bcB
		}
		for i := 0; i < na; i++ {
			p.atoms[n] = atoms[i]
			p.groupOf[n] = grp
			p.rowOK[n] = true
			p.leftSizes[n] = int64(st.size[atoms[i]])
			for j := 0; j < maxRight; j++ {
				if bc != nil {
					p.cnt[n][j] = bc.cnt[i][j]
				} else {
					p.cnt[n][j] = 0
				}
			}
			n++
		}
	}
	p.nAtoms = n
	st.fillRight(p, c)
}

// computeWithinPlan evaluates the three Case-1 scenarios and returns
// the cheapest exact encoding of within(M). Panel problems come from
// the context free-list; the losing scenario's problem is returned.
func (st *state) computeWithinPlan(ctx *gctx, a, b int32, wb *withinBound) withinPlan {
	keepCost := wb.keepCost

	var prob1 *bipProblem
	rewriteCost := inf
	var plan1 bipPlan
	if wb.w+wb.lb < keepCost {
		prob1 = ctx.getProb()
		st.fillCase1(prob1, a, b, wb.bc, 0)
		plan1 = solveBip(prob1)
		rewriteCost = wb.w + plan1.cost
	}

	// (M,M) scenario: the side handling's cost bounds whether the second
	// solve is worth running.
	var prob2 *bipProblem
	loopCost := inf
	var plan2 bipPlan
	bound := keepCost
	if rewriteCost < bound {
		bound = rewriteCost
	}
	if 1+wb.sideCost+wb.lb < bound {
		prob2 = ctx.getProb()
		st.fillCase1(prob2, a, b, wb.bc, 1)
		plan2 = solveBip(prob2)
		loopCost = 1 + wb.sideCost + plan2.cost
	}

	switch {
	case keepCost <= rewriteCost && keepCost <= loopCost:
		ctx.putProb(prob1)
		ctx.putProb(prob2)
		return withinPlan{cost: keepCost, scenario: withinKeep}
	case rewriteCost <= loopCost:
		ctx.putProb(prob2)
		return withinPlan{cost: rewriteCost, scenario: withinRewrite, prob: prob1, plan: plan1}
	default:
		ctx.putProb(prob1)
		return withinPlan{cost: loopCost, scenario: withinSelfLoop, prob: prob2, plan: plan2, sideMode: wb.sideMode}
	}
}

// gatherCross records neighbor root c of the pair (a, b) with its keep
// cost and cross-plan lower bound. A panel with subedges needs at least
// one signed edge, so a single kept edge is optimal without looking at
// the block counts.
func (st *state) gatherCross(a, b, c int32, eA, eB *crossEntry, sweepA, sweepB *rootSweep) crossCand {
	cd := crossCand{c: c}
	if eA != nil {
		cd.keepCost += int64(len(eA.edges))
		cd.gt += eA.gt
	}
	if eB != nil {
		cd.keepCost += int64(len(eB.edges))
		cd.gt += eB.gt
	}
	cd.bound = cd.keepCost
	if cd.keepCost > 1 || cd.gt == 0 {
		cd.bcA, cd.bcB = sweepA.get(c), sweepB.get(c)
		cd.bound = min(cd.keepCost, st.case2Bound(a, b, c, cd.bcA, cd.bcB))
	}
	return cd
}

// computeCrossPlan evaluates keeping versus rewriting the encoding
// between the merged tree and the gathered root cd.c; the panel is
// solved only when its bound leaves room for a cheaper rewrite. The
// context's scratch problem avoids allocation; it is copied into a
// pooled problem only when a rewrite wins.
func (st *state) computeCrossPlan(ctx *gctx, mid, a, b int32, cd *crossCand) crossPlan {
	keep := crossPlan{c: cd.c, keep: true, cost: cd.keepCost, keepCost: cd.keepCost, gt: cd.gt}
	if cd.bound >= cd.keepCost {
		return keep
	}
	scratch := &ctx.scratch
	st.fillCase2(scratch, mid, a, b, cd.c, cd.bcA, cd.bcB)
	plan := solveBip(scratch)
	if plan.cost < cd.keepCost {
		prob := ctx.getProb()
		*prob = *scratch
		return crossPlan{c: cd.c, keep: false, prob: prob, plan: plan, cost: plan.cost, keepCost: cd.keepCost, gt: cd.gt}
	}
	return keep
}

// numeratorCutoff over-approximates the largest numerator of Eq. (8)
// that still achieves minSaving over denom. The slack must dominate
// the rounding error of the float64 product (~denom*2^-52), or a cutoff
// published by a concurrent float-tied evaluation could spuriously
// abort the true argmax on some schedules; a relative slack keeps the
// abort conservative at every magnitude, so ties always survive and the
// index-ordered reduction stays schedule-independent. A cutoff beyond
// the int64 range saturates, so a minSaving far below zero disables
// the abort instead of wrapping around.
func numeratorCutoff(minSaving float64, denom int64) int64 {
	f := (1 - minSaving) * float64(denom)
	if !(f < 1<<62) {
		return math.MaxInt64
	}
	return int64(f) + 1 + int64(float64(denom)*1e-12)
}

// mergeBound returns a lower bound on the numerator of merging roots a
// and b: the exact h-edge cost, wb's within bound and every gathered
// cross bound. It fills wb and ctx.cands with one pass over
// N(a) ∪ N(b) \ {a, b} and stops early once the bound exceeds cutoff,
// in which case ctx.cands is incomplete.
func (st *state) mergeBound(ctx *gctx, a, b int32, sweepA, sweepB *rootSweep, wb *withinBound, cutoff int64) int64 {
	st.boundWithin(wb, a, b, sweepA.get(b))
	lb := st.hCost[a] + st.hCost[b] + 2 + wb.bound()
	ctx.cands = ctx.cands[:0]
	if lb > cutoff {
		return lb
	}
	nbrsA, nbrsB := st.nbrs[a], st.nbrs[b]
	for c, eA := range nbrsA {
		if c == b {
			continue
		}
		cd := st.gatherCross(a, b, c, eA, nbrsB[c], sweepA, sweepB)
		ctx.cands = append(ctx.cands, cd)
		if lb += cd.bound; lb > cutoff {
			return lb
		}
	}
	for c, eB := range nbrsB {
		if c == a {
			continue
		}
		if _, dup := nbrsA[c]; dup {
			continue
		}
		cd := st.gatherCross(a, b, c, nil, eB, sweepA, sweepB)
		ctx.cands = append(ctx.cands, cd)
		if lb += cd.bound; lb > cutoff {
			return lb
		}
	}
	return lb
}

// evaluateMerge evaluates merging roots a and b into the prospective
// supernode id mid, returning the full decision and its saving
// (Eq. (8)), or nil when the merge is infeasible (zero denominator, or
// it would exceed the height bound hb; hb <= 0 means unbounded — the
// original SLUGGER). mid must equal the id the merge would be committed
// under, since rewritten panels reference it.
//
// minSaving is a sound pruning cutoff: the evaluation returns nil as
// soon as the saving provably falls below it — such a pair can neither
// win the argmax nor pass the merging threshold. The proof uses a
// two-level bound. Each panel's bound (the sum of its blocks' best
// costs, see encode.go) is a lower bound on that panel's cost, so the
// sum over all panels of min(keep cost, panel bound) bounds the
// numerator before anything is solved; a pair whose bound already
// exceeds the cutoff is rejected there. Otherwise the panels whose
// bound leaves room for a rewrite are solved one by one, each exact
// cost replacing its bound term, and the evaluation aborts once the
// tightened bound exceeds the cutoff. Every abort therefore implies
// that the exact numerator exceeds the cutoff, so which pairs survive,
// and their decisions, do not depend on the order or the cutoff's
// schedule.
func (st *state) evaluateMerge(ctx *gctx, a, b, mid int32, sweepA, sweepB *rootSweep, hb int, minSaving float64) *mergeDecision {
	if hb > 0 {
		h := st.height[a]
		if st.height[b] > h {
			h = st.height[b]
		}
		if int(h)+1 > hb {
			return nil
		}
	}
	denom := st.rootCost(a) + st.rootCost(b) - st.crossLen(a, b)
	if denom <= 0 {
		return nil
	}
	numCutoff := numeratorCutoff(minSaving, denom)
	var wb withinBound
	num := st.mergeBound(ctx, a, b, sweepA, sweepB, &wb, numCutoff)
	if num > numCutoff {
		return nil
	}
	dec := ctx.getDec()
	dec.a, dec.b = a, b
	dec.within = st.computeWithinPlan(ctx, a, b, &wb)
	if num += dec.within.cost - wb.bound(); num > numCutoff {
		ctx.putDec(dec)
		return nil
	}
	for i := range ctx.cands {
		cd := &ctx.cands[i]
		cp := st.computeCrossPlan(ctx, mid, a, b, cd)
		dec.crosses = append(dec.crosses, cp)
		if num += cp.cost - cd.bound; num > numCutoff {
			ctx.putDec(dec)
			return nil
		}
	}
	dec.numerator = num
	dec.saving = 1 - float64(num)/float64(denom)
	return dec
}

// exactEdges copies the context's edge-building scratch into an
// exact-size long-lived slice.
func exactEdges(buf []sedge) []sedge {
	if len(buf) == 0 {
		return nil
	}
	out := make([]sedge, len(buf))
	copy(out, buf)
	return out
}

// commitMerge applies a merge decision under the supernode id m (which
// must equal the mid the decision was evaluated with): it rewrites the
// encoding per the evaluated plans and updates all bookkeeping. Must be
// called with the decision-relevant state unchanged since evaluation.
// Mutations of neighbor maps on roots outside the merged pair take the
// per-root striped lock, so groups sharing an external neighbor can
// commit concurrently. The decision is consumed (recycled into ctx).
func (st *state) commitMerge(ctx *gctx, dec *mergeDecision, m int32) int32 {
	a, b := dec.a, dec.b

	// Materialize within(M) in the context scratch, then copy exact.
	buf := ctx.edgeBuf[:0]
	switch dec.within.scenario {
	case withinKeep:
		buf = append(buf, st.within[a]...)
		buf = append(buf, st.within[b]...)
		if e, ok := st.nbrs[a][b]; ok {
			buf = append(buf, e.edges...)
		}
	case withinRewrite:
		buf = append(buf, st.within[a]...)
		buf = append(buf, st.within[b]...)
		buf = st.materializeBip(ctx, buf, dec.within.prob, &dec.within.plan)
	case withinSelfLoop:
		buf = append(buf, sedge{a: m, b: m, sign: 1})
		for s, x := range [2]int32{a, b} {
			switch dec.within.sideMode[s] {
			case sideNLoopKeep:
				buf = append(buf, sedge{a: x, b: x, sign: -1})
				buf = append(buf, st.within[x]...)
			case sideDrop:
				// nothing: (M,M) alone covers the complete side
			case sideNList:
				buf = st.appendWithinNonEdges(ctx, buf, x, -1)
			}
		}
		buf = st.materializeBip(ctx, buf, dec.within.prob, &dec.within.plan)
	}
	w := exactEdges(buf)
	ctx.edgeBuf = buf[:0]

	// Materialize the cross entries before mutating locators.
	newEntries := make([]*crossEntry, len(dec.crosses))
	for i := range dec.crosses {
		cp := &dec.crosses[i]
		buf = ctx.edgeBuf[:0]
		if cp.keep {
			if e, ok := st.nbrs[a][cp.c]; ok {
				buf = append(buf, e.edges...)
			}
			if e, ok := st.nbrs[b][cp.c]; ok {
				buf = append(buf, e.edges...)
			}
		} else {
			buf = st.materializeBip(ctx, buf, cp.prob, &cp.plan)
		}
		newEntries[i] = &crossEntry{edges: exactEdges(buf), gt: cp.gt}
		ctx.edgeBuf = buf[:0]
	}

	var gtAB int64
	if e, ok := st.nbrs[a][b]; ok {
		gtAB = e.gt
	}

	// Allocate M at its reserved id.
	st.parent[m] = -1
	st.child[m] = [2]int32{a, b}
	st.size[m] = st.size[a] + st.size[b]
	h := st.height[a]
	if st.height[b] > h {
		h = st.height[b]
	}
	st.height[m] = h + 1
	vs := make([]int32, 0, st.size[a]+st.size[b])
	vs = append(vs, st.verts[a]...)
	vs = append(vs, st.verts[b]...)
	st.verts[m] = vs
	st.hCost[m] = st.hCost[a] + st.hCost[b] + 2
	st.within[m] = w
	st.selfGT[m] = st.selfGT[a] + st.selfGT[b] + gtAB
	st.nbrs[m] = make(map[int32]*crossEntry, len(dec.crosses))

	// Swap in the new cross entries. The neighbor c may be shared with
	// another concurrently-committing group; its map and pcost are
	// guarded by the striped lock. st.nbrs[m] is group-owned.
	var crossTotal int64
	for i := range dec.crosses {
		cp := &dec.crosses[i]
		c := cp.c
		entry := newEntries[i]
		st.nbrs[m][c] = entry
		delta := int64(len(entry.edges)) - cp.keepCost
		mu := st.stripe(c)
		mu.Lock()
		delete(st.nbrs[c], a)
		delete(st.nbrs[c], b)
		st.nbrs[c][m] = entry
		st.pcost[c] += delta
		mu.Unlock()
		crossTotal += int64(len(entry.edges))
	}
	st.pcost[m] = int64(len(w)) + crossTotal

	// Update locators and hierarchy.
	for _, v := range st.verts[a] {
		st.rootOf[v] = m
		st.topUnit[v] = a
	}
	for _, v := range st.verts[b] {
		st.rootOf[v] = m
		st.topUnit[v] = b
	}
	st.parent[a] = m
	st.parent[b] = m
	st.within[a] = nil
	st.within[b] = nil
	st.nbrs[a] = nil
	st.nbrs[b] = nil
	st.pcost[a] = 0
	st.pcost[b] = 0
	ctx.putDec(dec)
	return m
}

// tryMerge evaluates merging roots a and b with freshly-built sweeps
// and commits when feasible, returning the new supernode id or -1.
// Serial-phase helper used by tests and simple callers.
func (st *state) tryMerge(ctx *gctx, a, b int32, hb int, minSaving float64) int32 {
	ids := st.reserveIDs(1)
	mid := ids[0]
	sweepA := st.sweepInto(ctx, a)
	sweepB := st.sweepInto(ctx, b)
	dec := st.evaluateMerge(ctx, a, b, mid, sweepA, sweepB, hb, minSaving)
	ctx.putSweep(sweepA)
	ctx.putSweep(sweepB)
	if dec == nil {
		st.releaseIDs(ids)
		return -1
	}
	return st.commitMerge(ctx, dec, mid)
}

// totalCost recomputes the full encoding cost |P+|+|P-|+|H| from the
// bookkeeping (used by tests and instrumentation; O(#roots + #entries)).
func (st *state) totalCost() int64 {
	var total int64
	for _, r := range st.roots() {
		total += st.hCost[r] + int64(len(st.within[r]))
		for c, e := range st.nbrs[r] {
			if c > r {
				total += int64(len(e.edges))
			}
		}
	}
	return total
}
