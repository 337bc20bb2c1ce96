package core

// This file implements the per-worker scratch contexts and free-lists
// that make the merge inner loop allocation-free in steady state. Every
// goroutine that evaluates or commits merges owns a gctx; transient
// objects (sweep results, bipartite-panel problems, merge decisions,
// signed-edge buffers) are recycled through the context instead of
// being heap-allocated per evaluation. Contexts themselves are pooled
// on the state via sync.Pool, so the cost of a fully-warmed context is
// paid workers times per run, not once per evaluation.

// rootSweep holds, for one swept root, the block counts towards every
// adjacent root. It replaces the previous map[int32]*blockCounts: the
// counts live in a single contiguous slice (one arena per sweep,
// recycled through the context free-list) and an id->index table gives
// O(1) lookup. Entries are built via the context's epoch-stamped dense
// scratch, so the accumulation inner loop performs no map writes.
//
// Deleting keys (sweepCache.afterMerge) leaves tombstones in keys/vals;
// each() and size() see only live entries, via the lookup table.
type rootSweep struct {
	keys []int32
	vals []blockCounts
	lut  map[int32]int32
}

// get returns the counts towards root c, or nil. Safe on a nil sweep.
func (rs *rootSweep) get(c int32) *blockCounts {
	if rs == nil {
		return nil
	}
	if i, ok := rs.lut[c]; ok {
		return &rs.vals[i]
	}
	return nil
}

// entry returns the counts towards root c, adding a zero entry if
// absent. The returned pointer is invalidated by the next entry() call.
func (rs *rootSweep) entry(c int32) *blockCounts {
	if i, ok := rs.lut[c]; ok {
		return &rs.vals[i]
	}
	rs.lut[c] = int32(len(rs.keys))
	rs.keys = append(rs.keys, c)
	rs.vals = append(rs.vals, blockCounts{})
	return &rs.vals[len(rs.vals)-1]
}

// del removes the entry towards root c (tombstoning its slot).
func (rs *rootSweep) del(c int32) {
	delete(rs.lut, c)
}

// each visits every live entry in insertion order.
func (rs *rootSweep) each(f func(c int32, bc *blockCounts)) {
	for i, c := range rs.keys {
		if j, ok := rs.lut[c]; ok && j == int32(i) {
			f(c, &rs.vals[i])
		}
	}
}

// size returns the number of live entries.
func (rs *rootSweep) size() int { return len(rs.lut) }

func (rs *rootSweep) reset() {
	rs.keys = rs.keys[:0]
	rs.vals = rs.vals[:0]
	clear(rs.lut)
}

// gctx is the per-goroutine execution context for group processing:
// epoch-stamped vertex marks (each worker needs its own, since merge
// commits materialize correction lists concurrently), the dense sweep
// accumulation scratch, and free-lists for every transient object of
// the merge inner loop.
type gctx struct {
	st *state

	// Vertex marks (replaces the state-level marks during merging).
	mark  []int32
	epoch int32

	// Dense sweep-accumulation scratch, indexed by supernode id.
	swStamp []int32
	swIdx   []int32
	swEpoch int32

	// Case-2 scratch problem reused across cross evaluations.
	scratch bipProblem

	// evaluateMerge's gathered neighbor roots of the pair under
	// evaluation (see mergeBound).
	cands []crossCand

	// Free-lists.
	probFree  []*bipProblem
	decFree   []*mergeDecision
	sweepFree []*rootSweep
	cacheFree []map[int32]*rootSweep

	// Reusable buffers.
	edgeBuf []sedge // scratch for materializing signed-edge lists
	qBuf    []int32 // processGroup's candidate queue

	// argmaxParallel per-pop scratch (worker goroutines write disjoint
	// indices; only the owning group goroutine resizes).
	amSweeps  []*rootSweep
	amFresh   []bool
	amResults []*mergeDecision
}

// argmaxBufs returns the three length-n argmaxParallel scratch slices,
// zeroed.
func (ctx *gctx) argmaxBufs(n int) ([]*rootSweep, []bool, []*mergeDecision) {
	for cap(ctx.amSweeps) < n {
		ctx.amSweeps = append(ctx.amSweeps[:cap(ctx.amSweeps)], nil)
		ctx.amFresh = append(ctx.amFresh[:cap(ctx.amFresh)], false)
		ctx.amResults = append(ctx.amResults[:cap(ctx.amResults)], nil)
	}
	sweeps := ctx.amSweeps[:n]
	fresh := ctx.amFresh[:n]
	results := ctx.amResults[:n]
	for i := range sweeps {
		sweeps[i] = nil
		fresh[i] = false
		results[i] = nil
	}
	return sweeps, fresh, results
}

// nextEpoch advances this context's vertex-mark epoch.
func (ctx *gctx) nextEpoch() int32 {
	ctx.epoch++
	return ctx.epoch
}

// markVerts stamps the vertices of supernode sn with the given epoch.
func (ctx *gctx) markVerts(sn int32, epoch int32) {
	verts := ctx.st.verts[sn]
	for _, v := range verts {
		ctx.mark[v] = epoch
	}
}

// swEnsure sizes the dense sweep scratch to the current id space and
// opens a fresh stamp epoch.
func (ctx *gctx) swEnsure() int32 {
	if n := int(ctx.st.next); len(ctx.swStamp) < n {
		grown := make([]int32, n+n/2)
		copy(grown, ctx.swStamp)
		ctx.swStamp = grown
		grownIdx := make([]int32, n+n/2)
		copy(grownIdx, ctx.swIdx)
		ctx.swIdx = grownIdx
	}
	ctx.swEpoch++
	return ctx.swEpoch
}

func (ctx *gctx) getProb() *bipProblem {
	if n := len(ctx.probFree); n > 0 {
		p := ctx.probFree[n-1]
		ctx.probFree = ctx.probFree[:n-1]
		return p
	}
	return new(bipProblem)
}

func (ctx *gctx) putProb(p *bipProblem) {
	if p != nil {
		ctx.probFree = append(ctx.probFree, p)
	}
}

func (ctx *gctx) getDec() *mergeDecision {
	if n := len(ctx.decFree); n > 0 {
		d := ctx.decFree[n-1]
		ctx.decFree = ctx.decFree[:n-1]
		d.crosses = d.crosses[:0]
		return d
	}
	return new(mergeDecision)
}

// putDec recycles a decision, returning its panel problems to the
// free-list. Safe to call on nil.
func (ctx *gctx) putDec(d *mergeDecision) {
	if d == nil {
		return
	}
	ctx.putProb(d.within.prob)
	d.within.prob = nil
	for i := range d.crosses {
		ctx.putProb(d.crosses[i].prob)
		d.crosses[i].prob = nil
	}
	d.crosses = d.crosses[:0]
	ctx.decFree = append(ctx.decFree, d)
}

func (ctx *gctx) getSweep() *rootSweep {
	if n := len(ctx.sweepFree); n > 0 {
		rs := ctx.sweepFree[n-1]
		ctx.sweepFree = ctx.sweepFree[:n-1]
		return rs
	}
	return &rootSweep{lut: make(map[int32]int32)}
}

func (ctx *gctx) putSweep(rs *rootSweep) {
	if rs != nil {
		rs.reset()
		ctx.sweepFree = append(ctx.sweepFree, rs)
	}
}

func (ctx *gctx) getCacheMap() map[int32]*rootSweep {
	if n := len(ctx.cacheFree); n > 0 {
		m := ctx.cacheFree[n-1]
		ctx.cacheFree = ctx.cacheFree[:n-1]
		return m
	}
	return make(map[int32]*rootSweep)
}

func (ctx *gctx) putCacheMap(m map[int32]*rootSweep) {
	clear(m)
	ctx.cacheFree = append(ctx.cacheFree, m)
}

// getCtx borrows a warm context from the state's pool.
func (st *state) getCtx() *gctx {
	if v := st.ctxPool.Get(); v != nil {
		return v.(*gctx)
	}
	return &gctx{st: st, mark: make([]int32, st.n)}
}

func (st *state) putCtx(ctx *gctx) {
	st.ctxPool.Put(ctx)
}

// sweepInto counts, for root X, the subedges from X's atoms to the
// atoms of every other adjacent root, into a recycled rootSweep.
// Complexity O(sum of degrees in X), the bound used in Lemma 3; the
// accumulation loop touches only the dense epoch-stamped scratch, so a
// warmed context performs no allocation and no map writes per edge.
func (st *state) sweepInto(ctx *gctx, x int32) *rootSweep {
	rs := ctx.getSweep()
	ep := ctx.swEnsure()
	atoms := st.atomsOf(x)
	for _, u := range st.verts[x] {
		la := atomIndex(atoms, st.topUnit[u])
		for _, w := range st.g.Neighbors(u) {
			c := st.rootOf[w]
			if c == x {
				continue
			}
			var bc *blockCounts
			if ctx.swStamp[c] == ep {
				bc = &rs.vals[ctx.swIdx[c]]
			} else {
				ctx.swStamp[c] = ep
				ctx.swIdx[c] = int32(len(rs.keys))
				rs.keys = append(rs.keys, c)
				rs.vals = append(rs.vals, blockCounts{})
				bc = &rs.vals[len(rs.vals)-1]
			}
			catoms := st.atomsOf(c)
			bc.cnt[la][atomIndex(catoms, st.topUnit[w])]++
		}
	}
	for i, c := range rs.keys {
		rs.lut[c] = int32(i)
	}
	return rs
}
