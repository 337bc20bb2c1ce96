package main

// The traced run's in-process layer measurements: the benchmark calls
// the layers' public functions itself, on the run's input and request
// sequence, and times each call from outside.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/algos"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/wal"
	"repro/pkg/slug"
)

// layerClock records layer spans relative to its start.
type layerClock struct {
	start time.Time
	spans []span
}

// time runs fn as one span and returns its duration.
func (c *layerClock) time(name string, fn func() error) (time.Duration, error) {
	t0 := time.Now()
	err := fn()
	t1 := time.Now()
	c.add(name, t0, t1)
	return t1.Sub(t0), err
}

func (c *layerClock) add(name string, t0, t1 time.Time) {
	c.spans = append(c.spans, span{Phase: "layers", Name: name, Request: -1,
		StartNs: int64(t0.Sub(c.start)), EndNs: int64(t1.Sub(c.start))})
}

// measureLayers times the build layers, replays the nominal phase's
// reads and the run's update batches against the query engines, and
// times the write-ahead log.
func (r *runner) measureLayers() error {
	c := &layerClock{start: time.Now()}
	defer func() { r.spans = append(r.spans, c.spans...) }()

	// Build: ingest, merge waves, prune, emit, compile, persist, open.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var g *graph.Graph
	d, err := c.time("graph.ingest", func() (err error) { g, err = graph.LoadEdgeList(r.edges); return err })
	if err != nil {
		return err
	}
	r.m["graph.ingest_ms"] = ms(d)
	var lastIter, lastPrune time.Time
	cfg := core.Config{
		T: r.cfg.Iterations, Seed: r.seed, Workers: r.cfg.BuildWorkers,
		OnIteration:    func(int, int64) { lastIter = time.Now() },
		OnPruneSubstep: func(int, int, core.PruneSnapshot) { lastPrune = time.Now() },
	}
	t0 := time.Now()
	sum, st, err := core.SummarizeCtx(context.Background(), g, cfg)
	if err != nil {
		return err
	}
	t1 := time.Now()
	c.add("core.merge", t0, lastIter)
	c.add("core.prune", lastIter, lastPrune)
	c.add("core.emit", lastPrune, t1)
	r.m["core.merge_s"] = lastIter.Sub(t0).Seconds()
	r.m["core.prune_ms"] = ms(lastPrune.Sub(lastIter))
	r.m["core.emit_ms"] = ms(t1.Sub(lastPrune))
	r.m["core.merges"] = float64(st.Merges)
	r.m["core.prune_saving"] = float64(st.CostBeforePrune-st.FinalCost) / float64(st.CostBeforePrune)
	if r.w.Serve != "fed" { // fed-read's artifact is sharded; its cost differs
		r.check("in-process build reproduces the slugger artifact's cost", func() error {
			if st.FinalCost != r.cost {
				return fmt.Errorf("cost %d, slugger built %d", st.FinalCost, r.cost)
			}
			return nil
		}())
	}
	var cs *model.CompiledSummary
	d, _ = c.time("model.compile", func() error { cs = sum.Compile(); return nil })
	r.m["model.compile_ms"] = ms(d)
	r.m["model.supernodes"] = float64(cs.NumSupernodes())
	r.m["model.superedges"] = float64(cs.NumSuperedges())
	art := slug.NewHierarchical("slugger", sum)
	path := filepath.Join(r.dir, "layers.slgc")
	if d, err = c.time("slug.persist", func() error { return slug.SaveCompiled(path, art) }); err != nil {
		return err
	}
	r.m["slug.persist_ms"] = ms(d)
	runtime.ReadMemStats(&after)
	r.m["build.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	var mapped *slug.Mapped
	if d, err = c.time("slug.open", func() (err error) { mapped, err = slug.OpenMapped(path); return err }); err != nil {
		return err
	}
	defer mapped.Close()
	r.m["slug.open_ms"] = ms(d)
	base, err := mapped.Queryable()
	if err != nil {
		return err
	}

	// Reads of the nominal phase, replayed on the compiled base.
	reads := r.nominalReads()
	qctx := base.AcquireCtx()
	nbrNs, hasNs := replayReads(c, "model.replay_base", reads, qctx.NeighborsOf, qctx.HasEdge)
	base.ReleaseCtx(qctx)
	r.m["model.neighbors_ns"], r.m["model.hasedge_ns"] = nbrNs, hasNs
	qctx = base.AcquireCtx()
	r.m["algos.pagerank_ms"] = r.timePageRank(c, "algos.pagerank", base.NumNodes(), qctx.NeighborsOf)
	base.ReleaseCtx(qctx)

	// The run's update batches on a live summary over the mapped base.
	batches := r.updateBatches()
	up, err := slug.NewUpdatable(mapped, slug.WithIterations(r.cfg.Iterations), slug.WithSeed(r.seed))
	if err != nil {
		return err
	}
	defer up.Close()
	var apply time.Duration
	for _, b := range batches {
		d, err := c.time("model.live_apply", func() error { _, err := up.Live().ApplyUpdates(b); return err })
		if err != nil {
			return err
		}
		apply += d
	}
	r.m["model.live_apply_us"] = us(apply) / float64(max(len(batches), 1))
	view := up.View()
	octx := view.AcquireCtx()
	r.m["model.overlay_neighbors_ns"], _ = replayReads(c, "model.replay_overlay", reads, octx.NeighborsOf, octx.HasEdge)
	r.m["algos.pagerank_overlay_ms"] = r.timePageRank(c, "algos.pagerank_overlay", view.NumNodes(), octx.NeighborsOf)
	view.ReleaseCtx(octx)
	if d, err = c.time("model.compaction", up.Compact); err != nil {
		return err
	}
	r.m["model.compaction_s"] = d.Seconds()

	// The write-ahead log: the same batches appended under fsync always,
	// then a recovery of a copy of the log.
	walDir := filepath.Join(r.dir, "wal-layers")
	log, _, err := wal.Open(wal.Options{Dir: walDir, Policy: wal.Always()})
	if err != nil {
		return err
	}
	var appendTime time.Duration
	nUps := 0
	for _, b := range batches {
		payload := model.EncodeUpdates(b)
		d, err := c.time("wal.append", func() error { _, err := log.Append(payload); return err })
		if err != nil {
			log.Close()
			return err
		}
		appendTime += d
		nUps += len(b)
	}
	if err := log.Close(); err != nil {
		return err
	}
	r.m["wal.append_us"] = us(appendTime) / float64(max(len(batches), 1))
	segBytes, err := walSegmentBytes(walDir)
	if err != nil {
		return err
	}
	r.m["wal.bytes_per_update"] = float64(segBytes) / float64(max(nUps, 1))
	src := walDir
	if r.w.Serve == "mutable" {
		src = r.walDir // serve-write: the served log, checkpoints included
	}
	cp := filepath.Join(r.dir, "wal-copy")
	if err := os.CopyFS(cp, os.DirFS(src)); err != nil {
		return err
	}
	d, err = c.time("wal.recover", func() error {
		l, _, err := wal.Open(wal.Options{Dir: cp, Policy: wal.Always()})
		if err != nil {
			return err
		}
		return l.Close()
	})
	if err != nil {
		return err
	}
	r.m["wal.recover_ms"] = ms(d)
	return nil
}

// nominalReads is the read requests of the nominal phase.
func (r *runner) nominalReads() []*request {
	var out []*request
	for i := range r.nominal.reqs {
		if q := &r.nominal.reqs[i]; q.op.isRead() {
			out = append(out, q)
		}
	}
	return out
}

// replayReads runs the reads through an engine three times and returns
// the median per-call time of neighbor and edge lookups, in ns.
func replayReads(c *layerClock, name string, reads []*request, nbrs func(int32) []int32, has func(u, v int32) bool) (nbrNs, hasNs float64) {
	var nbrRuns, hasRuns []float64
	for pass := 0; pass < 3; pass++ {
		var nbrT, hasT time.Duration
		var nbrN, hasN int
		t0 := time.Now()
		for _, q := range reads {
			s := time.Now()
			if q.op == opHasEdge {
				has(q.ids[0], q.ids[1])
				hasT += time.Since(s)
				hasN++
				continue
			}
			for _, v := range q.ids {
				nbrs(v)
			}
			nbrT += time.Since(s)
			nbrN += len(q.ids)
		}
		c.add(name, t0, time.Now())
		nbrRuns = append(nbrRuns, float64(nbrT)/float64(max(nbrN, 1)))
		hasRuns = append(hasRuns, float64(hasT)/float64(max(hasN, 1)))
	}
	return median(nbrRuns), median(hasRuns)
}

// timePageRank is the median time of three PageRank runs, in ms.
func (r *runner) timePageRank(c *layerClock, name string, n int, nbrs func(int32) []int32) float64 {
	var runs []float64
	for i := 0; i < 3; i++ {
		d, _ := c.time(name, func() error { algos.PageRank(algos.FromFuncs(n, nbrs), 0.85, r.cfg.PageRankT); return nil })
		runs = append(runs, ms(d))
	}
	return median(runs)
}

// updateBatches is the run's update stream: on serve-write the
// acknowledged batches in the order the server applied them, elsewhere
// the batches the write mix draws for the nominal phase.
func (r *runner) updateBatches() [][]model.EdgeUpdate {
	reqs := r.acked
	if r.w.Serve != "mutable" {
		gc := r.gc
		gc.Mix = r.cfg.Mixes["write"]
		all, err := schedule(gc, r.z, 1, r.w.NominalQPS, time.Duration(r.secs*r.cfg.NominalShare*float64(time.Second)))
		if err != nil {
			return nil
		}
		reqs = nil
		for i := range all {
			if all[i].op == opUpdate {
				reqs = append(reqs, &all[i])
			}
		}
	} else {
		reqs = ackOrder(reqs)
	}
	out := make([][]model.EdgeUpdate, len(reqs))
	for i, q := range reqs {
		for _, u := range q.ups {
			out[i] = append(out[i], model.EdgeUpdate{U: u.U, V: u.V, Delete: u.Delete})
		}
	}
	return out
}

// writeTrace writes the run's spans, one JSON object per line.
func (r *runner) writeTrace() error {
	if err := os.MkdirAll(r.out, 0o755); err != nil {
		return err
	}
	path := filepath.Join(r.out, fmt.Sprintf("%s-seed%d.jsonl", r.w.Name, r.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(r.spans), path)
	return nil
}
