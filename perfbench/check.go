package main

// Correctness oracles: what every served answer must equal.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/algos"
	"repro/internal/serve"
)

// oracle is the expected graph as sorted adjacency lists.
type oracle [][]int32

func (o oracle) has(u, v int32) bool {
	_, ok := slices.BinarySearch(o[u], v)
	return ok
}

func (o oracle) set(u, v int32, present bool) {
	for _, e := range [2][2]int32{{u, v}, {v, u}} {
		i, ok := slices.BinarySearch(o[e[0]], e[1])
		switch {
		case present && !ok:
			o[e[0]] = slices.Insert(o[e[0]], i, e[1])
		case !present && ok:
			o[e[0]] = slices.Delete(o[e[0]], i, i+1)
		}
	}
}

// adjacency is the graph the servers must be serving now: the input,
// plus on serve-write every acknowledged update batch, applied in the
// order of the versions the server acknowledged them at.
func (r *runner) adjacency() oracle {
	o := make(oracle, r.g.NumNodes())
	for v := range o {
		o[v] = slices.Clone(r.g.Neighbors(int32(v)))
		slices.Sort(o[v])
	}
	for _, q := range ackOrder(r.acked) {
		for _, u := range q.ups {
			o.set(u.U, u.V, !u.Delete)
		}
	}
	return o
}

// ackOrder sorts acknowledged update requests into the order the
// server applied them: by acknowledged version, and a batch that
// changed nothing (it carries the version of the batch before it)
// after that batch.
func ackOrder(acked []*request) []*request {
	out := slices.Clone(acked)
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.ackVersion != b.ackVersion {
			return a.ackVersion < b.ackVersion
		}
		return a.applied > 0 && b.applied == 0
	})
	return out
}

// checkNeighbors compares the served neighborhoods of vs, fetched as
// one binary batch, with the oracle.
func (r *runner) checkNeighbors(base string, vs []int32, want oracle) error {
	body, err := httpPost(base, "/batch/neighbors", "application/octet-stream", serve.EncodeNeighborsRequest(vs))
	if err != nil {
		return err
	}
	got, err := serve.DecodeNeighborsResponse(body, len(vs))
	if err != nil {
		return err
	}
	for i, v := range vs {
		slices.Sort(got[i])
		if !slices.Equal(got[i], want[v]) {
			return fmt.Errorf("neighbors of %d: served %d, expected %d (first served %v, expected %v)",
				v, len(got[i]), len(want[v]), head(got[i]), head(want[v]))
		}
	}
	return nil
}

func head(xs []int32) []int32 { return xs[:min(len(xs), 5)] }

// checkServing compares the served graph with the oracle: every
// vertex's neighborhood, a seeded sample of edge queries (half of them
// real edges), and the PageRank top 5.
func (r *runner) checkServing(base, when string) {
	want := r.adjacency()
	n := int32(len(want))
	const chunk = 512
	r.check("neighborhoods "+when, func() error {
		for lo := int32(0); lo < n; lo += chunk {
			vs := make([]int32, 0, chunk)
			for v := lo; v < min(lo+chunk, n); v++ {
				vs = append(vs, v)
			}
			if err := r.checkNeighbors(base, vs, want); err != nil {
				return err
			}
		}
		return nil
	}())
	r.check("hasedge sample "+when, func() error {
		g := rng{s: splitmix64(uint64(r.seed) ^ 0xed9e)}
		for i := 0; i < r.cfg.SampleChecks; i++ {
			u := int32(g.next() % uint64(n))
			v := int32(g.next() % uint64(n))
			if i%2 == 0 && len(want[u]) > 0 {
				v = want[u][g.next()%uint64(len(want[u]))]
			}
			body, err := httpGet(base, fmt.Sprintf("/hasedge?u=%d&v=%d", u, v))
			if err != nil {
				return err
			}
			var ans struct {
				Exists bool `json:"exists"`
			}
			if err := json.Unmarshal(body, &ans); err != nil {
				return fmt.Errorf("decoding /hasedge: %w", err)
			}
			if ans.Exists != want.has(u, v) {
				return fmt.Errorf("hasedge(%d,%d) served %v, expected %v", u, v, ans.Exists, !ans.Exists)
			}
		}
		return nil
	}())
	r.check("pagerank top 5 "+when, r.checkPageRank(base, want))
}

// checkPageRank compares the served top 5 with PageRank on the oracle:
// each served vertex's rank must match, and no unserved vertex may
// rank above the fifth served one (vertices of equal rank may be
// returned in either order).
func (r *runner) checkPageRank(base string, want oracle) error {
	body, err := httpGet(base, "/pagerank?t="+strconv.Itoa(r.cfg.PageRankT)+"&top=5")
	if err != nil {
		return err
	}
	var ans struct {
		Top []struct {
			V    int32   `json:"v"`
			Rank float64 `json:"rank"`
		} `json:"top"`
	}
	if err := json.Unmarshal(body, &ans); err != nil {
		return fmt.Errorf("decoding /pagerank: %w", err)
	}
	exp := algos.PageRank(algos.FromFuncs(len(want), func(v int32) []int32 { return want[v] }), 0.85, r.cfg.PageRankT)
	if len(ans.Top) != 5 {
		return fmt.Errorf("served %d ranks, want 5", len(ans.Top))
	}
	const tol = 1e-9
	served := map[int32]bool{}
	for _, t := range ans.Top {
		if math.Abs(t.Rank-exp[t.V]) > tol*exp[t.V] {
			return fmt.Errorf("rank of %d served %g, expected %g", t.V, t.Rank, exp[t.V])
		}
		served[t.V] = true
	}
	fifth := ans.Top[4].Rank
	for v, x := range exp {
		if !served[int32(v)] && x > fifth*(1+tol) {
			return fmt.Errorf("vertex %d ranks %g, above the served fifth %g", v, x, fifth)
		}
	}
	return nil
}

// pollCompaction samples the serve-write server's /stats while the
// load runs; the returned stop function records how many compactions
// completed and the share of samples that found one in flight.
func (r *runner) pollCompaction() func() {
	if r.w.Serve != "mutable" {
		return nil
	}
	first, err := fetchStats(r.base)
	if err != nil || first.Overlay == nil {
		r.fail("reading compaction counters: %v", err)
		return nil
	}
	stop, done := make(chan struct{}), make(chan struct{})
	var samples, busy int
	go func() {
		defer close(done)
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
			}
			if st, err := fetchStats(r.base); err == nil && st.Overlay != nil {
				samples++
				if st.Overlay.Compacting {
					busy++
				}
			}
		}
	}()
	return func() {
		close(stop)
		<-done
		// Let the last compaction finish so the count is of completed
		// ones and the end state is checked without one in flight.
		var last *statsDoc
		for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
			if last, err = fetchStats(r.base); err != nil || last.Overlay == nil || !last.Overlay.Compacting {
				break
			}
		}
		if last == nil || last.Overlay == nil {
			r.fail("reading compaction counters: %v", err)
			return
		}
		n := last.Overlay.Compactions - first.Overlay.Compactions
		r.m["model.compactions"] = float64(n)
		if samples > 0 {
			r.m["model.compacting_frac"] = float64(busy) / float64(samples)
		}
		r.check("background compactions", func() error {
			if int(n) < r.w.MinCompactions {
				return fmt.Errorf("%d completed during the load, the workload needs at least %d", n, r.w.MinCompactions)
			}
			return nil
		}())
	}
}

// crashAndRecover kills the serve-write server with SIGKILL, restarts it from
// its WAL directory alone, and times the restart to the first correct
// answer; every acknowledged update must have survived.
func (r *runner) crashAndRecover() error {
	old := r.servers[0]
	old.stop(syscall.SIGKILL, time.Second)
	r.m["peak_rss_mb"] = old.peakRSSMB()
	port, err := freePort()
	if err != nil {
		return err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	want := r.adjacency()
	probe := r.probeVertex()
	if len(r.acked) > 0 {
		probe = r.acked[len(r.acked)-1].ups[0].U
	}
	t0 := time.Now()
	p, err := r.ps.start("serve", r.mutableArgs(addr, false)...)
	if err != nil {
		return err
	}
	r.servers = []*proc{p}
	r.base = "http://" + addr
	done, err := waitCorrect(func() error { return r.checkNeighbors(r.base, []int32{probe}, want) }, r.servers, 60*time.Second)
	r.attempted++
	if err != nil {
		r.failed++
		return fmt.Errorf("recovering from the WAL: %w", err)
	}
	r.m["recovery_s"] = done.Sub(t0).Seconds()
	r.checkServing(r.base, "after kill -9 and WAL recovery")
	return nil
}

// walSegmentBytes is the total size of the log segments in a WAL
// directory.
func walSegmentBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".seg") {
			info, err := e.Info()
			if err != nil {
				return 0, err
			}
			n += info.Size()
		}
	}
	return n, nil
}
