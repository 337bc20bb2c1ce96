package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/datasets"
	"repro/internal/graph"
	"repro/pkg/slug"
)

// runner carries one benchmark run of one workload.
type runner struct {
	cfg   *config
	w     *workload
	seed  int64
	secs  float64
	trace bool
	ps    *procs
	dir   string // per-run scratch directory
	out   string // where traces are written

	g        *graph.Graph
	edges    string // edge-list path
	artifact string // artifact path (.slgc, or .slgs for fed-read)
	manifest string // fed-read: split manifest
	cost     int64
	gc       genConfig
	z        *zipf

	servers []*proc // the serving processes; the first answers the generator
	base    string  // base URL the generator targets
	walDir  string  // serve-write: the served WAL directory

	m         map[string]float64 // every metric measured
	attempted int
	failed    int
	failures  []string // failed correctness checks
	acked     []*request
	nominal   *loadResult
	spans     []span
}

// fail records a failed correctness check.
func (r *runner) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.failures = append(r.failures, msg)
	r.failed++
	fmt.Fprintln(os.Stderr, "perfbench: CHECK FAILED:", msg)
}

// check counts one correctness check, failing it when err is non-nil.
func (r *runner) check(what string, err error) {
	r.attempted++
	if err != nil {
		r.fail("%s: %v", what, err)
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// execute runs the whole workload: input, build, serve, load, checks.
func (r *runner) execute() error {
	defer r.ps.stopAll()
	if err := r.prepareInput(); err != nil {
		return err
	}
	if err := r.build(); err != nil {
		return err
	}
	if err := r.startServing(); err != nil {
		return err
	}
	if err := r.load(); err != nil {
		return err
	}
	r.checkServing(r.base, "after load")
	if r.w.Serve == "mutable" {
		if err := r.crashAndRecover(); err != nil {
			return err
		}
	}
	r.stopServing()
	if r.trace {
		if err := r.measureLayers(); err != nil {
			return err
		}
		if err := r.writeTrace(); err != nil {
			return err
		}
	}
	return nil
}

// prepareInput generates the workload's graph from the seed and writes
// it as an edge list, several times; on build its median CPU and wall
// times are setup_s and setup_wall_s. Every repetition must produce the
// recorded input.
func (r *runner) prepareInput() error {
	spec, err := datasets.ByName(r.w.Dataset)
	if err != nil {
		return err
	}
	r.edges = filepath.Join(r.dir, "graph.txt")
	var times, cpu []float64
	digests := map[string]bool{}
	for i := 0; i < r.cfg.Setups; i++ {
		runtime.GC() // each repetition starts from the same heap, so it pays for its own garbage only
		t0, c0 := time.Now(), selfCPU()
		g := spec.Generate(r.w.Scale, r.seed)
		if err := graph.SaveEdgeList(r.edges, g); err != nil {
			return fmt.Errorf("writing input: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		cpu = append(cpu, (selfCPU() - c0).Seconds())
		raw, err := os.ReadFile(r.edges)
		if err != nil {
			return err
		}
		sum := sha256.Sum256(raw)
		digests[hex.EncodeToString(sum[:])] = true
		r.g = g
	}
	if r.w.Focus == "build" {
		r.m["setup_s"], r.m["setup_wall_s"] = median(cpu), median(times)
	}
	r.check("input is deterministic", func() error {
		if len(digests) != 1 {
			return fmt.Errorf("%d different edge lists from one seed", len(digests))
		}
		return nil
	}())
	var digest string
	for d := range digests {
		digest = d
	}
	key := inputKey(r.w.Dataset, r.w.Scale)
	want, ok := r.cfg.Inputs[key]
	r.check("input node count", func() error {
		if !ok {
			return fmt.Errorf("no recorded input %s", key)
		}
		if r.g.NumNodes() != want.Nodes {
			return fmt.Errorf("%s has %d nodes, recorded %d", key, r.g.NumNodes(), want.Nodes)
		}
		return nil
	}())
	if rec, ok := want.Seeds[strconv.FormatInt(r.seed, 10)]; ok {
		r.check("input edge count and digest", func() error {
			if r.g.NumEdges() != rec.Edges || digest != rec.SHA256 {
				return fmt.Errorf("%s seed %d: %d edges sha256 %.16s, recorded %d edges sha256 %.16s",
					key, r.seed, r.g.NumEdges(), digest, rec.Edges, rec.SHA256)
			}
			return nil
		}())
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: seed %d has no recorded digest for %s; checked determinism only\n", r.seed, key)
	}
	r.gc = genConfig{
		Seed:        uint64(r.seed),
		Nodes:       r.g.NumNodes(),
		Mix:         r.cfg.Mixes[r.w.Mix],
		ZipfS:       r.cfg.ZipfS,
		BatchSize:   r.cfg.BatchSize,
		UpdateBatch: r.cfg.UpdateBatch,
		PageRankT:   r.cfg.PageRankT,
	}
	r.z = newZipf(r.g.NumNodes(), r.cfg.ZipfS, uint64(r.seed))
	return nil
}

var costRE = regexp.MustCompile(`cost=(\d+)`)

// build runs the slugger subprocess that produces the workload's
// artifact, Builds times; build_s and build_cpu_s are the median wall
// and CPU times.
func (r *runner) build() error {
	args := []string{"-in", r.edges, "-t", strconv.Itoa(r.cfg.Iterations),
		"-workers", strconv.Itoa(r.cfg.BuildWorkers), "-seed", strconv.FormatInt(r.seed, 10)}
	if r.w.Serve == "fed" {
		r.artifact = filepath.Join(r.dir, "graph.slgs")
		split := filepath.Join(r.dir, "shards")
		r.manifest = filepath.Join(split, slug.ManifestFilename)
		args = append(args, "-shards", strconv.Itoa(r.w.Shards), "-save", r.artifact, "-split", split)
	} else {
		r.artifact = filepath.Join(r.dir, "graph.slgc")
		args = append(args, "-save", r.artifact, "-format", "v2")
	}
	var times, cpu, rss []float64
	for i := 0; i < r.cfg.Builds; i++ {
		if r.w.Serve == "fed" {
			if err := os.RemoveAll(filepath.Join(r.dir, "shards")); err != nil {
				return err
			}
		}
		t0 := time.Now()
		p, err := r.ps.run("slugger", args...)
		r.attempted++
		if err != nil {
			r.failed++
			return err
		}
		times = append(times, time.Since(t0).Seconds())
		cpu = append(cpu, p.cpu().Seconds())
		rss = append(rss, p.peakRSSMB())
		out, _ := os.ReadFile(p.log)
		mt := costRE.FindSubmatch(out)
		if mt == nil {
			return fmt.Errorf("slugger printed no cost:\n%s", out)
		}
		r.cost, _ = strconv.ParseInt(string(mt[1]), 10, 64)
	}
	r.m["build_s"] = median(times)
	r.m["build_cpu_s"] = median(cpu)
	r.m["relative_size"] = float64(r.cost) / float64(r.g.NumEdges())
	if r.w.Focus == "build" {
		r.m["peak_rss_mb"] = slices.Max(rss)
	}
	r.check("artifact is lossless and reports the built cost", r.checkArtifact())
	return nil
}

// checkArtifact opens the built artifact the way the servers do and
// decodes it back to the input.
func (r *runner) checkArtifact() error {
	var dec *graph.Graph
	var cost int64
	if r.w.Serve == "fed" {
		sh, err := slug.LoadSharded(r.artifact)
		if err != nil {
			return err
		}
		dec, cost = sh.Decode(), sh.Cost()
	} else {
		m, err := slug.OpenMapped(r.artifact)
		if err != nil {
			return err
		}
		defer m.Close()
		dec, cost = m.Decode(), m.Cost()
	}
	if cost != r.cost {
		return fmt.Errorf("artifact reports cost %d, slugger printed %d", cost, r.cost)
	}
	if !graph.Equal(dec, r.g) {
		return errors.New("decoded artifact differs from the input graph")
	}
	return nil
}

// startServing starts the workload's servers Setups times, each until
// its first correct answer, and keeps the last set running. setup_s is
// the median CPU time the servers spent to get there, setup_wall_s the
// median wall time.
func (r *runner) startServing() error {
	var times, cpu []float64
	for i := 0; i < r.cfg.Setups; i++ {
		if i > 0 {
			for _, p := range r.servers {
				p.stop(syscall.SIGKILL, time.Second)
			}
		}
		d, err := r.startOnce(i)
		r.attempted++
		if err != nil {
			r.failed++
			return err
		}
		times = append(times, d.Seconds())
		var c time.Duration
		for _, p := range r.servers {
			c += p.runTime()
		}
		cpu = append(cpu, c.Seconds())
	}
	if r.w.Focus != "build" {
		r.m["setup_s"], r.m["setup_wall_s"] = median(cpu), median(times)
	}
	return nil
}

// probeVertex is the vertex whose neighborhood proves a server answers
// correctly: the highest-degree one, so the answer is not trivially
// empty.
func (r *runner) probeVertex() int32 {
	best := int32(0)
	for v := 0; v < r.g.NumNodes(); v++ {
		if r.g.Degree(int32(v)) > r.g.Degree(best) {
			best = int32(v)
		}
	}
	return best
}

// startOnce starts one set of servers and returns the time from the
// first process start to the first correct answer.
func (r *runner) startOnce(i int) (time.Duration, error) {
	r.servers = nil
	port, err := freePort()
	if err != nil {
		return 0, err
	}
	r.base = fmt.Sprintf("http://127.0.0.1:%d", port)
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	t0 := time.Now()
	switch r.w.Serve {
	case "mmap":
		p, err := r.ps.start("serve", "-summary", r.artifact, "-mmap", "-addr", addr)
		if err != nil {
			return 0, err
		}
		r.servers = []*proc{p}
	case "mutable":
		r.walDir = filepath.Join(r.dir, fmt.Sprintf("wal-%d", i))
		p, err := r.ps.start("serve", r.mutableArgs(addr, true)...)
		if err != nil {
			return 0, err
		}
		r.servers = []*proc{p}
	case "fed":
		if err := r.startFederation(addr); err != nil {
			return 0, err
		}
	default:
		return 0, fmt.Errorf("unknown serving mode %q", r.w.Serve)
	}
	want := r.probeVertex()
	done, err := waitCorrect(func() error {
		return r.checkNeighbors(r.base, []int32{want}, r.adjacency())
	}, r.servers, 60*time.Second)
	if err != nil {
		return 0, err
	}
	return done.Sub(t0), nil
}

// mutableArgs are the serve-write server's flags; withSummary false is
// the WAL-only restart.
func (r *runner) mutableArgs(addr string, withSummary bool) []string {
	args := []string{"-mutable", "-wal-dir", r.walDir, "-fsync", r.w.Fsync,
		"-compact", strconv.Itoa(r.w.Compact), "-t", strconv.Itoa(r.cfg.Iterations),
		"-seed", strconv.FormatInt(r.seed, 10), "-addr", addr}
	if withSummary {
		args = append([]string{"-summary", r.artifact, "-mmap"}, args...)
	}
	return args
}

// startFederation starts one shard server per shard and the
// coordinator in front of them; the coordinator is servers[0].
func (r *runner) startFederation(addr string) error {
	var urls [][]string
	var shards []*proc
	for s := 0; s < r.w.Shards; s++ {
		port, err := freePort()
		if err != nil {
			return err
		}
		p, err := r.ps.start("serve", "-shard-role", strconv.Itoa(s), "-manifest", r.manifest,
			"-addr", fmt.Sprintf("127.0.0.1:%d", port))
		if err != nil {
			return err
		}
		shards = append(shards, p)
		urls = append(urls, []string{fmt.Sprintf("http://127.0.0.1:%d", port)})
	}
	for _, u := range urls {
		if _, err := waitCorrect(func() error { _, err := httpGet(u[0], "/shardinfo"); return err },
			shards, 30*time.Second); err != nil {
			return err
		}
	}
	peers := filepath.Join(r.dir, "peers.json")
	body, err := json.Marshal(map[string][][]string{"shards": urls})
	if err != nil {
		return err
	}
	if err := os.WriteFile(peers, body, 0o644); err != nil {
		return err
	}
	co, err := r.ps.start("fedserve", "-summary", r.artifact, "-peers", peers, "-addr", addr)
	if err != nil {
		return err
	}
	r.servers = append([]*proc{co}, shards...)
	return nil
}

// stopServing stops the servers gracefully and records their peak RSS
// (summed: the processes run side by side).
func (r *runner) stopServing() {
	var wg sync.WaitGroup
	for _, p := range r.servers {
		wg.Add(1)
		go func(p *proc) {
			defer wg.Done()
			p.stop(syscall.SIGTERM, 5*time.Second)
		}(p)
	}
	wg.Wait()
	if r.w.Focus == "build" {
		return
	}
	var rss float64
	for _, p := range r.servers {
		rss += p.peakRSSMB()
	}
	r.m["peak_rss_mb"] = max(r.m["peak_rss_mb"], rss) // serve-write: also the server killed before recovery
}

// load drives the warm-up, the nominal phase and the rate ladder.
func (r *runner) load() error {
	timeout := time.Duration(r.cfg.TimeoutMs) * time.Millisecond
	conns := r.cfg.Connections
	nominalDur := time.Duration(r.secs * r.cfg.NominalShare * float64(time.Second))
	rungDur := time.Duration(r.secs * (1 - r.cfg.NominalShare) / float64(len(r.w.Ladder)) * float64(time.Second))

	phase := func(id uint64, rate float64, dur time.Duration, trace bool) (*loadResult, error) {
		reqs, err := schedule(r.gc, r.z, id, rate, dur)
		if err != nil {
			return nil, err
		}
		res := runLoad(r.base, conns, timeout, reqs, trace)
		for i := range res.spans {
			res.spans[i].Phase = fmt.Sprintf("%.0f/s-%d", rate, id)
		}
		r.spans = append(r.spans, res.spans...)
		for i := range res.reqs {
			q := &res.reqs[i]
			if q.skipped {
				continue
			}
			r.attempted++
			if !q.ok() {
				r.failed++
			}
			if q.op == opUpdate && q.ok() {
				r.acked = append(r.acked, q)
			}
		}
		return res, nil
	}

	if _, err := phase(0, r.w.NominalQPS, time.Duration(r.cfg.WarmupS*float64(time.Second)), false); err != nil {
		return err
	}

	poll := r.pollCompaction()
	var err error
	if r.trace {
		// The same request sequence untraced and traced: the p50
		// difference is the tracing overhead.
		untraced, err := phase(1, r.w.NominalQPS, nominalDur, false)
		if err != nil {
			return err
		}
		r.m["trace.overhead_ms"] = -ms(opHist(untraced.reqs, opKind.isRead).Quantile(0.5))
	}
	before := r.snapshot()
	steal0 := hostSteal()
	r.nominal, err = phase(1, r.w.NominalQPS, nominalDur, r.trace)
	r.m["host.steal_s"] = hostSteal() - steal0
	if err != nil {
		return err
	}
	after := r.snapshot()
	r.nominalMetrics(before, after)
	if r.trace {
		r.m["trace.overhead_ms"] += ms(opHist(r.nominal.reqs, opKind.isRead).Quantile(0.5))
	}

	// Ladder: every rung runs, so a rung that fails below the limit
	// (a disturbance of the host) does not end it; above the limit a
	// rung cannot pass, as its backlog grows.
	var rungs []rung
	for k, rate := range r.w.Ladder {
		res, err := phase(uint64(2+k), rate, rungDur, r.trace)
		if err != nil {
			return err
		}
		h := opHist(res.reqs, opKind.isRead)
		// The rung's p99 is the median over its windows, like the
		// nominal phase's: one stall does not fail a rung.
		p99 := windowMedian(res, r.cfg.Windows, opKind.isRead, 0.99)
		late := 0
		for i := range res.reqs {
			if q := &res.reqs[i]; q.skipped || q.sent-q.due > rungDur/4 {
				late++
			}
		}
		answered := float64(okCount(res)) / float64(len(res.reqs))
		g := rung{rate: rate, p99ms: p99}
		g.pass = g.p99ms <= r.w.LatencyLimitMs && answered >= 0.99 && late == 0
		rungs = append(rungs, g)
		fmt.Fprintf(os.Stderr, "perfbench: rung %6.0f req/s: read p99 %.2f ms, answered %.3f, sent late %d, pass %v\n",
			rate, g.p99ms, answered, late, g.pass)
		if k == 0 {
			r.m["gen.lowest_rung_resp_over_service"] = float64(h.Quantile(0.5)) / float64(serviceHist(res).Quantile(0.5))
		}
	}
	r.m["max_qps"] = maxQPS(rungs, r.w.LatencyLimitMs)
	if poll != nil {
		poll()
	}
	return nil
}

// rung is one ladder step's outcome.
type rung struct {
	rate, p99ms float64
	pass        bool
}

// maxQPS is the highest rate meeting the latency limit: the highest
// passing rung, moved toward the failing rung above it by where the
// limit falls between their read p99s on a log scale. A failing rung's
// p99 counts as at least twice the limit, so a rung that fails on
// throughput alone still bounds the estimate.
func maxQPS(rungs []rung, limit float64) float64 {
	top := -1
	for k, g := range rungs {
		if g.pass {
			top = k
		}
	}
	switch {
	case top < 0:
		return rungs[0].rate / 2 // even the lowest rung failed
	case top == len(rungs)-1:
		return rungs[top].rate
	}
	lo, hi := rungs[top], rungs[top+1]
	loP99 := math.Max(lo.p99ms, 1e-3)
	hiP99 := math.Max(hi.p99ms, 2*limit)
	frac := (math.Log(limit) - math.Log(loP99)) / (math.Log(hiP99) - math.Log(loP99))
	return lo.rate + (hi.rate-lo.rate)*math.Min(math.Max(frac, 0), 1)
}

func okCount(res *loadResult) int {
	n := 0
	for i := range res.reqs {
		if res.reqs[i].ok() {
			n++
		}
	}
	return n
}

// failedLatency stands in for a failed request's response time: a
// failure misses any latency limit.
const failedLatency = time.Hour

// opHist is the response-time histogram of the phase's requests whose
// operation matches.
func opHist(reqs []request, match func(opKind) bool) *Hist {
	var h Hist
	for i := range reqs {
		q := &reqs[i]
		if !match(q.op) {
			continue
		}
		if !q.ok() {
			h.Record(failedLatency)
			continue
		}
		h.Record(q.done - q.due)
	}
	return &h
}

// serviceHist is the service-time (sent to done) histogram of reads.
func serviceHist(res *loadResult) *Hist {
	var h Hist
	for i := range res.reqs {
		q := &res.reqs[i]
		if q.op.isRead() && q.ok() {
			h.Record(q.done - q.sent)
		}
	}
	return &h
}

// lagHist is the dispatch-lag (due to sent) histogram of all requests.
func lagHist(res *loadResult) *Hist {
	var h Hist
	for i := range res.reqs {
		if q := &res.reqs[i]; !q.skipped {
			h.Record(q.sent - q.due)
		}
	}
	return &h
}

// serverSnap is a /stats snapshot of every server plus their CPU times.
type serverSnap struct {
	stats []*statsDoc
	cpu   []time.Duration
}

func (r *runner) snapshot() *serverSnap {
	s := &serverSnap{}
	for i, p := range r.servers {
		base := r.base
		if i > 0 {
			base = r.shardURL(i - 1)
		}
		st, err := fetchStats(base)
		if err != nil {
			st = nil
		}
		if r.w.Serve == "fed" && i == 0 {
			st = nil // the coordinator exports no per-route timings
		}
		s.stats = append(s.stats, st)
		s.cpu = append(s.cpu, p.runTime())
	}
	return s
}

// shardURL is the base URL of shard s (fed-read), from its command line.
func (r *runner) shardURL(s int) string {
	args := r.servers[s+1].cmd.Args
	return "http://" + args[len(args)-1]
}

// hostSteal is the machine's CPU time stolen by the hypervisor so far,
// in seconds: a diagnostic for runs slowed by other tenants.
func hostSteal() float64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	f := strings.Fields(strings.SplitN(string(raw), "\n", 2)[0])
	if len(f) < 9 {
		return 0
	}
	ticks, _ := strconv.ParseFloat(f[8], 64)
	return ticks / 100
}
