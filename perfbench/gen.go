package main

// The benchmark's own open-loop load generator. It is deliberately
// independent of internal/loadgen: the generator is the yardstick, so
// it must not change when the program under test does.
//
// Request i of a phase is due at i/rate after the phase starts, and
// its operation and arguments derive from (seed, phase, i) alone, so a
// seed names one exact request sequence. A fixed set of senders, one
// HTTP connection each, sleep until each request is due and send it
// (see runLoad). Response time runs from the due time, so time a
// request waits behind a slow server or a busy connection counts
// against it.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/internal/serve"
)

type opKind uint8

const (
	opNeighbors opKind = iota
	opBatchJSON
	opBatchBinary
	opHasEdge
	opPageRank
	opUpdate
	numOps
)

var opNames = [numOps]string{"neighbors", "batch_json", "batch_binary", "hasedge", "pagerank", "update"}

func (o opKind) String() string { return opNames[o] }

// isRead reports whether an operation counts toward p50_ms/p99_ms:
// point and batch reads, not PageRank and not updates.
func (o opKind) isRead() bool { return o <= opHasEdge }

// Mix weighs the operation types by name, as in the workload file.
type Mix map[string]float64

// update is one edge mutation of an update request.
type update struct {
	U, V   int32
	Delete bool
}

// request is one scheduled operation and, after the phase, its outcome.
// Times are offsets from the phase start.
type request struct {
	op   opKind
	due  time.Duration
	ids  []int32  // neighbors: 1 id; batches: BatchSize ids; hasedge: u, v
	ups  []update // update only
	path string
	body []byte

	woke, sent, done time.Duration
	skipped          bool // still queued long after the phase ended: never sent
	status           int
	err              string
	version          string // X-Summary-Version of the response
	applied          int    // update only: effective updates
	ackVersion       uint64 // update only: version holding the batch
}

// ok reports whether the request was sent and answered with 200.
func (r *request) ok() bool { return !r.skipped && r.err == "" && r.status == http.StatusOK }

// genConfig fixes how requests are drawn.
type genConfig struct {
	Seed        uint64
	Nodes       int
	Mix         Mix
	ZipfS       float64
	BatchSize   int
	UpdateBatch int
	PageRankT   int
}

// rng is splitmix64: tiny, fast, and fully determined by its state.
type rng struct{ s uint64 }

const golden = 0x9e3779b97f4a7c15

func mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func splitmix64(x uint64) uint64 { return mix64(x + golden) }

func (g *rng) next() uint64 {
	g.s += golden
	return mix64(g.s)
}

func (g *rng) unit() float64 { return float64(g.next()>>11) / (1 << 53) }

// zipf draws vertices with P(rank k) proportional to 1/k^s; ranks map
// to vertices through a seeded permutation so the hot set is spread
// over the graph instead of sitting on its lowest ids.
type zipf struct {
	cdf  []float64
	perm []int32
}

func newZipf(n int, s float64, seed uint64) *zipf {
	z := &zipf{cdf: make([]float64, n), perm: make([]int32, n)}
	var acc float64
	for k := range z.cdf {
		acc += 1 / math.Pow(float64(k+1), s)
		z.cdf[k] = acc
	}
	for k := range z.cdf {
		z.cdf[k] /= acc
	}
	for i := range z.perm {
		z.perm[i] = int32(i)
	}
	g := rng{s: seed ^ 0x5eed2ef}
	for i := n - 1; i > 0; i-- {
		j := int(g.next() % uint64(i+1))
		z.perm[i], z.perm[j] = z.perm[j], z.perm[i]
	}
	return z
}

func (z *zipf) sample(u float64) int32 {
	k := sort.SearchFloat64s(z.cdf, u)
	if k >= len(z.cdf) {
		k = len(z.cdf) - 1
	}
	return z.perm[k]
}

// schedule lays out one phase: n = rate*dur requests, request i due at
// i/rate, with operations drawn from the mix. phase separates the
// request streams of the phases of one run.
func schedule(cfg genConfig, z *zipf, phase uint64, rate float64, dur time.Duration) ([]request, error) {
	var weights [numOps]float64
	var total float64
	for name, w := range cfg.Mix {
		found := false
		for o, n := range opNames {
			if n == name {
				weights[o], found = w, true
			}
		}
		if !found || w < 0 {
			return nil, fmt.Errorf("mix: bad operation %q weight %v", name, w)
		}
		total += w
	}
	if total <= 0 || rate <= 0 {
		return nil, fmt.Errorf("schedule: empty mix or non-positive rate")
	}
	n := int(rate * dur.Seconds())
	reqs := make([]request, n)
	period := float64(time.Second) / rate
	for i := range reqs {
		g := rng{s: splitmix64(cfg.Seed) ^ splitmix64(phase<<40|uint64(i))}
		r := &reqs[i]
		r.due = time.Duration(float64(i) * period)
		u := g.unit() * total
		r.op = numOps - 1
		for o := opKind(0); o < numOps; o++ {
			if u < weights[o] {
				r.op = o
				break
			}
			u -= weights[o]
		}
		for weights[r.op] == 0 { // u landed on the rounding edge
			r.op--
		}
		switch r.op {
		case opNeighbors:
			r.ids = []int32{z.sample(g.unit())}
			r.path = "/neighbors?v=" + strconv.Itoa(int(r.ids[0]))
		case opBatchJSON, opBatchBinary:
			r.ids = make([]int32, cfg.BatchSize)
			for j := range r.ids {
				r.ids[j] = z.sample(g.unit())
			}
			if r.op == opBatchBinary {
				r.path, r.body = "/batch/neighbors", serve.EncodeNeighborsRequest(r.ids)
				break
			}
			b := []byte(`{"v":[`)
			for j, v := range r.ids {
				if j > 0 {
					b = append(b, ',')
				}
				b = strconv.AppendInt(b, int64(v), 10)
			}
			r.path, r.body = "/neighbors", append(b, "]}"...)
		case opHasEdge:
			r.ids = []int32{z.sample(g.unit()), z.sample(g.unit())}
			r.path = fmt.Sprintf("/hasedge?u=%d&v=%d", r.ids[0], r.ids[1])
		case opPageRank:
			r.path = fmt.Sprintf("/pagerank?t=%d&top=5", cfg.PageRankT)
		case opUpdate:
			r.ups = make([]update, cfg.UpdateBatch)
			b := []byte(`{"updates":[`)
			for j := range r.ups {
				u, v := z.sample(g.unit()), z.sample(g.unit())
				if u == v {
					v = (v + 1) % int32(cfg.Nodes)
				}
				r.ups[j] = update{U: u, V: v, Delete: g.next()%3 == 0}
				if j > 0 {
					b = append(b, ',')
				}
				b = fmt.Appendf(b, `{"u":%d,"v":%d,"delete":%v}`, u, v, r.ups[j].Delete)
			}
			r.path, r.body = "/update", append(b, "]}"...)
		}
	}
	return reqs, nil
}

// span is one traced interval, its times relative to its phase's start.
// Spans of one request share the phase and request id; the request span
// has parent "".
type span struct {
	Phase   string `json:"phase"`
	Name    string `json:"name"`
	Request int    `json:"request"`
	Parent  string `json:"parent,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// loadResult summarises one phase.
type loadResult struct {
	reqs    []request
	elapsed time.Duration // phase start to last completion
	wake    Hist          // woke - due of requests a sender slept for: its own timer lateness
	spans   []span        // traced phases only
	cpu     time.Duration // generator process CPU during the phase
}

// skipGrace is how long after the phase's last due time a request may
// still be sent; later ones are dropped as skipped, so an overloaded
// ladder rung ends instead of draining an unbounded backlog.
const skipGrace = 500 * time.Millisecond

// runLoad sends reqs open-loop to base over conns HTTP connections.
// Each connection has its own sender, which claims the earliest-due
// request not yet claimed, sleeps until it is due and sends it; a
// sender still busy when its next request falls due sends it late, and
// the lateness counts in the response time. Connection 0 carries only
// reads; the others also carry PageRank and updates. A read thus never
// waits behind a slow operation on a shared connection, head-of-line
// blocking that independent clients would not see. With trace set,
// every request's due→sent→done intervals are kept as spans, the
// tracing cost the untraced run avoids.
func runLoad(base string, conns int, timeout time.Duration, reqs []request, trace bool) *loadResult {
	res := &loadResult{reqs: reqs}
	// No garbage collection during the phase (a safety limit still
	// bounds the heap): with two Ps, a GC cycle's dedicated mark worker
	// delays the senders by milliseconds.
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(256 << 20))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()

	var classes [2][]int // request indices: reads, then PageRank and updates
	for i := range reqs {
		if reqs[i].op.isRead() {
			classes[0] = append(classes[0], i)
		} else {
			classes[1] = append(classes[1], i)
		}
	}
	var mu sync.Mutex
	var next [2]int
	claim := func(slowOK bool) (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		best, bestClass := -1, 0
		for c := range classes {
			if (c == 1 && !slowOK) || next[c] == len(classes[c]) {
				continue
			}
			if i := classes[c][next[c]]; best < 0 || reqs[i].due < reqs[best].due {
				best, bestClass = i, c
			}
		}
		if best >= 0 {
			next[bestClass]++
		}
		return best, best >= 0
	}

	var wg sync.WaitGroup
	spanSets := make([][]span, conns)
	wakes := make([]Hist, conns)
	cpu0 := selfCPU()
	start := time.Now()
	last := time.Duration(0)
	if len(reqs) > 0 {
		last = reqs[len(reqs)-1].due
	}
	for c := 0; c < conns; c++ {
		client := &http.Client{
			Timeout: timeout,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		}
		slowOK := c > 0 || conns == 1
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			defer client.CloseIdleConnections()
			for {
				i, ok := claim(slowOK)
				if !ok {
					return
				}
				r := &reqs[i]
				slept := sleepUntil(start, r.due)
				r.woke = time.Since(start)
				if slept {
					wakes[c].Record(r.woke - r.due)
				}
				if r.woke > last+skipGrace {
					r.skipped = true
					continue
				}
				r.sent = time.Since(start)
				send(client, base, r)
				r.done = time.Since(start)
				if trace {
					req := "request." + r.op.String()
					spanSets[c] = append(spanSets[c],
						span{Name: req, Request: i, StartNs: int64(r.due), EndNs: int64(r.done)},
						span{Name: "gen.dispatch", Request: i, Parent: req, StartNs: int64(r.due), EndNs: int64(r.sent)},
						span{Name: "client.service", Request: i, Parent: req, StartNs: int64(r.sent), EndNs: int64(r.done)})
				}
			}
		}(c)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	res.cpu = selfCPU() - cpu0
	for c := range spanSets {
		res.spans = append(res.spans, spanSets[c]...)
		res.wake.Merge(&wakes[c])
	}
	return res
}

// sleepUntil sleeps until start+due and reports whether it slept at all
// (false: the time had already passed). It sleeps in nanosleep with the
// thread's timer slack set to 1 ns: the Go timer wheel wakes up to a
// millisecond late, which would otherwise be reported as server
// latency. The slack is a per-thread setting and a goroutine may move
// between threads, so it is set before every sleep; the thread is not
// locked, since handing a locked thread back its goroutine after every
// response costs more than the slack saves. A sender idle for at least
// a millisecond spins the last spinWindow instead of sleeping it, so
// at low rates the wake-up does not add to the response time; the
// spin costs at most spinWindow per millisecond of idleness.
func sleepUntil(start time.Time, due time.Duration) bool {
	const (
		prSetTimerSlack = 29
		spinWindow      = 50 * time.Microsecond
	)
	d := due - time.Since(start)
	if d <= 0 {
		return false
	}
	if d >= time.Millisecond {
		d -= spinWindow
	}
	for wake := time.Since(start) + d; ; {
		left := wake - time.Since(start)
		if left <= 0 {
			break
		}
		syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
		ts := syscall.NsecToTimespec(int64(left))
		syscall.Nanosleep(&ts, nil) // an early return (EINTR) just loops
	}
	for time.Since(start) < due {
	}
	return true
}

// send performs one request and records its outcome in r.
func send(client *http.Client, base string, r *request) {
	method, ctype := http.MethodGet, ""
	var body io.Reader
	if r.body != nil {
		method, body = http.MethodPost, bytes.NewReader(r.body)
		ctype = "application/json"
		if r.op == opBatchBinary {
			ctype = "application/octet-stream"
		}
	}
	req, err := http.NewRequest(method, base+r.path, body)
	if err != nil {
		r.err = err.Error()
		return
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := client.Do(req)
	if err != nil {
		r.err = err.Error()
		return
	}
	defer resp.Body.Close()
	r.status = resp.StatusCode
	r.version = resp.Header.Get("X-Summary-Version")
	if r.op != opUpdate || resp.StatusCode != http.StatusOK {
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			r.err = err.Error()
		}
		return
	}
	var ack struct {
		Applied int    `json:"applied"`
		Version uint64 `json:"version"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		r.err = "decoding update ack: " + err.Error()
		return
	}
	r.applied, r.ackVersion = ack.Applied, ack.Version
}

// selfCPU is the benchmark process's user+system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
