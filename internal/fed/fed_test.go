package fed_test

// End-to-end federation test: one coordinator and three shard servers,
// each listening on its own real loopback TCP port (so a shard can be
// killed and restarted on the same address), exercising query parity
// against the in-process sharded engine, partial-failure semantics
// (503 naming the dead shard while live shards keep answering), the
// circuit breaker opening, and recovery after restart.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/algos"
	"repro/internal/fed"
	"repro/internal/graph"
	"repro/internal/serve"
	"repro/pkg/slug"
)

// shardProc is one shard server on a real loopback listener, stoppable
// and restartable on the same port (Go listeners set SO_REUSEADDR).
type shardProc struct {
	handler http.Handler
	addr    string
	srv     *http.Server
}

func startShardProc(t *testing.T, handler http.Handler) *shardProc {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &shardProc{handler: handler, addr: ln.Addr().String()}
	p.serveOn(ln)
	t.Cleanup(func() { p.stop() })
	return p
}

func (p *shardProc) serveOn(ln net.Listener) {
	srv := &http.Server{Handler: p.handler}
	p.srv = srv
	go srv.Serve(ln)
}

func (p *shardProc) url() string { return "http://" + p.addr }

// stop kills the server immediately, closing all connections — the
// "shard process died" failure mode.
func (p *shardProc) stop() {
	if p.srv != nil {
		p.srv.Close()
		p.srv = nil
	}
}

// restart brings the shard back on its original address.
func (p *shardProc) restart(t *testing.T) {
	t.Helper()
	var ln net.Listener
	var err error
	// The dying server's socket may linger briefly; retry the bind.
	for i := 0; i < 50; i++ {
		ln, err = net.Listen("tcp", p.addr)
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("rebinding %s: %v", p.addr, err)
	}
	p.serveOn(ln)
}

// federation assembles the full topology: a summarized 3-shard
// envelope, three shard servers on loopback, a resilient client, and a
// coordinator serving over httptest.
type federation struct {
	g      *graph.Graph
	sh     *slug.Sharded
	epoch  string
	procs  []*shardProc
	client *fed.Client
	co     *fed.Coordinator
	ts     *httptest.Server
}

func buildFederation(t *testing.T, cfg fed.Config) *federation {
	t.Helper()
	g := graph.ErdosRenyi(300, 1500, 7)
	sh, err := slug.SummarizeSharded(context.Background(), g, 3, slug.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	epoch := sh.Epoch()
	version := slug.EpochVersion(epoch)

	procs := make([]*shardProc, sh.NumShards())
	urls := make([][]string, sh.NumShards())
	for s := 0; s < sh.NumShards(); s++ {
		cs, err := sh.Shards[s].Queryable()
		if err != nil {
			t.Fatal(err)
		}
		srv := serve.NewShard(cs, serve.ShardInfo{
			Shard:     s,
			Shards:    sh.NumShards(),
			Epoch:     epoch,
			Nodes:     len(sh.GlobalID[s]),
			Version:   version,
			Algorithm: sh.Algorithm(),
		})
		procs[s] = startShardProc(t, srv.Handler())
		urls[s] = []string{procs[s].url()}
	}

	if cfg.ExpectEpoch == "" {
		cfg.ExpectEpoch = epoch
	}
	client, err := fed.NewClient(&fed.Peers{Epoch: epoch, Shards: urls}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	co, err := fed.NewCoordinator(sh, client)
	if err != nil {
		t.Fatal(err)
	}
	if err := co.Verify(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serve.NewView(co).Handler())
	t.Cleanup(ts.Close)
	return &federation{g: g, sh: sh, epoch: epoch, procs: procs, client: client, co: co, ts: ts}
}

func getJSON(t *testing.T, url string, out any) (*http.Response, error) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp, err
		}
	}
	return resp, nil
}

func TestFederationParityAndFailure(t *testing.T) {
	f := buildFederation(t, fed.Config{
		Timeout:         2 * time.Second,
		Retries:         1,
		RetriesSet:      true,
		BackoffBase:     2 * time.Millisecond,
		BackoffCap:      10 * time.Millisecond,
		BreakerFailures: 2,
		BreakerCooldown: 50 * time.Millisecond,
		HealthInterval:  20 * time.Millisecond,
	})
	stop := f.client.StartHealth(context.Background())
	defer stop()

	sc, err := f.sh.Queryable()
	if err != nil {
		t.Fatal(err)
	}
	wantVersion := strconv.FormatUint(sc.Version(), 10)
	n := f.g.NumNodes()

	// --- Neighbor parity, batched across all shards at once ---
	for off := 0; off < n; off += 64 {
		end := min(off+64, n)
		ids := make([]string, 0, end-off)
		for v := off; v < end; v++ {
			ids = append(ids, strconv.Itoa(v))
		}
		var results []serve.NeighborsResult
		resp, err := getJSON(t, f.ts.URL+"/neighbors?v="+strings.Join(ids, ","), &results)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch [%d,%d): status %d", off, end, resp.StatusCode)
		}
		if got := resp.Header.Get("X-Summary-Version"); got != wantVersion {
			t.Fatalf("X-Summary-Version = %q, want %q", got, wantVersion)
		}
		if len(results) != end-off {
			t.Fatalf("batch [%d,%d): %d results", off, end, len(results))
		}
		for i, res := range results {
			v := int32(off + i)
			if fmt.Sprint(res.Neighbors) != fmt.Sprint(f.g.Neighbors(v)) {
				t.Fatalf("neighbors(%d) = %v, want %v", v, res.Neighbors, f.g.Neighbors(v))
			}
		}
	}

	// --- HasEdge parity: every edge plus sampled non-edges ---
	checked := 0
	f.g.ForEachEdge(func(u, v int32) {
		if checked >= 100 {
			return
		}
		checked++
		var body struct {
			Exists bool `json:"exists"`
		}
		resp, err := getJSON(t, fmt.Sprintf("%s/hasedge?u=%d&v=%d", f.ts.URL, u, v), &body)
		if err != nil || resp.StatusCode != http.StatusOK || !body.Exists {
			t.Fatalf("hasedge(%d,%d): err=%v status=%v exists=%v", u, v, err, resp.StatusCode, body.Exists)
		}
	})
	for u := int32(0); u < 40; u++ {
		v := (u + 151) % int32(n)
		if u == v {
			continue
		}
		var body struct {
			Exists bool `json:"exists"`
		}
		if _, err := getJSON(t, fmt.Sprintf("%s/hasedge?u=%d&v=%d", f.ts.URL, u, v), &body); err != nil {
			t.Fatal(err)
		}
		if body.Exists != f.g.HasEdge(u, v) {
			t.Fatalf("hasedge(%d,%d) = %v, graph says %v", u, v, body.Exists, f.g.HasEdge(u, v))
		}
	}

	// --- PageRank bit-parity with the in-process sharded engine ---
	src := algos.OnSharded(sc)
	want := algos.PageRank(src, 0.85, 20)
	src.Release()
	var pr struct {
		Top []serve.RankedVertex `json:"top"`
	}
	resp, err := getJSON(t, fmt.Sprintf("%s/pagerank?d=0.85&t=20&top=%d", f.ts.URL, n), &pr)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pagerank: status %d", resp.StatusCode)
	}
	if len(pr.Top) != n {
		t.Fatalf("pagerank returned %d ranks, want %d", len(pr.Top), n)
	}
	for _, rv := range pr.Top {
		if rv.Rank != want[rv.V] { // bit-exact: same lists, same float ops
			t.Fatalf("pagerank(%d) = %v, in-process engine says %v", rv.V, rv.Rank, want[rv.V])
		}
	}

	// --- Kill shard 1: queries on it fail 503 naming the shard, other
	// shards keep answering, the breaker opens ---
	f.procs[1].stop()

	var deadV, liveV int32 = -1, -1
	for v := int32(0); v < int32(n); v++ {
		gid1 := f.sh.GlobalID[1]
		owned := false
		for _, g := range gid1 {
			if g == v {
				owned = true
				break
			}
		}
		if owned && deadV < 0 {
			deadV = v
		}
		if !owned && liveV < 0 {
			liveV = v
		}
		if deadV >= 0 && liveV >= 0 {
			break
		}
	}

	var fail struct {
		Error string `json:"error"`
		Shard *int   `json:"shard"`
	}
	resp, err = getJSON(t, fmt.Sprintf("%s/neighbors?v=%d", f.ts.URL, deadV), &fail)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("query on dead shard: status %d, want 503", resp.StatusCode)
	}
	if fail.Shard == nil || *fail.Shard != 1 {
		t.Fatalf("503 body %+v does not identify shard 1", fail)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}

	var live serve.NeighborsResult
	resp, err = getJSON(t, fmt.Sprintf("%s/neighbors?v=%d", f.ts.URL, liveV), &live)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("query on live shard during outage: err=%v status=%v", err, resp.StatusCode)
	}
	if fmt.Sprint(live.Neighbors) != fmt.Sprint(f.g.Neighbors(liveV)) {
		t.Fatalf("live-shard answer diverged during outage")
	}

	// Breaker opens (request failures plus health probes feed it).
	waitFor(t, 5*time.Second, "breaker open", func() bool {
		for _, ep := range f.client.Snapshot().Shards {
			if ep.Shard == 1 && ep.Breaker == "open" {
				return true
			}
		}
		return false
	})

	// /readyz reports the down shard.
	var ready struct {
		Status string `json:"status"`
		Down   []int  `json:"down_shards"`
	}
	resp, err = getJSON(t, f.ts.URL+"/readyz", &ready)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || len(ready.Down) != 1 || ready.Down[0] != 1 {
		t.Fatalf("readyz during outage = %d %+v, want 503 down=[1]", resp.StatusCode, ready)
	}

	// --- Restart the shard on the same port: the health loop probes it
	// back in and queries recover ---
	f.procs[1].restart(t)
	waitFor(t, 5*time.Second, "shard recovery", func() bool {
		resp, err := http.Get(f.ts.URL + "/readyz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})
	var back serve.NeighborsResult
	resp, err = getJSON(t, fmt.Sprintf("%s/neighbors?v=%d", f.ts.URL, deadV), &back)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("query after restart: err=%v status=%v", err, resp.StatusCode)
	}
	if fmt.Sprint(back.Neighbors) != fmt.Sprint(f.g.Neighbors(deadV)) {
		t.Fatalf("post-recovery answer diverged")
	}
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestVerifyRejectsMismatchedEpoch stands up a shard server announcing
// a different epoch and checks the coordinator refuses to federate it.
func TestVerifyRejectsMismatchedEpoch(t *testing.T) {
	g := graph.ErdosRenyi(60, 200, 13)
	sh, err := slug.SummarizeSharded(context.Background(), g, 2, slug.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	urls := make([][]string, 2)
	for s := 0; s < 2; s++ {
		cs, err := sh.Shards[s].Queryable()
		if err != nil {
			t.Fatal(err)
		}
		epoch := sh.Epoch()
		if s == 1 {
			epoch = "not-the-same-build"
		}
		srv := serve.NewShard(cs, serve.ShardInfo{
			Shard: s, Shards: 2, Epoch: epoch,
			Nodes: len(sh.GlobalID[s]), Version: 1,
		})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		urls[s] = []string{ts.URL}
	}
	client, err := fed.NewClient(&fed.Peers{Shards: urls}, fed.Config{Retries: 0, RetriesSet: true})
	if err != nil {
		t.Fatal(err)
	}
	co, err := fed.NewCoordinator(sh, client)
	if err != nil {
		t.Fatal(err)
	}
	err = co.Verify(context.Background())
	if err == nil || !strings.Contains(err.Error(), "epoch") {
		t.Fatalf("Verify accepted a mismatched epoch: %v", err)
	}
}

// TestCoordinatorBinaryAndJSONPost exercises the coordinator's POST
// forms (JSON batch and binary batch) for parity with the graph.
func TestCoordinatorBinaryAndJSONPost(t *testing.T) {
	f := buildFederation(t, fed.Config{Retries: 1, RetriesSet: true})

	ids := []int32{0, 17, 63, 149, 299}
	payload, _ := json.Marshal(map[string][]int32{"v": ids})
	resp, err := http.Post(f.ts.URL+"/neighbors", "application/json", strings.NewReader(string(payload)))
	if err != nil {
		t.Fatal(err)
	}
	var results []serve.NeighborsResult
	if err := json.NewDecoder(resp.Body).Decode(&results); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(results) != len(ids) {
		t.Fatalf("POST /neighbors: status %d, %d results", resp.StatusCode, len(results))
	}
	for i, res := range results {
		if fmt.Sprint(res.Neighbors) != fmt.Sprint(f.g.Neighbors(ids[i])) {
			t.Fatalf("JSON POST neighbors(%d) diverged", ids[i])
		}
	}

	resp, err = http.Post(f.ts.URL+"/batch/neighbors", "application/octet-stream",
		strings.NewReader(string(serve.EncodeNeighborsRequest(ids))))
	if err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, 0, 4096)
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		raw = append(raw, buf[:n]...)
		if err != nil {
			break
		}
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /batch/neighbors: status %d", resp.StatusCode)
	}
	lists, err := serve.DecodeNeighborsResponse(raw, len(ids))
	if err != nil {
		t.Fatal(err)
	}
	for i, nbrs := range lists {
		if fmt.Sprint(nbrs) != fmt.Sprint(f.g.Neighbors(ids[i])) {
			t.Fatalf("binary neighbors(%d) diverged", ids[i])
		}
	}

	// /update is read-only on a coordinator.
	resp, err = http.Post(f.ts.URL+"/update", "application/json", strings.NewReader(`{"u":1,"v":2}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /update = %d, want 405", resp.StatusCode)
	}

	// Bad vertex ids are the caller's fault: 400, not 503.
	resp, err = http.Get(f.ts.URL + "/neighbors?v=99999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range vertex = %d, want 400", resp.StatusCode)
	}

	// The coordinator's /stats carries serve's per-endpoint metrics next
	// to the federation's own fields.
	var stats struct {
		Epoch   string     `json:"epoch"`
		Client  *fed.Stats `json:"client"`
		Serving struct {
			Endpoints map[string]struct {
				Count uint64 `json:"count"`
			} `json:"endpoints"`
		} `json:"serving"`
	}
	if _, err := getJSON(t, f.ts.URL+"/stats", &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Serving.Endpoints["GET /neighbors"].Count == 0 {
		t.Fatalf("/stats has no GET /neighbors count: %+v", stats.Serving.Endpoints)
	}
	if stats.Epoch != f.epoch || stats.Client == nil {
		t.Fatalf("/stats lost the federation fields: epoch %q, client %v", stats.Epoch, stats.Client)
	}
}

// TestMalformedShardReply answers the coordinator from a fake shard
// whose neighbor lists hold a local id past the shard's size, or ids
// out of order. Either must fail the query as 503 naming that shard —
// the out-of-range id used to crash the coordinator from a scatter
// goroutine — while the healthy shard keeps answering.
func TestMalformedShardReply(t *testing.T) {
	g := graph.ErdosRenyi(60, 200, 13)
	sh, err := slug.SummarizeSharded(context.Background(), g, 2, slug.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	epoch := sh.Epoch()
	info := func(s int) serve.ShardInfo {
		return serve.ShardInfo{Shard: s, Shards: 2, Epoch: epoch, Nodes: len(sh.GlobalID[s]), Version: slug.EpochVersion(epoch)}
	}
	cs, err := sh.Shards[0].Queryable()
	if err != nil {
		t.Fatal(err)
	}
	healthy := httptest.NewServer(serve.NewShard(cs, info(0)).Handler())
	t.Cleanup(healthy.Close)

	var reply atomic.Pointer[[]int32] // the list the fake shard answers for every id
	mux := http.NewServeMux()
	mux.HandleFunc("GET /shardinfo", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(info(1))
	})
	mux.HandleFunc("POST /batch/neighbors", func(w http.ResponseWriter, r *http.Request) {
		data, _ := io.ReadAll(r.Body)
		ids, err := serve.DecodeNeighborsRequest(data, serve.MaxBatchItems)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		buf := serve.AppendNeighborsResponseHeader(nil, len(ids))
		for range ids {
			buf = serve.AppendNeighborsResponseList(buf, *reply.Load())
		}
		w.Write(buf)
	})
	fake := httptest.NewServer(mux)
	t.Cleanup(fake.Close)

	client, err := fed.NewClient(&fed.Peers{Epoch: epoch, Shards: [][]string{{healthy.URL}, {fake.URL}}},
		fed.Config{Retries: 0, RetriesSet: true})
	if err != nil {
		t.Fatal(err)
	}
	co, err := fed.NewCoordinator(sh, client)
	if err != nil {
		t.Fatal(err)
	}
	if err := co.Verify(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serve.NewView(co).Handler())
	t.Cleanup(ts.Close)

	size := int32(len(sh.GlobalID[1]))
	bad, good := sh.GlobalID[1][0], sh.GlobalID[0][0]
	for name, list := range map[string][]int32{
		"out of range": {0, size + 5},
		"unsorted":     {2, 1},
	} {
		reply.Store(&list)
		for _, path := range []string{fmt.Sprintf("/neighbors?v=%d", bad), "/pagerank"} {
			var fail struct {
				Error string `json:"error"`
				Shard *int   `json:"shard"`
			}
			resp, err := getJSON(t, ts.URL+path, &fail)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusServiceUnavailable || fail.Shard == nil || *fail.Shard != 1 {
				t.Fatalf("%s reply, GET %s: status %d body %+v, want 503 naming shard 1", name, path, resp.StatusCode, fail)
			}
			if resp.Header.Get("Retry-After") == "" {
				t.Fatalf("%s reply, GET %s: 503 without Retry-After", name, path)
			}
		}
		var live serve.NeighborsResult
		resp, err := getJSON(t, fmt.Sprintf("%s/neighbors?v=%d", ts.URL, good), &live)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s reply: healthy shard's vertex: err=%v status=%v", name, err, resp.StatusCode)
		}
		if fmt.Sprint(live.Neighbors) != fmt.Sprint(g.Neighbors(good)) {
			t.Fatalf("%s reply: neighbors(%d) = %v, want %v", name, good, live.Neighbors, g.Neighbors(good))
		}
	}
}
