package fed_test

// Benchmark pairs quantifying the network-federation tax: each
// federated benchmark has an in-process twin running the identical
// query on the identical sharded artifact, so the delta is purely the
// coordinator's scatter-gather (HTTP, wire codec, breaker bookkeeping)
// versus a function call.

import (
	"context"
	"net"
	"net/http"
	"testing"
	"time"

	"repro/internal/algos"
	"repro/internal/fed"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/pkg/slug"
)

// benchFederation stands up a 3-shard federation on loopback and
// returns the client plus the in-process engine over the same build.
func benchFederation(b *testing.B) (*fed.Coordinator, *fed.Client, *model.ShardedCompiled, *slug.Sharded) {
	b.Helper()
	g := graph.BarabasiAlbert(2000, 4, 17)
	sh, err := slug.SummarizeSharded(context.Background(), g, 3, slug.WithSeed(9))
	if err != nil {
		b.Fatal(err)
	}
	epoch := sh.Epoch()
	urls := make([][]string, sh.NumShards())
	for s := 0; s < sh.NumShards(); s++ {
		cs, err := sh.Shards[s].Queryable()
		if err != nil {
			b.Fatal(err)
		}
		srv := serve.NewShard(cs, serve.ShardInfo{
			Shard: s, Shards: sh.NumShards(), Epoch: epoch,
			Nodes: len(sh.GlobalID[s]), Version: slug.EpochVersion(epoch),
		})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(ln)
		b.Cleanup(func() { hs.Close() })
		urls[s] = []string{"http://" + ln.Addr().String()}
	}
	client, err := fed.NewClient(&fed.Peers{Epoch: epoch, Shards: urls}, fed.Config{
		Timeout: 10 * time.Second, ExpectEpoch: epoch,
	})
	if err != nil {
		b.Fatal(err)
	}
	co, err := fed.NewCoordinator(sh, client)
	if err != nil {
		b.Fatal(err)
	}
	sc, err := sh.Queryable()
	if err != nil {
		b.Fatal(err)
	}
	return co, client, sc, sh
}

// BenchmarkFederatedNeighborsOf measures one 64-vertex neighbor batch
// through the coordinator's scatter-gather client (network path).
func BenchmarkFederatedNeighborsOf(b *testing.B) {
	_, client, sc, sh := benchFederation(b)
	n := int32(sc.NumNodes())
	rt, err := model.NewRouting(sh.GlobalID, sh.Boundary)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := int32(i*64) % n
		// One shard-local batch per iteration: the per-hop unit the
		// coordinator's fan-out is built from.
		s := rt.ShardOf(base)
		size := rt.ShardSize(int(s))
		locals := make([]int32, 0, 64)
		for j := 0; j < 64; j++ {
			locals = append(locals, int32((int(base)+j)%size))
		}
		if _, err := client.NeighborsLocal(ctx, int(s), locals); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFederatedNeighborsOfInProcess is the twin: the same
// 64-vertex batches against the in-process sharded engine.
func BenchmarkFederatedNeighborsOfInProcess(b *testing.B) {
	_, _, sc, _ := benchFederation(b)
	n := int32(sc.NumNodes())
	vs := make([]int32, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := int32(i*64) % n
		for j := range vs {
			vs[j] = (base + int32(j)) % n
		}
		sc.NeighborsBatch(vs, func(_ int32, _ []int32) {})
	}
}

// BenchmarkFederatedPageRank measures the gather-then-local federated
// PageRank through the coordinator's Source, as serve.Server runs it on
// a cache miss: the adjacency gather is cached (the production path),
// so it happens once and iterations measure the local power iteration
// over the gathered adjacency.
func BenchmarkFederatedPageRank(b *testing.B) {
	co, _, _, _ := benchFederation(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := 10 + i%2
		src, release, err := co.Source(ctx)
		if err != nil {
			b.Fatal(err)
		}
		_ = algos.PageRank(src, 0.85, t)
		release()
	}
}

// BenchmarkFederatedPageRankInProcess is the twin: the same PageRank
// on the in-process sharded engine.
func BenchmarkFederatedPageRankInProcess(b *testing.B) {
	_, _, sc, _ := benchFederation(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := 10 + i%2
		src := algos.OnSharded(sc)
		_ = algos.PageRank(src, 0.85, t)
		src.Release()
	}
}
