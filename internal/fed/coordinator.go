package fed

// The federation coordinator: the process clients actually talk to.
// It loads the sharded envelope's routing half (id maps + boundary
// sidecar) but none of the per-shard payload engines — those live in
// shard servers across the network. A Coordinator is a serve.View:
// cmd/fedserve mounts it in serve.Server, so the coordinator answers
// the HTTP surface of every other serving mode through the same
// handlers, per-endpoint metrics, pooled JSON and PageRank cache. It
// answers each query by routing:
//
//   - NeighborsBatch: scatter shard-local batches to the owning shards,
//     gather, translate to global ids, merge each vertex's boundary
//     adjacency locally (model.Routing.MergeBoundary — the same code
//     path the in-process engine uses, so answers match bit for bit).
//   - HasEdge: intra-shard pairs go to the owning shard in local ids;
//     cross-shard pairs are answered locally from the boundary CSR
//     with no network round-trip at all.
//   - Source: gather the full merged adjacency once (cached — the
//     artifact is immutable); serve.Server runs the ordinary in-process
//     PageRank over it. Same neighbor lists, same iteration order, same
//     float64 operations: bit-identical ranks to the single process
//     serving the same envelope.
//
// A shard failure — no endpoint answers, or a reply fails validation —
// is a serve.ShardError, which serve.Server answers with 503 naming the
// failed shard: the caller learns which piece of the data is
// unavailable while queries touching only live shards keep answering.

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/algos"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/pkg/slug"
)

// Coordinator scatter-gathers the query surface across a network shard
// federation. It implements serve.View and serve.Reporter.
type Coordinator struct {
	rt      *model.Routing
	client  *Client
	epoch   string
	version uint64

	mu  sync.Mutex
	adj [][]int32 // gathered global adjacency; nil until first PageRank
}

// NewCoordinator builds a coordinator from a sharded envelope's
// routing structure and a resilient client whose peer set must cover
// exactly the envelope's shards.
func NewCoordinator(sh *slug.Sharded, client *Client) (*Coordinator, error) {
	rt, err := model.NewRouting(sh.GlobalID, sh.Boundary)
	if err != nil {
		return nil, fmt.Errorf("fed: %w", err)
	}
	if client.NumShards() != rt.NumShards() {
		return nil, fmt.Errorf("fed: peers cover %d shards, envelope has %d", client.NumShards(), rt.NumShards())
	}
	epoch := sh.Epoch()
	return &Coordinator{
		rt:      rt,
		client:  client,
		epoch:   epoch,
		version: slug.EpochVersion(epoch),
	}, nil
}

// Epoch returns the federation epoch the coordinator serves.
func (co *Coordinator) Epoch() string { return co.epoch }

// Version returns the content version derived from the epoch — the
// same value the in-process engine for this envelope reports.
func (co *Coordinator) Version() uint64 { return co.version }

// NumNodes returns the global vertex count.
func (co *Coordinator) NumNodes() int { return co.rt.NumNodes() }

// Verify cross-checks every shard server against the envelope: each
// must report the expected epoch, its own shard index, the federation
// shard count, and its shard's vertex count. Run it at boot —
// federating a server from a different sharded build would silently
// merge unrelated graphs.
func (co *Coordinator) Verify(ctx context.Context) error {
	for s := 0; s < co.rt.NumShards(); s++ {
		info, err := co.client.ShardInfo(ctx, s)
		if err != nil {
			return err
		}
		switch {
		case info.Epoch != co.epoch:
			return fmt.Errorf("fed: shard %d serves epoch %.12s..., coordinator has %.12s... — refusing to federate mismatched epochs", s, info.Epoch, co.epoch)
		case info.Shard != s:
			return fmt.Errorf("fed: endpoint for shard %d identifies as shard %d", s, info.Shard)
		case info.Shards != co.rt.NumShards():
			return fmt.Errorf("fed: shard %d believes the federation has %d shards, envelope has %d", s, info.Shards, co.rt.NumShards())
		case info.Nodes != co.rt.ShardSize(s):
			return fmt.Errorf("fed: shard %d serves %d vertices, envelope assigns it %d", s, info.Nodes, co.rt.ShardSize(s))
		}
	}
	return nil
}

// ReportStats adds the federation topology and the client's resilience
// state to the coordinator's /stats.
func (co *Coordinator) ReportStats(stats map[string]any) {
	stats["federated"] = true
	stats["shards"] = co.rt.NumShards()
	stats["boundary_edges"] = co.rt.NumBoundaryEdges()
	stats["epoch"] = co.epoch
	stats["version"] = co.version
	stats["client"] = co.client.Snapshot()
}

// DownShards lists the shards with no healthy endpoint.
func (co *Coordinator) DownShards() []int {
	var down []int
	for s := 0; s < co.rt.NumShards(); s++ {
		if !co.client.Healthy(s) {
			down = append(down, s)
		}
	}
	return down
}

// NeighborsBatch calls visit with the global neighbor list of each of
// vs, in request order, after one scatter-gather across their shards.
func (co *Coordinator) NeighborsBatch(ctx context.Context, vs []int32, visit func(v int32, nbrs []int32)) error {
	lists, err := co.neighborsGlobal(ctx, vs)
	if err != nil {
		return err
	}
	for i, nbrs := range lists {
		visit(vs[i], nbrs)
	}
	return nil
}

// neighborsGlobal scatter-gathers the neighbor lists of global vertex
// ids: group by owning shard, fetch each shard's locals in parallel
// over the binary batch endpoint, translate and merge boundary
// adjacency locally. Results are in request order.
func (co *Coordinator) neighborsGlobal(ctx context.Context, vs []int32) ([][]int32, error) {
	out := make([][]int32, len(vs))
	type group struct {
		pos   []int
		local []int32
	}
	groups := make(map[int32]*group)
	for i, v := range vs {
		s := co.rt.ShardOf(v)
		g := groups[s]
		if g == nil {
			g = &group{}
			groups[s] = g
		}
		g.pos = append(g.pos, i)
		g.local = append(g.local, co.rt.LocalOf(v))
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for s, g := range groups {
		wg.Add(1)
		go func(s int32, g *group) {
			defer wg.Done()
			lists, err := co.client.NeighborsLocal(ctx, int(s), g.local)
			if err == nil {
				err = co.checkReply(int(s), lists)
			}
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				return
			}
			gid := co.rt.GlobalIDs(int(s))
			for k, pos := range g.pos {
				v := vs[pos]
				out[pos] = co.rt.MergeBoundary(make([]int32, 0, len(lists[k])+len(co.rt.BoundaryOf(v))), v, lists[k], gid)
			}
		}(s, g)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// checkReply rejects a shard reply the boundary merge cannot use: a
// local id outside the shard would index past its id map (a panic in a
// scatter goroutine, which no handler recovers), and an unsorted list
// would merge silently wrong.
func (co *Coordinator) checkReply(s int, lists [][]int32) error {
	size := int32(co.rt.ShardSize(s))
	for _, list := range lists {
		for i, u := range list {
			if u >= size || (i > 0 && u <= list[i-1]) {
				return &serve.ShardError{Shard: s, Err: fmt.Errorf("reply lists local id %d out of order or outside [0,%d)", u, size)}
			}
		}
	}
	return nil
}

// HasEdge answers a global edge-existence query: the owning shard's
// point query for intra-shard pairs, the local boundary CSR for
// cross-shard ones (no network).
func (co *Coordinator) HasEdge(ctx context.Context, u, v int32) (bool, error) {
	if u == v {
		return false, nil
	}
	su, sv := co.rt.ShardOf(u), co.rt.ShardOf(v)
	if su != sv {
		return co.rt.BoundaryHasEdge(u, v), nil
	}
	return co.client.HasEdgeLocal(ctx, int(su), co.rt.LocalOf(u), co.rt.LocalOf(v))
}

// Source returns a traversal source over the gathered global adjacency,
// for whole-graph algorithms such as PageRank.
func (co *Coordinator) Source(ctx context.Context) (algos.NeighborSource, func(), error) {
	adj, err := co.adjacency(ctx)
	if err != nil {
		return nil, nil, err
	}
	return algos.FromFuncs(len(adj), func(v int32) []int32 { return adj[v] }), func() {}, nil
}

// adjacency gathers (and caches) the full merged global adjacency. The
// artifact is immutable, so a successful gather is cached forever; a
// failed one is not cached, and the next request retries — a transient
// shard outage never poisons PageRank permanently.
func (co *Coordinator) adjacency(ctx context.Context) ([][]int32, error) {
	co.mu.Lock()
	adj := co.adj
	co.mu.Unlock()
	if adj != nil {
		return adj, nil
	}
	all := make([]int32, co.rt.NumNodes())
	for v := range all {
		all[v] = int32(v)
	}
	adj, err := co.neighborsGlobal(ctx, all)
	if err != nil {
		return nil, err
	}
	co.mu.Lock()
	if co.adj == nil {
		co.adj = adj
	}
	adj = co.adj
	co.mu.Unlock()
	return adj, nil
}
