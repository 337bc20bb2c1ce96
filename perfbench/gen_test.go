package main

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"
)

func testGenConfig(seed uint64) genConfig {
	return genConfig{
		Seed: seed, Nodes: 500, ZipfS: 1, BatchSize: 16, UpdateBatch: 4, PageRankT: 10,
		Mix: Mix{"neighbors": 0.45, "batch_json": 0.12, "batch_binary": 0.12, "hasedge": 0.15, "pagerank": 0.02, "update": 0.08},
	}
}

// TestScheduleDeterministicPerSeed: a seed names one request sequence;
// another seed or another phase names a different one.
func TestScheduleDeterministicPerSeed(t *testing.T) {
	gen := func(seed, phase uint64) []request {
		reqs, err := schedule(testGenConfig(seed), newZipf(500, 1, seed), phase, 2000, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return reqs
	}
	a, b := gen(7, 1), gen(7, 1)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed and phase gave different schedules")
	}
	if reflect.DeepEqual(a, gen(8, 1)) {
		t.Fatal("different seeds gave the same schedule")
	}
	if reflect.DeepEqual(a, gen(7, 2)) {
		t.Fatal("different phases gave the same schedule")
	}
}

// TestScheduleMixAndSpacing: requests are due exactly i/rate apart, and
// the operation shares follow the mix.
func TestScheduleMixAndSpacing(t *testing.T) {
	cfg := testGenConfig(3)
	reqs, err := schedule(cfg, newZipf(500, 1, 3), 1, 10000, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 50000 {
		t.Fatalf("%d requests, want 50000", len(reqs))
	}
	counts := map[string]int{}
	for i, r := range reqs {
		if want := time.Duration(i) * 100 * time.Microsecond; r.due != want {
			t.Fatalf("request %d due at %v, want %v", i, r.due, want)
		}
		counts[r.op.String()]++
		for _, v := range r.ids {
			if v < 0 || int(v) >= cfg.Nodes {
				t.Fatalf("request %d names vertex %d outside [0,%d)", i, v, cfg.Nodes)
			}
		}
		for _, u := range r.ups {
			if u.U == u.V {
				t.Fatalf("request %d updates self-loop %d", i, u.U)
			}
		}
	}
	for op, w := range cfg.Mix {
		share := float64(counts[op]) / float64(len(reqs))
		if share < w*0.9 || share > w*1.1 {
			t.Errorf("%s share %.4f, mix weight %.4f", op, share, w)
		}
	}
}

// TestRunLoadPacing drives a trivial server open-loop and checks the
// pacing bounds: nothing is sent before it is due, every request is
// answered, the phase ends on schedule, and the dispatcher wakes on
// time.
func TestRunLoadPacing(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/update" {
			w.Write([]byte(`{"applied":1,"version":1}`))
		}
	}))
	defer srv.Close()
	const rate, dur = 1000, time.Second
	reqs, err := schedule(testGenConfig(5), newZipf(500, 1, 5), 1, rate, dur)
	if err != nil {
		t.Fatal(err)
	}
	res := runLoad(srv.URL, 2, time.Second, reqs, true)
	for i := range res.reqs {
		q := &res.reqs[i]
		if !q.ok() {
			t.Fatalf("request %d failed: status %d err %q skipped %v", i, q.status, q.err, q.skipped)
		}
		if q.woke < q.due || q.sent < q.woke || q.done < q.sent {
			t.Fatalf("request %d out of order: due %v woke %v sent %v done %v", i, q.due, q.woke, q.sent, q.done)
		}
	}
	if res.elapsed < dur-time.Millisecond || res.elapsed > dur+200*time.Millisecond {
		t.Errorf("phase took %v, scheduled %v", res.elapsed, dur)
	}
	if p50 := res.wake.Quantile(0.5); p50 > time.Millisecond {
		t.Errorf("dispatcher woke %v late at the median", p50)
	}
	if len(res.spans) != 3*len(reqs) {
		t.Errorf("%d spans for %d requests, want 3 each", len(res.spans), len(reqs))
	}
}
