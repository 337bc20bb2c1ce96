package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/datasets"
	"repro/internal/graph"
)

// summaryHash returns the sha256 of the serialized summary of g.
func summaryHash(t *testing.T, g *graph.Graph, cfg Config) string {
	t.Helper()
	sum, _ := Summarize(g, cfg)
	var buf bytes.Buffer
	if _, err := sum.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	h := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(h[:])
}

// TestSummarizePinnedOutput pins the exact serialized summary of a few
// inputs. TestParallelMatchesSerial compares worker counts against each
// other, so it cannot see a change that alters serial and parallel
// output alike; these hashes catch any change to a merge, a supernode
// id or a signed edge. A change that is meant to alter the output must
// update them, and say why.
func TestSummarizePinnedOutput(t *testing.T) {
	u5, err := datasets.ByName("U5")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		g    func() *graph.Graph
		want string
	}{
		{"U5@1", func() *graph.Graph { return u5.Generate(1, 0) },
			"9d0dc3ed63d7083e01d630375e59df6489598b62789fb41fd093c821f222b2c7"},
		{"BA", func() *graph.Graph { return graph.BarabasiAlbert(600, 3, 5) },
			"b6d57a565f94dd6d92979560b8810c7126a38c835f4c150dbc25a707c4706fdb"},
		{"caveman", func() *graph.Graph { return graph.Caveman(40, 12, 60, 3) },
			"7be11ccf081bd68313262b3b66451d71be1eb8ab35d2c0cf0f3395201b010d34"},
	}
	for _, tc := range cases {
		g := tc.g()
		for _, workers := range []int{1, 2} {
			got := summaryHash(t, g, Config{T: 20, Seed: 0, Workers: workers})
			if got != tc.want {
				t.Errorf("%s workers=%d: summary sha256 %s, want %s", tc.name, workers, got, tc.want)
			}
		}
	}
}
