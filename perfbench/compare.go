package main

// The comparator: two sets of runs, one verdict per workload and
// end-to-end metric, by the rule of the choosing-metrics guide §8.

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"

	"repro/internal/datasets"
	"repro/internal/graph"
)

// readRecords parses the perfbench-record lines of saved run output,
// keeping untraced, correct runs.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line, ok := strings.CutPrefix(sc.Text(), recordPrefix)
		if !ok {
			continue
		}
		var rec record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !rec.Trace && rec.Correct {
			out = append(out, rec)
		}
	}
	return out, sc.Err()
}

// quartiles mirrors Python's statistics.quantiles(xs, n=4) (the
// default "exclusive" method) on at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	m := len(s) + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// comparison is one workload × metric outcome.
type comparison struct {
	aMed, aQ1, aQ3 float64
	bMed, bQ1, bQ3 float64
	pairs, won     int
	worse          float64 // relative change of the median in the worse direction
	verdict        string
}

// compare judges change runs b against parent runs a, paired by
// index (the caller pairs them by seed). The change improved when it
// wins at least 9 of 10 pairs (ties count for neither) and its median
// moved by more than the parent's quartile distance; it regressed when
// its median is worse by more than bound. Either spread wider than
// the bound leaves the metric unresolved, unless every change run
// beats (or loses to) every parent run.
func compare(a, b []float64, higherBetter bool, bound float64) comparison {
	var c comparison
	c.aQ1, c.aMed, c.aQ3 = quartiles(a)
	c.bQ1, c.bMed, c.bQ3 = quartiles(b)
	better := func(x, y float64) bool { // x beats y
		if higherBetter {
			return x > y
		}
		return x < y
	}
	c.pairs = min(len(a), len(b))
	for i := 0; i < c.pairs; i++ {
		if better(b[i], a[i]) {
			c.won++
		}
	}
	c.worse = (c.bMed - c.aMed) / math.Abs(c.aMed)
	if higherBetter {
		c.worse = -c.worse
	}
	allBetter, allWorse := slices.Max(b) < slices.Min(a), slices.Min(b) > slices.Max(a)
	if higherBetter {
		allBetter, allWorse = allWorse, allBetter
	}
	spread := math.Max((c.aQ3-c.aQ1)/math.Abs(c.aMed), (c.bQ3-c.bQ1)/math.Abs(c.bMed))
	switch {
	case c.pairs > 0 && float64(c.won) >= 0.9*float64(c.pairs) && c.worse < 0 &&
		math.Abs(c.bMed-c.aMed) > c.aQ3-c.aQ1:
		c.verdict = "improved"
	case allBetter:
		c.verdict = "improved"
	case allWorse && c.worse > bound:
		c.verdict = "regressed"
	case spread > bound:
		c.verdict = "unresolved"
	case c.worse > bound:
		c.verdict = "regressed"
	default:
		c.verdict = "no change"
	}
	return c
}

// compareFiles prints the comparison of two saved sets of runs.
func compareFiles(w io.Writer, cfg *config, parentPath, changePath string) error {
	parent, err := readRecords(parentPath)
	if err != nil {
		return err
	}
	change, err := readRecords(changePath)
	if err != nil {
		return err
	}
	specs := append(slices.Clone(cfg.Metrics), cfg.Reported...)
	fmt.Fprintf(w, "%-12s %-22s %26s %26s %7s %9s  %s\n", "workload", "metric",
		"parent median [q1,q3]", "change median [q1,q3]", "won", "change", "verdict")
	regressed := 0
	for _, wl := range cfg.Workloads {
		pa, pb := pairBySeed(parent, change, wl.Name)
		for _, s := range specs {
			var a, b []float64
			for i := range pa {
				va, oka := pa[i].Metrics[s.Name]
				vb, okb := pb[i].Metrics[s.Name]
				if oka && okb {
					a, b = append(a, va), append(b, vb)
				}
			}
			if len(a) < 2 {
				continue
			}
			c := compare(a, b, s.Better == "higher", s.Bound)
			if c.verdict == "regressed" {
				regressed++
			}
			fmt.Fprintf(w, "%-12s %-22s %10.4g [%.4g,%.4g] %10.4g [%.4g,%.4g] %3d/%-3d %+8.1f%%  %s\n",
				wl.Name, s.Name, c.aMed, c.aQ1, c.aQ3, c.bMed, c.bQ1, c.bQ3, c.won, c.pairs, 100*c.worse, c.verdict)
		}
	}
	fmt.Fprintf(w, "change: relative change of the median in the worse direction; %d regressions\n", regressed)
	return nil
}

// pairBySeed returns the workload's runs of both sides that share a
// seed, in matching order; without shared seeds it pairs in run order.
func pairBySeed(parent, change []record, workload string) (a, b []record) {
	bySeed := map[int64]record{}
	var pa, pb []record
	for _, r := range parent {
		if r.Workload == workload {
			pa = append(pa, r)
		}
	}
	for _, r := range change {
		if r.Workload == workload {
			pb = append(pb, r)
			bySeed[r.Seed] = r
		}
	}
	for _, r := range pa {
		if m, ok := bySeed[r.Seed]; ok {
			a, b = append(a, r), append(b, m)
		}
	}
	if len(a) >= 2 {
		return a, b
	}
	n := min(len(pa), len(pb))
	return pa[:n], pb[:n]
}

// printInputs prints, for every workload input, the edge count and
// edge-list digest of each seed in [lo, hi], as recorded in
// workloads.json.
func printInputs(w io.Writer, cfg *config, lo, hi int64) error {
	out := map[string]inputSpec{}
	for _, wl := range cfg.Workloads {
		key := inputKey(wl.Dataset, wl.Scale)
		if _, done := out[key]; done {
			continue
		}
		spec, err := datasets.ByName(wl.Dataset)
		if err != nil {
			return err
		}
		in := inputSpec{Seeds: map[string]inputDigest{}}
		for seed := lo; seed <= hi; seed++ {
			g := spec.Generate(wl.Scale, seed)
			var buf strings.Builder
			if err := graph.WriteEdgeList(&buf, g); err != nil {
				return err
			}
			sum := sha256.Sum256([]byte(buf.String()))
			in.Nodes = g.NumNodes()
			in.Seeds[strconv.FormatInt(seed, 10)] = inputDigest{Edges: g.NumEdges(), SHA256: hex.EncodeToString(sum[:])}
		}
		out[key] = in
	}
	raw, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", raw)
	return err
}
