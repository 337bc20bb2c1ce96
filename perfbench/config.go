package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// workloads.json fixes everything a run depends on besides its seed and
// length: the workloads with their generator parameters, rate ladders
// and limits, the expected inputs, and what each metric means.
//
//go:embed workloads.json
var workloadsJSON []byte

type config struct {
	Connections  int                  `json:"connections"`
	TimeoutMs    int                  `json:"timeout_ms"`
	ZipfS        float64              `json:"zipf_s"`
	BatchSize    int                  `json:"batch_size"`
	UpdateBatch  int                  `json:"update_batch"`
	PageRankT    int                  `json:"pagerank_t"`
	Iterations   int                  `json:"slugger_t"`
	BuildWorkers int                  `json:"slugger_workers"`
	Builds       int                  `json:"builds"`
	Setups       int                  `json:"setups"`
	SampleChecks int                  `json:"sample_vertices"`
	WarmupS      float64              `json:"warmup_s"`
	NominalShare float64              `json:"nominal_share"`
	Windows      int                  `json:"nominal_windows"`
	Mixes        map[string]Mix       `json:"mixes"`
	Workloads    []workload           `json:"workloads"`
	Inputs       map[string]inputSpec `json:"inputs"`
	Metrics      []metricSpec         `json:"end_to_end"`
	Reported     []metricSpec         `json:"reported"`
	LayerMetrics []metricSpec         `json:"per_layer"`
}

type workload struct {
	Name           string    `json:"name"`
	Why            string    `json:"why"`
	Dataset        string    `json:"dataset"`
	Scale          float64   `json:"scale"`
	Focus          string    `json:"focus"` // build: setup_s and peak_rss_mb describe the build; serve: the servers
	Serve          string    `json:"serve"` // mmap | mutable | fed
	Shards         int       `json:"shards,omitempty"`
	Mix            string    `json:"mix"`
	NominalQPS     float64   `json:"nominal_qps"`
	Ladder         []float64 `json:"ladder"`
	LatencyLimitMs float64   `json:"latency_limit_ms"`
	Fsync          string    `json:"fsync,omitempty"`
	Compact        int       `json:"compact,omitempty"`
	MinCompactions int       `json:"min_compactions,omitempty"`
}

// inputSpec records a generated input: its fixed node count and, per
// seed, its edge count and edge-list digest.
type inputSpec struct {
	Nodes int                    `json:"nodes"`
	Seeds map[string]inputDigest `json:"seeds"`
}

type inputDigest struct {
	Edges  int64  `json:"edges"`
	SHA256 string `json:"sha256"`
}

// metricSpec is the part of a metric's entry the benchmark uses; the
// entries in workloads.json also say what each metric means and, for
// layer metrics, which end-to-end metrics it should move.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadConfig() (*config, error) {
	var c config
	if err := json.Unmarshal(workloadsJSON, &c); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	return &c, nil
}

func (c *config) workload(name string) (*workload, error) {
	for i := range c.Workloads {
		if c.Workloads[i].Name == name {
			return &c.Workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func inputKey(dataset string, scale float64) string { return fmt.Sprintf("%s@%g", dataset, scale) }
