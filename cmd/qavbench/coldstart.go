package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"qav/internal/engine"
	"qav/internal/workload"
)

// The coldstart experiment (E16) measures what the persistent rewrite
// tier buys across a process restart: a first engine computes a
// workload cold and persists it, then a second engine opened on the
// same cache directory replays the segment and serves the identical
// workload from the warm tier without recomputing. Three per-request
// rates bracket the tier: cold compute (full pipeline), warm serve
// (decode + promote from the replayed tier), and hot serve (tier-1
// after promotion).

const coldstartRequests = 200

// coldstartWorkload builds a deterministic mix of distinct
// query/view expression pairs, sized like the mcrgen_random6 kernel.
func coldstartWorkload(seed int64) [][2]string {
	rng := rand.New(rand.NewSource(seed))
	alphabet := []string{"a", "b", "c"}
	reqs := make([][2]string, coldstartRequests)
	for i := range reqs {
		reqs[i][0] = workload.RandomPattern(rng, alphabet, 6).String()
		reqs[i][1] = workload.RandomPattern(rng, alphabet, 6).String()
	}
	return reqs
}

// coldstartRun drives the two-boot protocol against one cache
// directory and returns the measured kernels plus the tier summary.
func coldstartRun(ctx context.Context, seed int64) ([]kernelResult, coldstartSummary, error) {
	dir, err := os.MkdirTemp("", "qavbench-coldstart-*")
	if err != nil {
		return nil, coldstartSummary{}, err
	}
	defer os.RemoveAll(dir)

	reqs := coldstartWorkload(seed)
	serve := func(e *engine.Engine) func() {
		i := 0
		return func() {
			r := reqs[i%len(reqs)]
			// Each request parses at the edge, as qavd's handler does.
			pats, _, err := e.Parse("", engine.Field{Name: "query", Text: r[0]}, engine.Field{Name: "view", Text: r[1]})
			if err != nil {
				panic(err)
			}
			if _, err := e.Rewrite(ctx, engine.Request{Query: pats[0], View: pats[1]}); err != nil {
				panic(err)
			}
			i++
		}
	}

	var kernels []kernelResult
	var sum coldstartSummary

	// First boot: every request is a cold miss; the async writer
	// persists each completed result and Close drains the queue.
	cold := engine.New(engine.Config{CacheSize: 2 * coldstartRequests, CacheDir: dir})
	if wb := cold.WarmBootInfo(); !wb.Enabled {
		return nil, sum, fmt.Errorf("persistent tier disabled: %s", wb.Err)
	}
	kernels = append(kernels, measure("coldstart_cold_compute", len(reqs), serve(cold)))
	if err := cold.Close(); err != nil {
		return nil, sum, err
	}
	st := cold.Stats()
	sum.Requests = len(reqs)
	sum.Persisted = st.Persisted
	sum.SegmentBytes = st.SegmentBytes

	// Second boot: the replay itself is the restart cost, then the
	// same workload is served twice — once from the warm tier (decode
	// + promote) and once from tier 1 after promotion.
	bootStart := time.Now()
	warm := engine.New(engine.Config{CacheSize: 2 * coldstartRequests, CacheDir: dir})
	bootDur := time.Since(bootStart)
	defer warm.Close()
	wb := warm.WarmBootInfo()
	if wb.Err != "" || wb.TruncatedBytes != 0 {
		return nil, sum, fmt.Errorf("dirty warm boot: %+v", wb)
	}
	sum.Replayed = wb.Replayed
	kernels = append(kernels, kernelResult{
		Name: "coldstart_replay_boot", Iters: 1,
		NsPerOp: float64(bootDur.Nanoseconds()),
	})
	kernels = append(kernels, measure("coldstart_warm_serve", len(reqs), serve(warm)))
	kernels = append(kernels, measure("coldstart_hot_serve", len(reqs), serve(warm)))

	wst := warm.Stats()
	sum.WarmHits = wst.CacheWarmHits
	sum.WarmMisses = wst.CacheMisses
	for _, k := range kernels {
		switch k.Name {
		case "coldstart_cold_compute":
			sum.ColdNsPerOp = k.NsPerOp
		case "coldstart_warm_serve":
			sum.WarmNsPerOp = k.NsPerOp
		case "coldstart_hot_serve":
			sum.HotNsPerOp = k.NsPerOp
		}
	}
	if sum.WarmNsPerOp > 0 {
		sum.SpeedupColdOverWarm = sum.ColdNsPerOp / sum.WarmNsPerOp
	}
	return kernels, sum, nil
}

// coldstartSummary is the tier verdict of the coldstart report: how
// much was persisted and replayed, whether the warm boot recomputed
// anything, and the cold/warm rate ratio.
type coldstartSummary struct {
	Requests            int     `json:"requests"`
	Persisted           int64   `json:"persisted"`
	Replayed            int64   `json:"replayed"`
	SegmentBytes        int64   `json:"segment_bytes"`
	WarmHits            int64   `json:"warm_hits"`
	WarmMisses          int64   `json:"warm_misses"`
	ColdNsPerOp         float64 `json:"cold_ns_per_op"`
	WarmNsPerOp         float64 `json:"warm_ns_per_op"`
	HotNsPerOp          float64 `json:"hot_ns_per_op"`
	SpeedupColdOverWarm float64 `json:"speedup_cold_over_warm"`
}

// coldstartReport is the `-exp coldstart -json` document, archived as
// BENCH_PR9.json and uploaded by the CI bench-smoke job.
type coldstartReport struct {
	GOOS      string           `json:"goos"`
	GOARCH    string           `json:"goarch"`
	NumCPU    int              `json:"num_cpu"`
	Seed      int64            `json:"seed"`
	Kernels   []kernelResult   `json:"kernels"`
	Coldstart coldstartSummary `json:"coldstart"`
}

// runColdstartJSON measures the restart protocol and writes one JSON
// report to stdout.
func runColdstartJSON(ctx context.Context, seed int64) error {
	kernels, sum, err := coldstartRun(ctx, seed)
	if err != nil {
		return err
	}
	report := coldstartReport{
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Seed:      seed,
		Kernels:   kernels,
		Coldstart: sum,
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}

// E16: cold-vs-warm boot through the persistent rewrite tier.
func expColdstart(ctx context.Context, eng *engine.Engine, seed int64) {
	kernels, sum, err := coldstartRun(ctx, seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "coldstart: %v\n", err)
		return
	}
	w := table("E16 cold vs warm boot (persistent rewrite tier)",
		"phase", "ops", "avg/op")
	for _, k := range kernels {
		fmt.Fprintf(w, "%s\t%d\t%v\n", k.Name, k.Iters, time.Duration(k.NsPerOp))
	}
	w.Flush()
	fmt.Printf("persisted=%d replayed=%d warmHits=%d warmMisses=%d segment=%dB speedup(cold/warm)=%.1fx\n",
		sum.Persisted, sum.Replayed, sum.WarmHits, sum.WarmMisses, sum.SegmentBytes, sum.SpeedupColdOverWarm)
}
