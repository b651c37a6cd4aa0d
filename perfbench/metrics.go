package main

import (
	"runtime/metrics"

	"qav/internal/engine"
	"qav/internal/names"
)

// counters is a point-in-time reading of every counter the per-layer
// metrics difference: the engines' public Stats and stage totals, the
// router's Status and registry, the replica response bytes, and the Go
// runtime.
type counters struct {
	stats     []engine.Stats
	stageNs   map[string]int64 // engine stage totals, summed over replicas
	pickNs    int64            // router.pick stage total
	attempts  int64            // router attempts, summed over replicas
	respBytes int64
	allocB    uint64
	allocObjs uint64
	gcCPU     float64
	totalCPU  float64
}

// engineStages are the stages the engine credits while serving a
// request; their summed delta is the staged engine time.
var engineStages = []string{
	names.StageParse, names.StageChase, names.StageEnumerate,
	names.StageBuildCR, names.StageContain, names.StagePlanCompile,
	names.StagePlanIndex, names.StagePlanExec, names.StageCatalogPrune,
	names.StageBatchChase,
}

func snapshotCounters(st *stack) counters {
	c := counters{stageNs: make(map[string]int64)}
	for _, eng := range st.engines {
		c.stats = append(c.stats, eng.Stats())
		for name, s := range eng.MetricsSnapshot().Stages {
			c.stageNs[name] += s.TotalNs
		}
	}
	if s, ok := st.reg.Snapshot().Stages[names.StageRouterPick]; ok {
		c.pickNs = s.TotalNs
	}
	for _, rs := range st.router.Status().Replicas {
		c.attempts += rs.Attempts
	}
	c.respBytes = st.respBytes.Load()
	ms := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(ms)
	c.allocB = ms[0].Value.Uint64()
	c.allocObjs = ms[1].Value.Uint64()
	c.gcCPU = ms[2].Value.Float64()
	c.totalCPU = ms[3].Value.Float64()
	return c
}

// delta is the counter growth between two readings, summed over
// replicas where the reading is per replica.
type delta struct {
	engine.Stats
	stageNs   map[string]int64
	pickNs    int64
	attempts  int64
	respBytes int64
	allocB    float64
	allocObjs float64
	gcCPU     float64
	totalCPU  float64
}

func (d *delta) add(before, after counters) {
	if d.stageNs == nil {
		d.stageNs = make(map[string]int64)
	}
	for i := range after.stats {
		a, b := after.stats[i], before.stats[i]
		d.CacheHits += a.CacheHits - b.CacheHits
		d.CacheMisses += a.CacheMisses - b.CacheMisses
		d.CacheDedups += a.CacheDedups - b.CacheDedups
		d.CacheWarmHits += a.CacheWarmHits - b.CacheWarmHits
		d.PersistDrops += a.PersistDrops - b.PersistDrops
		d.Persisted += a.Persisted - b.Persisted
		d.InternHits += a.InternHits - b.InternHits
		d.InternMisses += a.InternMisses - b.InternMisses
		d.InternDedups += a.InternDedups - b.InternDedups
		d.PlanCacheHits += a.PlanCacheHits - b.PlanCacheHits
		d.PlanCacheMiss += a.PlanCacheMiss - b.PlanCacheMiss
		d.PlanCacheDedup += a.PlanCacheDedup - b.PlanCacheDedup
	}
	for name, ns := range after.stageNs {
		d.stageNs[name] += ns - before.stageNs[name]
	}
	d.pickNs += after.pickNs - before.pickNs
	d.attempts += after.attempts - before.attempts
	d.respBytes += after.respBytes - before.respBytes
	d.allocB += float64(after.allocB - before.allocB)
	d.allocObjs += float64(after.allocObjs - before.allocObjs)
	d.gcCPU += after.gcCPU - before.gcCPU
	d.totalCPU += after.totalCPU - before.totalCPU
}

// engineNs is the staged engine time in the delta.
func (d *delta) engineNs() int64 {
	var ns int64
	for _, name := range engineStages {
		ns += d.stageNs[name]
	}
	return ns
}

// ratio returns a/b, or 0 when b is 0 (the layer saw no such work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
