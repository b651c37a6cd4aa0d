package main

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"qav/internal/names"
)

// tracedRun is the -trace 1 run: the window is split into four equal
// slices, alternately untraced and traced. The per-layer metrics come
// from the traced slices; trace.overhead_frac compares their op rate
// with the untraced slices'; the client.* latencies come from the
// untraced slices.
func tracedRun(o options, fp fingerprint, w *workloadDef, st *stack, tr *tracer, opIDs *atomic.Uint32, d time.Duration) (result, error) {
	var plain, traced []*window
	var wrong error
	for i := 0; i < 4; i++ {
		win, err := runWindow(st, w.stream, tr, opIDs, d/4, i%2 == 1)
		if err != nil && !errors.Is(err, errWrongOutput) {
			return result{}, err
		}
		if wrong == nil {
			wrong = err
		}
		if i%2 == 1 {
			traced = append(traced, win)
		} else {
			plain = append(plain, win)
		}
	}
	res := result{Metrics: perLayer(w, plain, traced)}
	for _, win := range append(plain, traced...) {
		res.Attempted += win.ops
		res.Failed += win.failed
	}
	var spans []span
	for _, win := range traced {
		spans = append(spans, win.spans...)
	}
	path := tracePath(o)
	if err := writeSpans(path, spans); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
	}
	record(fp, "per_layer", map[string]any{
		"workload": w.name,
		"spans":    len(spans),
		"span_csv": path,
		"kinds":    kindSummary(allSamples(plain)),
	})
	return res, wrong
}

func allSamples(wins []*window) []sample {
	var out []sample
	for _, win := range wins {
		out = append(out, win.samples...)
	}
	return out
}

// perLayer computes every per-layer metric. Span metrics are medians
// per op of the workload's primary kind; counter metrics are counter
// deltas over the traced slices divided by ops. The reconciliation
// identity holds in means per op over all traced ops:
//
//	trace.client_us = trace.router_self_us + server.self_us
//	                + trace.engine_us + unattributed_us
func perLayer(w *workloadDef, plain, traced []*window) map[string]metric {
	var dl delta
	var ops, rewriteOps, answerOps, crs, partials, answers, segGrow int64
	var elapsed, plainElapsed time.Duration
	var plainOps int64
	var spans []span
	for _, win := range traced {
		dl.add(win.before, win.after)
		ops += win.ops
		for _, smp := range win.samples {
			switch smp.kind {
			case kRewrite, kBatch:
				rewriteOps++
			case kAnswer:
				answerOps++
			}
		}
		crs += win.crs
		partials += win.partials
		answers += win.answers
		segGrow += win.segGrow
		elapsed += win.elapsed
		spans = append(spans, win.spans...)
	}
	var thinkNs, allOps, failed int64
	for _, win := range plain {
		plainOps += win.ops
		plainElapsed += win.elapsed
	}
	for _, win := range append(append([]*window(nil), plain...), traced...) {
		thinkNs += win.thinkNs
		allOps += win.ops
		failed += win.failed
	}

	times := reduceSpans(spans)
	var primRouterSelf, primReplica, selReplica []int64
	var sumClient, sumRouter, sumRouterSelf, sumReplica int64
	for _, t := range times {
		sumClient += t.client
		sumRouter += t.router
		sumRouterSelf += t.routerSelf
		sumReplica += t.replica
		switch t.kind {
		case w.primary:
			primRouterSelf = append(primRouterSelf, t.routerSelf)
			primReplica = append(primReplica, t.replica)
		case kSelect:
			selReplica = append(selReplica, t.replica)
		}
	}
	n := float64(len(times))
	us := func(ns float64) float64 { return ns / 1e3 }
	perOp := func(x float64) float64 { return ratio(x, float64(ops)) }
	med := func(xs []int64) float64 {
		sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
		v, _ := quantile(xs, 0.5)
		return us(float64(v))
	}
	engineNs := float64(dl.engineNs())
	stage := func(name string, per int64) float64 { return us(ratio(float64(dl.stageNs[name]), float64(per))) }

	plainSamples := allSamples(plain)
	clientQ := func(k kind, q, scale float64) float64 {
		v, ok := quantile(latencies(ofKind(plainSamples, k)), q)
		if !ok && q > 0.5 {
			return 0
		}
		return float64(v) / scale
	}
	lookups := float64(dl.CacheHits + dl.CacheMisses + dl.CacheDedups + dl.CacheWarmHits)
	plans := float64(dl.PlanCacheHits + dl.PlanCacheMiss + dl.PlanCacheDedup)

	m := map[string]metric{
		"router.self_us":             {med(primRouterSelf), "us"},
		"router.pick_us":             {us(perOp(float64(dl.pickNs))), "us"},
		"router.attempts_per_op":     {perOp(float64(dl.attempts)), "count/op"},
		"server.span_us":             {med(primReplica), "us"},
		"server.self_us":             {us(ratio(float64(sumReplica)-engineNs, n)), "us"},
		"server.resp_bytes_per_op":   {perOp(float64(dl.respBytes)), "B/op"},
		"engine.parse_us":            {stage(names.StageParse, ops), "us"},
		"engine.intern_hit_frac":     {ratio(float64(dl.InternHits), float64(dl.InternHits+dl.InternMisses)), "frac"},
		"engine.intern_dedup_per_op": {perOp(float64(dl.InternDedups)), "count/op"},
		"cache.hit_frac":             {ratio(float64(dl.CacheHits), lookups), "frac"},
		"cache.segment_bytes_per_op": {perOp(float64(segGrow)), "B/op"},
		"cache.persist_drop_frac":    {ratio(float64(dl.PersistDrops), float64(dl.CacheMisses)), "frac"},
		"rewrite.enumerate_us":       {stage(names.StageEnumerate, ops), "us"},
		"rewrite.buildcr_us":         {stage(names.StageBuildCR, ops), "us"},
		"rewrite.contain_us":         {stage(names.StageContain, ops), "us"},
		"rewrite.crs_per_op":         {ratio(float64(crs), float64(rewriteOps)), "count/op"},
		"rewrite.partial_frac":       {ratio(float64(partials), float64(rewriteOps)), "frac"},
		"chase.chase_us":             {stage(names.StageChase, ops), "us"},
		"plan.exec_us":               {stage(names.StagePlanExec, answerOps), "us"},
		"plan.index_us":              {stage(names.StagePlanIndex, answerOps), "us"},
		"plan.compile_us":            {stage(names.StagePlanCompile, answerOps), "us"},
		"plan.answers_per_op":        {ratio(float64(answers), float64(answerOps)), "count/op"},
		"plan.cache_hit_frac":        {ratio(float64(dl.PlanCacheHits), plans), "frac"},
		"viewstore.select_us":        {med(selReplica), "us"},
		"runtime.alloc_bytes_per_op": {perOp(dl.allocB), "B/op"},
		"runtime.allocs_per_op":      {perOp(dl.allocObjs), "count/op"},
		"runtime.gc_cpu_frac":        {ratio(dl.gcCPU, dl.totalCPU), "frac"},
		"unattributed_us":            {us(ratio(float64(sumClient-sumRouter), n)), "us"},
		"trace.client_us":            {us(ratio(float64(sumClient), n)), "us"},
		"trace.router_self_us":       {us(ratio(float64(sumRouterSelf), n)), "us"},
		"trace.engine_us":            {us(perOp(engineNs)), "us"},
		"trace.overhead_frac": {1 - ratio(float64(ops)/elapsed.Seconds(),
			float64(plainOps)/plainElapsed.Seconds()), "frac"},
		"client.rewrite_p50_us": {clientQ(kRewrite, 0.5, 1e3), "us"},
		"client.rewrite_p99_us": {clientQ(kRewrite, 0.99, 1e3), "us"},
		"client.batch_p50_us":   {clientQ(kBatch, 0.5, 1e3), "us"},
		"client.batch_p99_us":   {clientQ(kBatch, 0.99, 1e3), "us"},
		"client.select_p50_us":  {clientQ(kSelect, 0.5, 1e3), "us"},
		"client.select_p99_us":  {clientQ(kSelect, 0.99, 1e3), "us"},
		"client.answer_p50_ms":  {clientQ(kAnswer, 0.5, 1e6), "ms"},
		"client.answer_p99_ms":  {clientQ(kAnswer, 0.99, 1e6), "ms"},
		"client.failed_frac":    {ratio(float64(failed), float64(allOps)), "frac"},
		"client.think_us":       {us(ratio(float64(thinkNs), float64(allOps))), "us"},
	}
	return m
}
