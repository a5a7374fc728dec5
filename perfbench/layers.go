package main

// perLayerNames lists every per-layer metric of a traced run with its
// unit. A metric of a layer the workload does not exercise reads 0 (no
// WAL on the memory-only workloads, no views or wire outside
// expiring-views). NOTES.md gives the end-to-end metric each one should
// move.
var perLayerNames = []struct{ name, unit string }{
	{"sql.parse_us", "us"},
	{"sql.select_us", "us"},
	{"sql.insert_us", "us"},
	{"sql.advance_us", "us"},
	{"sql.frontend_hit_us", "us"},
	{"engine.advance_us", "us"},
	{"engine.expired_per_advance", "count"},
	{"engine.stale_ratio", "ratio"},
	{"engine.scheduler_pending", "count"},
	{"engine.checkpoint_ms", "ms"},
	{"engine.cache.hit_ratio", "ratio"},
	{"engine.cache.hit_us", "us"},
	{"engine.cache.invalidations_per_kop", "count"},
	{"engine.cache.evictions_per_kop", "count"},
	{"wal.syncs_per_write", "ratio"},
	{"wal.sync_us", "us"},
	{"wal.sync_busy_frac", "ratio"},
	{"wal.bytes_per_write", "B"},
	{"wal.disk_bytes_per_live_row", "B"},
	{"wal.replayed_records", "count"},
	{"wal.recovery_ms", "ms"},
	{"view.served_ratio", "ratio"},
	{"view.recompute_ratio", "ratio"},
	{"view.recompute_ms", "ms"},
	{"view.patches_per_read", "count"},
	{"view.refresh_ms", "ms"},
	{"wire.remat_ratio", "ratio"},
	{"wire.remat_us", "us"},
	{"wire.bytes_per_read", "B"},
	{"wire.patches_per_read", "count"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.gc_cycles_per_kop", "count"},
	{"self.bench_us", "us"},
	{"self.sql_us", "us"},
	{"self.engine_us", "us"},
	{"self.wire_us", "us"},
	{"trace.overhead_frac", "ratio"},
}

var perLayerUnit = map[string]string{}

func init() {
	for _, m := range perLayerNames {
		perLayerUnit[m.name] = m.unit
	}
}

// perLayer computes the per-layer metrics every workload shares from a
// traced phase: span means for the sql and engine calls, and deltas of
// the counters the engine and the Go runtime export.
func perLayer(ph *phase, out map[string]float64) {
	s := &ph.spans
	b, a := &ph.before, &ph.after
	out["sql.parse_us"] = s.meanUs(spanParse)
	out["sql.select_us"] = s.meanUs(spanSelect)
	out["sql.insert_us"] = s.meanUs(spanInsert)
	out["sql.advance_us"] = s.meanUs(spanAdvance)

	adv := deltaHist(b.eng.AdvanceNanos.Count, b.eng.AdvanceNanos.Sum, a.eng.AdvanceNanos.Count, a.eng.AdvanceNanos.Sum)
	expired := a.eng.TuplesExpired - b.eng.TuplesExpired
	out["engine.advance_us"] = adv.mean() / 1e3
	out["engine.expired_per_advance"] = ratio(float64(expired), float64(a.eng.Advances-b.eng.Advances))
	out["engine.stale_ratio"] = ratio(float64(a.eng.StaleDropped-b.eng.StaleDropped), float64(expired))
	out["engine.scheduler_pending"] = float64(a.eng.Scheduler.Pending)
	out["engine.checkpoint_ms"] = s.meanUs(spanCheckpoint) / 1e3

	// The result cache's traffic, less what the answer checks caused.
	cache := cacheDiff(b.cache, a.cache)
	cache.sub(ph.checkCache)
	hitUs := ratio(float64(cache.hitNanos), float64(cache.hitCount)) / 1e3
	out["engine.cache.hit_ratio"] = ratio(float64(cache.hits), float64(cache.hits+cache.misses))
	out["engine.cache.hit_us"] = hitUs
	out["engine.cache.invalidations_per_kop"] = perKop(cache.invalidations, ph.ops)
	out["engine.cache.evictions_per_kop"] = perKop(cache.evictions, ph.ops)
	if s[spanSelect][tagHit].count > 0 {
		out["sql.frontend_hit_us"] = s.meanUs(spanSelect, tagHit) - hitUs
	}

	if b.eng.WAL != nil && a.eng.WAL != nil {
		bw, aw := b.eng.WAL, a.eng.WAL
		writes := float64(ph.n[kWrite])
		syncs := aw.Syncs - bw.Syncs
		syncNanos := aw.SyncNanos - bw.SyncNanos
		out["wal.syncs_per_write"] = ratio(float64(syncs), writes)
		out["wal.sync_us"] = ratio(float64(syncNanos), float64(syncs)) / 1e3
		out["wal.sync_busy_frac"] = ratio(float64(syncNanos), float64(a.at.Sub(b.at)))
		out["wal.bytes_per_write"] = ratio(float64(aw.AppendedBytes-bw.AppendedBytes), writes)
	}

	var reads, served, recomputes, patches, recCount, recSum int64
	for name, av := range a.eng.Views {
		bv := b.eng.Views[name]
		reads += int64(av.Reads - bv.Reads)
		served += int64(av.CacheHits - bv.CacheHits)
		recomputes += int64(av.Recomputations - bv.Recomputations)
		patches += int64(av.PatchesApplied - bv.PatchesApplied)
		recCount += av.RecomputeNanos.Count - bv.RecomputeNanos.Count
		recSum += av.RecomputeNanos.Sum - bv.RecomputeNanos.Sum
	}
	out["view.served_ratio"] = ratio(float64(served), float64(reads))
	out["view.recompute_ratio"] = ratio(float64(recomputes), float64(reads))
	out["view.recompute_ms"] = ratio(float64(recSum), float64(recCount)) / 1e6
	out["view.patches_per_read"] = ratio(float64(patches), float64(reads))
	out["view.refresh_ms"] = s.meanUs(spanRefresh) / 1e3

	out["runtime.gc_cpu_frac"] = ratio(a.gcCPU-b.gcCPU, a.totalCPU-b.totalCPU)
	out["runtime.gc_cycles_per_kop"] = perKop(int64(a.gcCycles-b.gcCycles), ph.ops)
	for layer, us := range s.layerSelfUs(ph.ops) {
		out["self."+layer+"_us"] = us
	}
}
