package main

import (
	"math"
	"sort"
	"time"

	"ariesrh/internal/obs"
)

// metricDef names one reported metric.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: allowed worsening, as a share of the parent's median
}

// endToEnd are the user-visible metrics every workload reports with
// --trace 0.  Latencies are medians: on a shared 2-vCPU host p99 and
// throughput swing far more than the bounds, so they are per-layer
// diagnostics.
var endToEnd = []metricDef{
	{"txn_p50_us", "us", "lower", 0.25},
	{"read_p50_us", "us", "lower", 0.25},
	{"cpu_us_per_txn", "us", "lower", 0.25},
	{"recover_ms", "ms", "lower", 0.25},
	{"instant_first_read_ms", "ms", "lower", 0.25},
	{"instant_recovered_ms", "ms", "lower", 0.25},
	{"heap_mb", "MB", "lower", 0.2},
	{"log_bytes_per_user_byte", "ratio", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the per-layer metrics every workload reports with
// --trace 1, measured in the traced phase.  Per-transaction ratios
// divide by completed client transactions.
var perLayer = []metricDef{
	// Diagnostics of the run itself.
	{name: "commits_per_s", unit: "1/s", better: "higher"},
	{name: "txn_p99_us", unit: "us", better: "lower"},
	{name: "read_p99_us", unit: "us", better: "lower"},
	{name: "txn.single_shard_p50_us", unit: "us", better: "lower"},
	{name: "failed_frac", unit: "ratio", better: "lower"},
	{name: "trace.txn_p50_us", unit: "us", better: "lower"},
	{name: "trace.untraced_txn_p50_us", unit: "us", better: "lower"},
	{name: "trace.overhead_frac", unit: "ratio", better: "lower"},
	{name: "trace.api_cover_frac", unit: "ratio", better: "higher"},
	// The API, timed from the clients.
	{name: "api.begin_us", unit: "us", better: "lower"},
	{name: "api.begin_p99_us", unit: "us", better: "lower"},
	{name: "api.read_us", unit: "us", better: "lower"},
	{name: "api.read_p99_us", unit: "us", better: "lower"},
	{name: "api.update_us", unit: "us", better: "lower"},
	{name: "api.update_p99_us", unit: "us", better: "lower"},
	{name: "api.delegate_us", unit: "us", better: "lower"},
	{name: "api.delegate_p99_us", unit: "us", better: "lower"},
	{name: "api.commit_us", unit: "us", better: "lower"},
	{name: "api.commit_p99_us", unit: "us", better: "lower"},
	{name: "api.abort_us", unit: "us", better: "lower"},
	{name: "api.abort_p99_us", unit: "us", better: "lower"},
	{name: "api.checkpoint_ms", unit: "ms", better: "lower"},
	{name: "api.flushpages_ms", unit: "ms", better: "lower"},
	{name: "api.archive_ms", unit: "ms", better: "lower"},
	// internal/lock.
	{name: "lock.acquires_per_txn", unit: "count", better: "lower"},
	{name: "lock.waits_per_txn", unit: "count", better: "lower"},
	{name: "lock.wait_us_per_txn", unit: "us", better: "lower"},
	{name: "lock.transfers_per_txn", unit: "count", better: "lower"},
	// internal/core normal processing.
	{name: "core.update_us", unit: "us", better: "lower"},
	{name: "core.commit_us", unit: "us", better: "lower"},
	{name: "core.delegate_us", unit: "us", better: "lower"},
	{name: "core.delegations_per_txn", unit: "count", better: "lower"},
	{name: "core.clrs_per_abort", unit: "count", better: "lower"},
	{name: "undo.visited_per_abort", unit: "count", better: "lower"},
	// internal/wal.
	{name: "wal.appends_per_txn", unit: "count", better: "lower"},
	{name: "wal.bytes_per_txn", unit: "B", better: "lower"},
	{name: "wal.flushes_per_txn", unit: "count", better: "lower"},
	{name: "wal.waiters_per_flush", unit: "count", better: "higher"},
	{name: "wal.flush_us", unit: "us", better: "lower"},
	{name: "wal.flush_p99_us", unit: "us", better: "lower"},
	{name: "wal.retained_records", unit: "count", better: "lower"},
	// Devices, through the traced wrappers.
	{name: "dev.log_syncs_per_txn", unit: "count", better: "lower"},
	{name: "dev.log_sync_us", unit: "us", better: "lower"},
	{name: "dev.log_sync_p99_us", unit: "us", better: "lower"},
	{name: "dev.log_write_bytes_per_txn", unit: "B", better: "lower"},
	{name: "dev.page_reads_per_txn", unit: "count", better: "lower"},
	{name: "dev.page_read_us", unit: "us", better: "lower"},
	{name: "dev.page_writes_per_txn", unit: "count", better: "lower"},
	{name: "dev.page_write_us", unit: "us", better: "lower"},
	// internal/buffer and internal/object.
	{name: "buffer.hit_ratio", unit: "ratio", better: "higher"},
	{name: "buffer.evictions_per_txn", unit: "count", better: "lower"},
	{name: "buffer.wal_forces_per_txn", unit: "count", better: "lower"},
	// Recovery: the sequential schedule's trace, then the pipeline's.
	{name: "recovery.forward_ms", unit: "ms", better: "lower"},
	{name: "recovery.backward_ms", unit: "ms", better: "lower"},
	{name: "recovery.ns_per_record", unit: "ns", better: "lower"},
	{name: "recovery.forward_records", unit: "count", better: "lower"},
	{name: "recovery.redone", unit: "count", better: "lower"},
	{name: "recovery.losers", unit: "count", better: "lower"},
	{name: "undo.visited", unit: "count", better: "lower"},
	{name: "undo.skipped", unit: "count", better: "lower"},
	{name: "undo.clusters", unit: "count", better: "lower"},
	{name: "pipeline.scan_ms", unit: "ms", better: "lower"},
	{name: "pipeline.analysis_ms", unit: "ms", better: "lower"},
	{name: "pipeline.redo_ms", unit: "ms", better: "lower"},
	{name: "pipeline.undo_ms", unit: "ms", better: "lower"},
	{name: "pipeline.on_demand_reads", unit: "count", better: "lower"},
	// Log memory.
	{name: "heap.bytes_per_retained_record", unit: "B", better: "lower"},
	// internal/shard.
	{name: "router.cross_share", unit: "ratio", better: "lower"},
	{name: "router.cross_commit_us", unit: "us", better: "lower"},
	{name: "twopc.prepare_us", unit: "us", better: "lower"},
	{name: "twopc.flushes_per_xshard_commit", unit: "count", better: "lower"},
	{name: "router.cross_delegations", unit: "count", better: "lower"},
	{name: "router.commits_indoubt", unit: "count", better: "lower"},
	// The bench process's Go runtime.
	{name: "go.allocs_per_txn", unit: "count", better: "lower"},
	{name: "go.alloc_bytes_per_txn", unit: "B", better: "lower"},
	{name: "go.gc_cpu_frac", unit: "ratio", better: "lower"},
	// The same load on a file-backed database (fileProbe workloads).
	{name: "file.setup_s", unit: "s", better: "lower"},
	{name: "file.txn_p50_us", unit: "us", better: "lower"},
	{name: "file.read_p50_us", unit: "us", better: "lower"},
	{name: "file.commits_per_s", unit: "1/s", better: "higher"},
	{name: "file.log_syncs_per_txn", unit: "count", better: "lower"},
	{name: "file.log_sync_us", unit: "us", better: "lower"},
	{name: "file.log_sync_p99_us", unit: "us", better: "lower"},
	{name: "file.page_write_us", unit: "us", better: "lower"},
	// The file-backed load's open-loop generator, and the host.
	{name: "gen.lag_p99_us", unit: "us", better: "lower"},
	{name: "gen.backlog_max", unit: "count", better: "lower"},
	{name: "host.steal_frac", unit: "ratio", better: "lower"},
}

// quantile returns the q-quantile of xs (nanoseconds), interpolating
// between ranks; 0 when xs is empty.
func quantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return float64(s[lo]) + (pos-float64(lo))*float64(s[hi]-s[lo])
}

func mean(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += float64(x)
	}
	return sum / float64(len(xs))
}

func medianDur(ds []time.Duration) time.Duration {
	xs := make([]int64, len(ds))
	for i, d := range ds {
		xs[i] = int64(d)
	}
	return time.Duration(quantile(xs, 0.5))
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// agg sums measurements over a set of phases.
type agg struct {
	s       stats
	met     obs.Snapshot // summed deltas
	elapsed time.Duration
	cpu     time.Duration
	steal   float64
	stealOf float64
	mallocs uint64
	alloc   uint64
	gcCPU   float64
	allCPU  float64
	dev     devSnap
	retain  uint64
}

func aggregate(ps []phase) agg {
	var a agg
	a.met = obs.Snapshot{Counters: map[string]uint64{}, Gauges: map[string]int64{}, Histograms: map[string]obs.HistogramSnapshot{}}
	for i := range ps {
		p := &ps[i]
		a.s.merge(&p.s)
		d := p.delta()
		for k, v := range d.Counters {
			a.met.Counters[k] += v
		}
		for k, v := range d.Histograms {
			a.met.Histograms[k] = a.met.Histograms[k].Merge(v)
		}
		a.elapsed += p.to.at.Sub(p.from.at)
		a.cpu += p.to.cpu - p.from.cpu
		a.steal += p.to.steal - p.from.steal
		a.stealOf += p.to.stealOf - p.from.stealOf
		a.mallocs += p.to.mallocs - p.from.mallocs
		a.alloc += p.to.alloc - p.from.alloc
		a.gcCPU += p.to.gcCPU - p.from.gcCPU
		a.allCPU += p.to.allCPU - p.from.allCPU
		dv := p.to.dev.sub(p.from.dev)
		a.dev.logSyncs = a.dev.logSyncs.Merge(dv.logSyncs)
		a.dev.pageReads = a.dev.pageReads.Merge(dv.pageReads)
		a.dev.pageWrites = a.dev.pageWrites.Merge(dv.pageWrites)
		a.dev.logWriteBytes += dv.logWriteBytes
		for k := range a.dev.maint {
			a.dev.maint[k] = a.dev.maint[k].Merge(dv.maint[k])
		}
		a.retain = max(a.retain, p.retained)
	}
	return a
}

func histMeanUs(h obs.HistogramSnapshot) float64 { return float64(h.Mean()) / 1e3 }

// layerMetrics computes the per-layer metrics of a traced set of
// phases.
func layerMetrics(a agg) map[string]float64 {
	txns := float64(a.s.txns)
	c := func(name string) float64 { return float64(a.met.Counters[name]) }
	h := func(name string) obs.HistogramSnapshot { return a.met.Histograms[name] }
	perTxn := func(v float64) float64 { return ratio(v, txns) }
	out := map[string]float64{
		"commits_per_s":           ratio(float64(a.s.commits), a.elapsed.Seconds()),
		"txn_p99_us":              quantile(a.s.txnLat, 0.99) / 1e3,
		"read_p99_us":             quantile(a.s.readLat, 0.99) / 1e3,
		"txn.single_shard_p50_us": quantile(a.s.singleLat, 0.5) / 1e3,
		"trace.txn_p50_us":        quantile(a.s.txnLat, 0.5) / 1e3,
		"trace.api_cover_frac":    ratio(float64(a.s.apiNs), float64(a.s.txnNs)),

		"lock.acquires_per_txn":  perTxn(c("lock.acquires")),
		"lock.waits_per_txn":     perTxn(c("lock.waits")),
		"lock.wait_us_per_txn":   perTxn(float64(h("lock.wait_ns").Sum) / 1e3),
		"lock.transfers_per_txn": perTxn(c("lock.transfers")),

		"core.update_us":           histMeanUs(h("core.update_ns")),
		"core.commit_us":           histMeanUs(h("core.commit_ns")),
		"core.delegate_us":         histMeanUs(h("core.delegate_ns")),
		"core.delegations_per_txn": perTxn(c("core.delegations")),
		"core.clrs_per_abort":      ratio(c("core.clrs"), c("core.aborts")),
		"undo.visited_per_abort":   ratio(c("undo.visited"), c("core.aborts")),

		"wal.appends_per_txn":   perTxn(c("wal.appends")),
		"wal.bytes_per_txn":     perTxn(c("wal.flushed_bytes")),
		"wal.flushes_per_txn":   perTxn(c("wal.flushes")),
		"wal.waiters_per_flush": ratio(c("wal.flush_waiters"), c("wal.flushes")),
		"wal.flush_us":          histMeanUs(h("wal.flush_ns")),
		"wal.flush_p99_us":      float64(h("wal.flush_ns").Quantile(0.99)) / 1e3,
		"wal.retained_records":  float64(a.retain),

		"dev.log_syncs_per_txn":       perTxn(float64(a.dev.logSyncs.Count)),
		"dev.log_sync_us":             histMeanUs(a.dev.logSyncs),
		"dev.log_sync_p99_us":         float64(a.dev.logSyncs.Quantile(0.99)) / 1e3,
		"dev.log_write_bytes_per_txn": perTxn(float64(a.dev.logWriteBytes)),
		"dev.page_reads_per_txn":      perTxn(float64(a.dev.pageReads.Count)),
		"dev.page_read_us":            histMeanUs(a.dev.pageReads),
		"dev.page_writes_per_txn":     perTxn(float64(a.dev.pageWrites.Count)),
		"dev.page_write_us":           histMeanUs(a.dev.pageWrites),

		"buffer.hit_ratio":          ratio(c("buffer.hits"), c("buffer.hits")+c("buffer.misses")),
		"buffer.evictions_per_txn":  perTxn(c("buffer.evictions")),
		"buffer.wal_forces_per_txn": perTxn(c("buffer.wal_forces")),

		"router.cross_share":              ratio(c("router.cross_shard_commits"), c("router.cross_shard_commits")+c("router.single_shard_commits")),
		"router.cross_commit_us":          histMeanUs(h("router.cross_commit_ns")),
		"twopc.prepare_us":                histMeanUs(h("twopc.prepare_ns")),
		"twopc.flushes_per_xshard_commit": ratio(c("wal.flushes"), c("router.cross_shard_commits")),
		"router.cross_delegations":        c("router.cross_delegations"),
		"router.commits_indoubt":          c("router.commits_indoubt"),

		"go.allocs_per_txn":      perTxn(float64(a.mallocs)),
		"go.alloc_bytes_per_txn": perTxn(float64(a.alloc)),
		"go.gc_cpu_frac":         ratio(a.gcCPU, a.allCPU),

		"host.steal_frac": ratio(a.steal, a.stealOf),
	}
	for k := 0; k < numTxnSpans; k++ {
		out["api."+spanNames[k]+"_us"] = mean(a.s.spans[k]) / 1e3
		out["api."+spanNames[k]+"_p99_us"] = quantile(a.s.spans[k], 0.99) / 1e3
	}
	for k := numTxnSpans; k < numSpans; k++ {
		out["api."+spanNames[k]+"_ms"] = histMeanUs(a.dev.maint[k]) / 1e3
	}
	return out
}

// recoveryMetrics reports the restart cycles' recovery traces: medians
// of durations, the last cycle's counts.
func recoveryMetrics(cs []cycleResult) map[string]float64 {
	var fwd, bwd, nsRec, scan, analysis, redo, undo []time.Duration
	var bytesPer []int64
	for _, c := range cs {
		fwd = append(fwd, c.seqTr.ForwardDur)
		bwd = append(bwd, c.seqTr.BackwardDur)
		if c.seqTr.ForwardRecords > 0 {
			nsRec = append(nsRec, c.seqTr.TotalDur/time.Duration(c.seqTr.ForwardRecords))
		}
		if c.retainedPeak > c.retainedBase && c.heapPeak > c.heapBase {
			bytesPer = append(bytesPer, int64((c.heapPeak-c.heapBase)/(c.retainedPeak-c.retainedBase)))
		}
		stage := map[string]time.Duration{}
		for _, s := range c.parTr.Stages {
			stage[s.Name] = s.Dur
		}
		scan = append(scan, stage["scan"])
		analysis = append(analysis, stage["analysis"])
		redo = append(redo, stage["redo"])
		undo = append(undo, stage["undo"])
	}
	ms := func(ds []time.Duration) float64 { return float64(medianDur(ds)) / 1e6 }
	last := cs[len(cs)-1]
	return map[string]float64{
		"recovery.forward_ms":            ms(fwd),
		"recovery.backward_ms":           ms(bwd),
		"recovery.ns_per_record":         float64(medianDur(nsRec)),
		"recovery.forward_records":       float64(last.seqTr.ForwardRecords),
		"recovery.redone":                float64(last.seqTr.Redone),
		"recovery.losers":                float64(last.seqTr.Losers),
		"undo.visited":                   float64(last.seqTr.BackwardVisited),
		"undo.skipped":                   float64(last.seqTr.BackwardSkipped),
		"undo.clusters":                  float64(last.seqTr.Clusters),
		"pipeline.scan_ms":               ms(scan),
		"pipeline.analysis_ms":           ms(analysis),
		"pipeline.redo_ms":               ms(redo),
		"pipeline.undo_ms":               ms(undo),
		"pipeline.on_demand_reads":       float64(last.parTr.OnDemandReads),
		"heap.bytes_per_retained_record": quantile(bytesPer, 0.5),
	}
}
