//! Service metrics: lock-free counters plus a log-scale latency histogram,
//! snapshotable as a plain struct and dumpable over the wire (`STATS`).

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of power-of-two latency buckets: bucket `i` counts queries whose
/// latency in microseconds satisfies `2^i ≤ µs+1 < 2^(i+1)` (bucket 0 is
/// sub-microsecond). 40 buckets cover ~13 days.
const BUCKETS: usize = 40;

/// Number of hypertree-width buckets: bucket `i` counts queries evaluated
/// by the hypertree engine with decomposition width `i + 1`; the last bucket
/// collects widths ≥ [`WIDTH_BUCKETS`].
pub const WIDTH_BUCKETS: usize = 8;

/// A histogram of query latencies with power-of-two microsecond buckets.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl LatencyHistogram {
    fn bucket_for(latency: Duration) -> usize {
        let micros = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
        ((64 - (micros + 1).leading_zeros() - 1) as usize).min(BUCKETS - 1)
    }

    /// Record one observation.
    pub fn record(&self, latency: Duration) {
        self.buckets[Self::bucket_for(latency)].fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot the bucket counts.
    pub fn snapshot(&self) -> [u64; BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }
}

/// The upper bound (in µs) of bucket `i`, used to report percentiles.
fn bucket_upper_micros(i: usize) -> u64 {
    (1u64 << (i + 1)).saturating_sub(1)
}

/// Percentile from a bucket snapshot: the upper bound of the bucket holding
/// the `p`-quantile observation (0 when empty). Coarse by design — within a
/// factor of 2, which is what a power-of-two histogram can promise.
#[allow(
    clippy::cast_precision_loss,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss
)]
fn percentile(buckets: &[u64; BUCKETS], p: f64) -> u64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0;
    }
    let rank = ((total as f64) * p).ceil().max(1.0) as u64;
    let mut seen = 0;
    for (i, &c) in buckets.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return bucket_upper_micros(i);
        }
    }
    bucket_upper_micros(BUCKETS - 1)
}

/// Live counters for one service (all relaxed atomics; approximate
/// cross-counter consistency is fine for monitoring).
#[derive(Debug, Default)]
pub struct ServiceMetrics {
    /// Queries answered successfully (from any cache level or evaluation).
    pub queries_served: AtomicU64,
    /// Evaluations admitted by the gate: into a slot, or into the waiting
    /// set (counted before they wait).
    pub jobs_admitted: AtomicU64,
    /// Requests rejected by admission control (`Overloaded`).
    pub rejected_overload: AtomicU64,
    /// Evaluations that tripped a per-request resource limit.
    pub resource_exhausted: AtomicU64,
    /// Other evaluation/parse failures.
    pub errors: AtomicU64,
    /// Plan-cache hits / misses.
    pub plan_hits: AtomicU64,
    /// Plan-cache misses.
    pub plan_misses: AtomicU64,
    /// Result-cache hits.
    pub result_hits: AtomicU64,
    /// Result-cache misses.
    pub result_misses: AtomicU64,
    /// Databases loaded or reloaded.
    pub loads: AtomicU64,
    /// In-place database mutations.
    pub mutations: AtomicU64,
    /// Databases dropped from the catalog (`DROP`).
    pub drops: AtomicU64,
    /// Evaluations that took the intra-query parallel path.
    pub parallel_queries: AtomicU64,
    /// `@count` / `@count_by` requests answered successfully (also counted
    /// in [`ServiceMetrics::queries_served`]).
    pub count_queries: AtomicU64,
    /// Evaluations routed to the hypertree engine (cyclic queries of
    /// bounded width).
    pub hypertree_queries: AtomicU64,
    /// Per-width counts of hypertree evaluations: bucket `i` is width
    /// `i + 1`, last bucket is widths ≥ [`WIDTH_BUCKETS`].
    pub hypertree_width_counts: [AtomicU64; WIDTH_BUCKETS],
    /// Materialized views currently registered (a gauge: registration
    /// increments, deregistration/drop decrements).
    pub views_registered: AtomicU64,
    /// Live `SUBSCRIBE` streams (a gauge).
    pub subscriptions_active: AtomicU64,
    /// Delta frames pushed to subscribers (service lifetime).
    pub deltas_pushed: AtomicU64,
    /// Maintenance passes where a view's delta plan exhausted its budget
    /// (or otherwise failed) and fell back to a full recompute.
    pub ivm_maintain_fallbacks: AtomicU64,
    /// Queries answered by scanning/projecting a registered view's
    /// maintained relation instead of evaluating (`PQA801`/`PQA802`
    /// matches at query time).
    pub view_answered_queries: AtomicU64,
    /// Result-cache hits served under a semantic (equivalence-class core)
    /// key that differs from the query's literal canonical form — sharing
    /// only the `PQA803` re-keying makes possible.
    pub semantic_cache_hits: AtomicU64,
    /// End-to-end query latencies (successful queries only).
    pub latency: LatencyHistogram,
    /// End-to-end `@count` request latencies (successful only; these
    /// observations also land in [`ServiceMetrics::latency`]).
    pub count_latency: LatencyHistogram,
    /// Incremental-maintenance pass latencies (one observation per mutation
    /// batch that touched at least one view).
    pub ivm_maintain: LatencyHistogram,
}

impl ServiceMetrics {
    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Decrement a gauge, saturating at zero (a mispaired decrement must
    /// not wrap a monitoring counter to 2^64).
    pub(crate) fn dec(counter: &AtomicU64) {
        let _ = counter.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1));
    }

    /// Record one hypertree-engine evaluation of the given decomposition
    /// width (widths start at 1; 0 is clamped into the first bucket).
    pub(crate) fn record_hypertree_width(&self, width: usize) {
        Self::bump(&self.hypertree_queries);
        let i = width.clamp(1, WIDTH_BUCKETS) - 1;
        self.hypertree_width_counts[i].fetch_add(1, Ordering::Relaxed);
    }

    /// Take a point-in-time snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let buckets = self.latency.snapshot();
        let count_buckets = self.count_latency.snapshot();
        let ivm_buckets = self.ivm_maintain.snapshot();
        MetricsSnapshot {
            queries_served: self.queries_served.load(Ordering::Relaxed),
            jobs_admitted: self.jobs_admitted.load(Ordering::Relaxed),
            rejected_overload: self.rejected_overload.load(Ordering::Relaxed),
            resource_exhausted: self.resource_exhausted.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            plan_hits: self.plan_hits.load(Ordering::Relaxed),
            plan_misses: self.plan_misses.load(Ordering::Relaxed),
            result_hits: self.result_hits.load(Ordering::Relaxed),
            result_misses: self.result_misses.load(Ordering::Relaxed),
            loads: self.loads.load(Ordering::Relaxed),
            mutations: self.mutations.load(Ordering::Relaxed),
            drops: self.drops.load(Ordering::Relaxed),
            parallel_queries: self.parallel_queries.load(Ordering::Relaxed),
            count_queries: self.count_queries.load(Ordering::Relaxed),
            hypertree_queries: self.hypertree_queries.load(Ordering::Relaxed),
            hypertree_width_counts: std::array::from_fn(|i| {
                self.hypertree_width_counts[i].load(Ordering::Relaxed)
            }),
            views_registered: self.views_registered.load(Ordering::Relaxed),
            subscriptions_active: self.subscriptions_active.load(Ordering::Relaxed),
            deltas_pushed: self.deltas_pushed.load(Ordering::Relaxed),
            ivm_maintain_fallbacks: self.ivm_maintain_fallbacks.load(Ordering::Relaxed),
            view_answered_queries: self.view_answered_queries.load(Ordering::Relaxed),
            semantic_cache_hits: self.semantic_cache_hits.load(Ordering::Relaxed),
            exec_threads: 0,
            exec_tasks_run: 0,
            exec_peak_active: 0,
            wal_appends: 0,
            wal_bytes: 0,
            snapshots_taken: 0,
            recovery_replayed_records: 0,
            last_recovery_ms: 0,
            latency_p50_micros: percentile(&buckets, 0.50),
            latency_p99_micros: percentile(&buckets, 0.99),
            count_latency_p50_micros: percentile(&count_buckets, 0.50),
            count_latency_p99_micros: percentile(&count_buckets, 0.99),
            ivm_maintain_p50_micros: percentile(&ivm_buckets, 0.50),
            ivm_maintain_p99_micros: percentile(&ivm_buckets, 0.99),
        }
    }
}

/// A plain-struct snapshot of [`ServiceMetrics`] — what `STATS` dumps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct MetricsSnapshot {
    /// Queries answered successfully.
    pub queries_served: u64,
    /// Evaluations admitted by the gate: into a slot, or into the waiting
    /// set (counted before they wait).
    pub jobs_admitted: u64,
    /// Requests rejected by admission control.
    pub rejected_overload: u64,
    /// Evaluations that tripped a per-request resource limit.
    pub resource_exhausted: u64,
    /// Other evaluation/parse failures.
    pub errors: u64,
    /// Plan-cache hits.
    pub plan_hits: u64,
    /// Plan-cache misses.
    pub plan_misses: u64,
    /// Result-cache hits.
    pub result_hits: u64,
    /// Result-cache misses.
    pub result_misses: u64,
    /// Databases loaded or reloaded.
    pub loads: u64,
    /// In-place database mutations.
    pub mutations: u64,
    /// Databases dropped from the catalog.
    pub drops: u64,
    /// Evaluations that took the intra-query parallel path.
    pub parallel_queries: u64,
    /// `@count` / `@count_by` requests answered successfully.
    pub count_queries: u64,
    /// Evaluations routed to the hypertree engine.
    pub hypertree_queries: u64,
    /// Hypertree evaluations per decomposition width (bucket `i` is width
    /// `i + 1`; last bucket collects widths ≥ [`WIDTH_BUCKETS`]).
    pub hypertree_width_counts: [u64; WIDTH_BUCKETS],
    /// Materialized views currently registered.
    pub views_registered: u64,
    /// Live `SUBSCRIBE` streams.
    pub subscriptions_active: u64,
    /// Delta frames pushed to subscribers.
    pub deltas_pushed: u64,
    /// Maintenance passes that fell back to a full recompute.
    pub ivm_maintain_fallbacks: u64,
    /// Queries answered from a registered view's maintained relation.
    pub view_answered_queries: u64,
    /// Result-cache hits that only the semantic (equivalence-class core)
    /// re-keying made possible.
    pub semantic_cache_hits: u64,
    /// Intra-query exec-pool size (the `intra_query_threads` knob; filled
    /// in by [`crate::QueryService::stats`], 0 in a bare
    /// [`ServiceMetrics::snapshot`]).
    pub exec_threads: u64,
    /// Morsel/partition tasks the exec pool has run (service lifetime).
    pub exec_tasks_run: u64,
    /// Peak concurrently-active exec-pool workers observed.
    pub exec_peak_active: u64,
    /// WAL records appended (service lifetime; filled in by
    /// [`crate::QueryService::stats`] when durability is on, 0 otherwise).
    pub wal_appends: u64,
    /// Bytes appended to the WAL (service lifetime).
    pub wal_bytes: u64,
    /// Snapshots written (cadence-driven, `PERSIST`, and drain).
    pub snapshots_taken: u64,
    /// WAL records replayed by startup recovery.
    pub recovery_replayed_records: u64,
    /// Wall-clock time startup recovery took, in milliseconds.
    pub last_recovery_ms: u64,
    /// Median successful-query latency (µs, upper bucket bound).
    pub latency_p50_micros: u64,
    /// 99th-percentile successful-query latency (µs, upper bucket bound).
    pub latency_p99_micros: u64,
    /// Median successful `@count` request latency (µs, upper bucket bound).
    pub count_latency_p50_micros: u64,
    /// 99th-percentile successful `@count` request latency (µs).
    pub count_latency_p99_micros: u64,
    /// Median view-maintenance pass latency (µs, upper bucket bound).
    pub ivm_maintain_p50_micros: u64,
    /// 99th-percentile view-maintenance pass latency (µs).
    pub ivm_maintain_p99_micros: u64,
}

impl MetricsSnapshot {
    /// `key value` lines in a stable order (the wire `STATS` body).
    pub fn lines(&self) -> Vec<String> {
        vec![
            format!("queries_served {}", self.queries_served),
            format!("jobs_admitted {}", self.jobs_admitted),
            format!("rejected_overload {}", self.rejected_overload),
            format!("resource_exhausted {}", self.resource_exhausted),
            format!("errors {}", self.errors),
            format!("plan_hits {}", self.plan_hits),
            format!("plan_misses {}", self.plan_misses),
            format!("result_hits {}", self.result_hits),
            format!("result_misses {}", self.result_misses),
            format!("loads {}", self.loads),
            format!("mutations {}", self.mutations),
            format!("drops {}", self.drops),
            format!("parallel_queries {}", self.parallel_queries),
            format!("count_queries {}", self.count_queries),
            format!("hypertree_queries {}", self.hypertree_queries),
            format!(
                "hypertree_width_hist {}",
                self.hypertree_width_counts
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(" ")
            ),
            format!("views_registered {}", self.views_registered),
            format!("subscriptions_active {}", self.subscriptions_active),
            format!("deltas_pushed {}", self.deltas_pushed),
            format!("ivm_maintain_fallbacks {}", self.ivm_maintain_fallbacks),
            format!("view_answered_queries {}", self.view_answered_queries),
            format!("semantic_cache_hits {}", self.semantic_cache_hits),
            format!("exec_threads {}", self.exec_threads),
            format!("exec_tasks_run {}", self.exec_tasks_run),
            format!("exec_peak_active {}", self.exec_peak_active),
            format!("wal_appends {}", self.wal_appends),
            format!("wal_bytes {}", self.wal_bytes),
            format!("snapshots_taken {}", self.snapshots_taken),
            format!(
                "recovery_replayed_records {}",
                self.recovery_replayed_records
            ),
            format!("last_recovery_ms {}", self.last_recovery_ms),
            format!("latency_p50_micros {}", self.latency_p50_micros),
            format!("latency_p99_micros {}", self.latency_p99_micros),
            format!("count_latency_p50_micros {}", self.count_latency_p50_micros),
            format!("count_latency_p99_micros {}", self.count_latency_p99_micros),
            format!("ivm_maintain_p50_micros {}", self.ivm_maintain_p50_micros),
            format!("ivm_maintain_p99_micros {}", self.ivm_maintain_p99_micros),
        ]
    }
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for line in self.lines() {
            writeln!(f, "{line}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2_micros() {
        assert_eq!(LatencyHistogram::bucket_for(Duration::from_micros(0)), 0);
        assert_eq!(LatencyHistogram::bucket_for(Duration::from_micros(1)), 1);
        assert_eq!(LatencyHistogram::bucket_for(Duration::from_micros(3)), 2);
        assert_eq!(LatencyHistogram::bucket_for(Duration::from_micros(1022)), 9);
        assert_eq!(
            LatencyHistogram::bucket_for(Duration::from_micros(1023)),
            10
        );
        assert_eq!(
            LatencyHistogram::bucket_for(Duration::from_secs(1_000_000)),
            BUCKETS - 1
        );
    }

    #[test]
    fn percentiles_track_the_distribution() {
        let h = LatencyHistogram::default();
        // 99 fast observations, one slow outlier.
        for _ in 0..99 {
            h.record(Duration::from_micros(10));
        }
        h.record(Duration::from_millis(100));
        let b = h.snapshot();
        let p50 = percentile(&b, 0.50);
        let p99 = percentile(&b, 0.99);
        assert!(p50 <= 15, "p50 {p50} should be in the fast bucket");
        assert!(p50 >= 10, "upper bucket bound is at least the observation");
        assert!(p99 <= 15, "99/100 observations are fast");
        assert!(percentile(&b, 1.0) >= 100_000);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = LatencyHistogram::default();
        assert_eq!(percentile(&h.snapshot(), 0.5), 0);
    }

    #[test]
    fn gauges_saturate_at_zero() {
        let m = ServiceMetrics::default();
        ServiceMetrics::bump(&m.subscriptions_active);
        ServiceMetrics::dec(&m.subscriptions_active);
        ServiceMetrics::dec(&m.subscriptions_active);
        assert_eq!(m.snapshot().subscriptions_active, 0);
    }

    #[test]
    fn maintenance_histogram_is_independent_of_query_latency() {
        let m = ServiceMetrics::default();
        m.latency.record(Duration::from_micros(10));
        m.ivm_maintain.record(Duration::from_millis(100));
        let s = m.snapshot();
        assert!(s.latency_p99_micros <= 15);
        assert!(s.ivm_maintain_p50_micros >= 100_000);
    }

    #[test]
    fn width_histogram_buckets_by_width() {
        let m = ServiceMetrics::default();
        m.record_hypertree_width(1);
        m.record_hypertree_width(2);
        m.record_hypertree_width(2);
        m.record_hypertree_width(3);
        m.record_hypertree_width(99); // clamps into the last bucket
        let s = m.snapshot();
        assert_eq!(s.hypertree_queries, 5);
        assert_eq!(s.hypertree_width_counts, [1, 2, 1, 0, 0, 0, 0, 1]);
        let text = s.to_string();
        assert!(text.contains("hypertree_queries 5"));
        assert!(text.contains("hypertree_width_hist 1 2 1 0 0 0 0 1"));
    }

    #[test]
    fn snapshot_is_plain_and_printable() {
        let m = ServiceMetrics::default();
        ServiceMetrics::bump(&m.queries_served);
        m.latency.record(Duration::from_micros(5));
        let s = m.snapshot();
        assert_eq!(s.queries_served, 1);
        let text = s.to_string();
        assert!(text.contains("queries_served 1"));
        assert_eq!(s.lines().len(), text.lines().count());
    }
}
