//! The metric names the benchmark is a contract for — end to end and per
//! layer — plus the small statistics the reports need. (The workload names
//! are `stack::Workload`.)
//!
//! `BENCHMARK.json` at the repository root lists the same names; the
//! package's test fails if the two ever disagree.

/// One metric definition: `(name, unit, lower_is_better, bound)`.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    /// Share of the parent's median by which the metric may worsen before a
    /// change counts as a regression (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, lower: bool, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        lower_is_better: lower,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, lower: bool) -> MetricDef {
    MetricDef {
        name,
        unit,
        lower_is_better: lower,
        bound: 0.0,
    }
}

/// What a user of the server sees. Every one is printed on every workload.
/// No bound is wider than 15 %: a metric that does not repeat inside that
/// gets a longer run or a lower percentile. `err_coverage` is the same
/// number on every run of the same program (fixed rows, fixed probes), so
/// its bound is what accuracy a change may give away: 0.02 of `drift`'s 0.61.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", true, 0.15),
    e2e("qps", "1/s", false, 0.15),
    e2e("query_p50_ms", "ms", true, 0.15),
    e2e("query_p90_ms", "ms", true, 0.15),
    e2e("err_coverage", "ratio", false, 0.03),
    e2e("peak_rss_mb", "MB", true, 0.15),
];

/// Single-layer numbers from the traced run; module names are the layers.
pub const PER_LAYER: &[MetricDef] = &[
    layer("server.null_rtt_us", "us", true),
    layer("server.transport_self_us", "us", true),
    layer("server.service_self_us", "us", true),
    layer("server.proto.encode_us", "us", true),
    layer("server.proto.decode_us", "us", true),
    layer("server.proto.reply_bytes", "B", true),
    layer("server.admission_rejected", "count", true),
    layer("server.admission_peak_inflight", "count", true),
    layer("engine.sql.parse_us", "us", true),
    layer("engine.exact_plan_us", "us", true),
    layer("taster.plan_us", "us", true),
    layer("taster.self_us", "us", true),
    layer("taster.plan_share", "ratio", true),
    layer("taster.approx_ratio", "ratio", false),
    layer("taster.reuse_ratio", "ratio", false),
    layer("taster.synopsis_builds", "count", true),
    layer("taster.synopsis_refreshes", "count", true),
    layer("taster.builds_coalesced", "count", false),
    layer("taster.build_query_ms", "ms", true),
    layer("taster.store_bytes", "B", true),
    layer("taster.store_budget_ratio", "ratio", true),
    layer("taster.missed_groups", "count", true),
    layer("synopses.uniform_build_ms", "ms", true),
    layer("synopses.distinct_build_ms", "ms", true),
    layer("synopses.sketch_build_ms", "ms", true),
    layer("synopses.uniform_update_ms", "ms", true),
    layer("engine.exec_us", "us", true),
    layer("engine.exec_share", "ratio", true),
    layer("engine.base_rows_scanned", "rows/req", true),
    layer("engine.rows_per_s", "rows/s", false),
    layer("engine.partitions_pruned_ratio", "ratio", false),
    layer("engine.index_probe_us", "us", true),
    layer("engine.shared_scan_attach_ratio", "ratio", false),
    layer("engine.synopsis_rows_read", "rows/req", true),
    layer("engine.synopsis_rows_per_s", "rows/s", false),
    layer("storage.append_us_per_krow", "us/krow", true),
    layer("storage.wal_bytes_per_user_byte", "ratio", true),
    layer("storage.bytes_per_row", "B/row", true),
    layer("taster.delete_ms", "ms", true),
    layer("storage.compact_ms", "ms", true),
    layer("storage.compactions", "count", true),
    layer("storage.rows_rewritten", "rows", true),
    layer("storage.dead_row_ratio", "ratio", true),
    layer("taster.recover_ms", "ms", true),
    layer("loadgen.late_p95_ms", "ms", true),
    layer("baselines.exact_ms", "ms", true),
    layer("baselines.speedup", "ratio", false),
    layer("trace.overhead_ratio", "ratio", true),
    layer("trace.twin_divergence", "count", true),
    layer("trace.unattributed_ratio", "ratio", true),
];

/// Measured values by metric name, in insertion order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<(&'static str, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// Median of `values` (NaN for none). Sorts in place.
pub fn median(values: &mut [f64]) -> f64 {
    percentile(values, 0.5)
}

/// The `p`-quantile of `values` by the nearest-rank rule (NaN for none).
/// Sorts in place.
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let rank = (values.len() as f64 * p).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// First and third quartile the way Python's
/// `statistics.quantiles(values, n=4)` computes them (the "exclusive"
/// method), which is what the acceptance rule for this benchmark uses.
pub fn quartiles(values: &mut [f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    let at = |k: usize| {
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 - (j * 4) as f64;
        (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&mut v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        let mut v = vec![3.0, 1.0, 4.0, 1.0, 5.0];
        let (q1, q3) = quartiles(&mut v);
        assert!((q1 - 1.0).abs() < 1e-12 && (q3 - 4.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.95), 95.0);
        assert_eq!(median(&mut v), 50.0);
        assert!(median(&mut []).is_nan());
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(def.name), "duplicate metric {}", def.name);
            assert!(def.name.len() <= 64 && def.unit.len() <= 16);
        }
        for w in crate::stack::Workload::ALL {
            assert!(
                seen.insert(w.name()),
                "workload name {} collides with a metric",
                w.name()
            );
        }
    }
}
