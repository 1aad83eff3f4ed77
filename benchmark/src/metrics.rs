//! The names every later change refers to: the four workloads, the
//! end-to-end metrics with their bounds, and the per-layer metrics.
//! `BENCHMARK.json` at the repo root states the same tables; a unit
//! test keeps the two in step.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// How much worse `new` is than `old`, as a share of `old`
    /// (negative when it improved).
    pub fn worsening(self, old: f64, new: f64) -> f64 {
        if old == 0.0 {
            return 0.0;
        }
        match self {
            Better::Lower => (new - old) / old.abs(),
            Better::Higher => (old - new) / old.abs(),
        }
    }
}

/// One end-to-end metric: what a user of the system sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

/// The workloads, in the order the suite runs them.
pub const WORKLOADS: [&str; 4] = [
    "serve_hot",
    "serve_mixed",
    "analyst_session",
    "clean_update",
];

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "p95_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "store_bytes_per_row",
        unit: "B/row",
        better: Better::Lower,
        bound: 0.02,
    },
];

/// One per-layer metric: `(name, unit, better)`. The README says which
/// end-to-end metric on which workload each one should move.
pub type PerLayer = (&'static str, &'static str, Better);

use Better::{Higher, Lower};

pub const PER_LAYER: &[PerLayer] = &[
    // Demoted end-to-end candidates (zero or absent on some workload).
    ("failed_share", "ratio", Lower),
    ("io_milli_per_op", "milli/op", Lower),
    ("commit_p50_us", "us", Lower),
    ("commit_p95_us", "us", Lower),
    // sdbms-serve
    ("serve.hit_call_us", "us", Lower),
    ("serve.miss_call_us", "us", Lower),
    ("serve.overhead_us", "us", Lower),
    ("serve.scale_2v1", "ratio", Higher),
    ("serve.front_hit_share", "ratio", Higher),
    ("serve.front_evictions_per_kop", "1/kop", Lower),
    ("serve.commit_call_us", "us", Lower),
    ("serve.reader_stall_us", "us", Lower),
    ("serve.rejected_share.overload", "ratio", Lower),
    ("serve.rejected_share.quota", "ratio", Lower),
    ("serve.rejected_share.shed", "ratio", Lower),
    ("serve.rejected_share.budget", "ratio", Lower),
    ("serve.request_p99_us", "us", Lower),
    ("serve.request_p999_us", "us", Lower),
    ("serve.session_open_us", "us", Lower),
    // sdbms-core
    ("core.load_raw_s", "s", Lower),
    ("core.materialize_s", "s", Lower),
    ("core.warm_summaries_s", "s", Lower),
    ("core.snapshot_us", "us", Lower),
    ("core.compute_hit_us", "us", Lower),
    ("core.compute_miss_us", "us", Lower),
    ("core.update_narrow_us", "us", Lower),
    ("core.commit_batch_us", "us", Lower),
    ("core.update_broad_us", "us", Lower),
    ("core.rollback_us", "us", Lower),
    ("core.recover_s", "s", Lower),
    // sdbms-summary
    ("summary.hit_share", "ratio", Higher),
    ("summary.lookup_us", "us", Lower),
    ("summary.incremental_share", "ratio", Higher),
    ("summary.recomputes_per_commit", "1/commit", Lower),
    ("summary.invalidations_per_commit", "1/commit", Lower),
    ("summary.post_commit_read_us", "us", Lower),
    // sdbms-management / sdbms-txn
    ("management.checkpoint_us", "us", Lower),
    ("txn.pinned_snapshots_max", "count", Lower),
    ("txn.epoch_lag_max", "count", Lower),
    // sdbms-exec
    ("exec.profile_column_us.rle", "us", Lower),
    ("exec.profile_column_us.raw", "us", Lower),
    ("exec.profile_column_us.lowcard", "us", Lower),
    ("exec.read_column_us", "us", Lower),
    ("exec.scale_w2v1.profile", "ratio", Higher),
    ("exec.scale_w2v1.filter", "ratio", Higher),
    // sdbms-relational
    ("relational.filter_us.sel0", "us", Lower),
    ("relational.filter_us.sel1", "us", Lower),
    ("relational.filter_us.sel10", "us", Lower),
    ("relational.filter_us.sel50", "us", Lower),
    ("relational.filter_us.sel100", "us", Lower),
    ("relational.pruned_morsel_share", "ratio", Higher),
    // sdbms-columnar
    ("columnar.read_column_us", "us", Lower),
    ("columnar.read_batch_us", "us", Lower),
    ("columnar.decode_ns_per_row.rle", "ns/row", Lower),
    ("columnar.decode_ns_per_row.raw", "ns/row", Lower),
    ("columnar.decode_ns_per_row.dict", "ns/row", Lower),
    ("columnar.read_row_us", "us", Lower),
    ("columnar.set_cell_us", "us", Lower),
    ("columnar.boxed_clone_us", "us", Lower),
    ("columnar.segment_bytes_per_row.person_id", "B/row", Lower),
    ("columnar.segment_bytes_per_row.sex", "B/row", Lower),
    ("columnar.segment_bytes_per_row.race", "B/row", Lower),
    ("columnar.segment_bytes_per_row.region", "B/row", Lower),
    ("columnar.segment_bytes_per_row.age", "B/row", Lower),
    ("columnar.segment_bytes_per_row.age_group", "B/row", Lower),
    ("columnar.segment_bytes_per_row.income", "B/row", Lower),
    (
        "columnar.segment_bytes_per_row.hours_worked",
        "B/row",
        Lower,
    ),
    // sdbms-stats
    ("stats.compute_us.mean", "us", Lower),
    ("stats.compute_us.median", "us", Lower),
    ("stats.compute_us.quartiles", "us", Lower),
    ("stats.compute_us.histogram", "us", Lower),
    ("stats.compute_us.mode", "us", Lower),
    // sdbms-storage
    ("storage.page_reads_per_op", "1/op", Lower),
    ("storage.page_writes_per_op", "1/op", Lower),
    ("storage.seeks_per_op", "1/op", Lower),
    ("storage.pool_hit_share", "ratio", Higher),
    ("storage.fetch_hit_ns", "ns", Lower),
    ("storage.fetch_miss_ns", "ns", Lower),
    ("storage.page_writes_per_commit", "1/commit", Lower),
    ("storage.allocated_pages", "pages", Lower),
    ("storage.retries", "count", Lower),
    // Traced pass: self time per layer on the sampled requests.
    ("trace.self_us.serve", "us", Lower),
    ("trace.self_us.core", "us", Lower),
    ("trace.self_us.summary", "us", Lower),
    ("trace.self_us.exec", "us", Lower),
    ("trace.self_us.relational", "us", Lower),
    ("trace.self_us.columnar", "us", Lower),
    ("trace.self_us.stats", "us", Lower),
    ("trace.replay_cover_share", "ratio", Higher),
    ("trace.sampled_requests", "count", Higher),
    // Harness
    ("bench.trace_overhead_share", "ratio", Lower),
    ("bench.rep_iqr_share.setup_s", "ratio", Lower),
    ("bench.rep_iqr_share.ops_per_s", "ratio", Lower),
    ("bench.rep_iqr_share.p50_us", "ratio", Lower),
    ("bench.rep_iqr_share.p95_us", "ratio", Lower),
    ("bench.windows", "count", Higher),
    ("bench.writes", "count", Higher),
    ("data.generate_s", "s", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for w in WORKLOADS {
            assert!(valid_name(w) && seen.insert(w), "{w}");
        }
        for m in END_TO_END {
            assert!(
                valid_name(m.name) && valid_unit(m.unit) && seen.insert(m.name),
                "{}",
                m.name
            );
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        for (name, unit, _) in PER_LAYER {
            assert!(
                valid_name(name) && valid_unit(unit) && seen.insert(name),
                "{name}"
            );
        }
        assert!(PER_LAYER.len() <= 128);
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn benchmark_json_states_the_same_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS);
        let e2e = doc.get("end_to_end").and_then(Json::as_arr).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(END_TO_END) {
            assert_eq!(j.get("name").and_then(Json::as_str), Some(m.name));
            assert_eq!(j.get("unit").and_then(Json::as_str), Some(m.unit));
            assert_eq!(
                j.get("better").and_then(Json::as_str),
                Some(m.better.as_str())
            );
            assert_eq!(j.get("bound").and_then(Json::as_f64), Some(m.bound));
        }
        let layers = doc.get("per_layer").and_then(Json::as_arr).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, (name, unit, better)) in layers.iter().zip(PER_LAYER) {
            assert_eq!(j.get("name").and_then(Json::as_str), Some(*name));
            assert_eq!(j.get("unit").and_then(Json::as_str), Some(*unit));
            assert_eq!(
                j.get("better").and_then(Json::as_str),
                Some(better.as_str())
            );
        }
    }

    #[test]
    fn worsening_follows_direction() {
        assert!((Better::Lower.worsening(100.0, 112.0) - 0.12).abs() < 1e-12);
        assert!((Better::Higher.worsening(100.0, 88.0) - 0.12).abs() < 1e-12);
        assert!(Better::Higher.worsening(100.0, 120.0) < 0.0);
    }
}
