//! Zone-map pruning on the scan hot path: the pruned predicate scan
//! (`filter_table_rows`) against the seed path (decode every referenced
//! column, evaluate every row), across a selectivity sweep and worker
//! counts. (Aggregation over RLE columns is measured by experiment
//! E15: the typed batch's run view is the only compressed-domain path.)
//!
//! The fixture is a clustered table — exactly the shape statistical
//! archives take after sorting by a stratification variable — so the
//! per-segment zone maps have narrow, refutable bounds. Both paths are
//! proven bit-identical in `tests/parallel_equivalence.rs`; this bench
//! measures only time. Acceptance: ≥5× on the ≤1%-selectivity scan at
//! 1 and 4 workers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use sdbms_columnar::{Compression, TableStore, TransposedFile};
use sdbms_data::dataset::DataSet;
use sdbms_data::schema::{Attribute, Schema};
use sdbms_data::{DataType, Value};
use sdbms_exec::{filter_indices, ExecConfig};
use sdbms_relational::{filter_table_rows, CmpOp, Expr, Predicate};
use sdbms_storage::StorageEnv;

/// 100 blocks of 2048 rows: each block spans eight 256-row segments,
/// so an equality predicate on the clustering column refutes 99% of
/// all zone maps.
const BLOCK_ROWS: i64 = 2_048;
const BLOCKS: i64 = 100;

fn clustered_store() -> TransposedFile {
    let schema = Schema::new(vec![
        Attribute::measured("BLOCK", DataType::Int),
        Attribute::measured("X", DataType::Int),
    ])
    .expect("schema");
    let rows: Vec<Vec<Value>> = (0..BLOCKS * BLOCK_ROWS)
        .map(|i| {
            vec![
                Value::Int(i / BLOCK_ROWS),
                Value::Int((i * 37) % 1_001 - 500),
            ]
        })
        .collect();
    let ds = DataSet::from_rows("clustered", schema.clone(), rows).expect("dataset");
    let env = StorageEnv::new(8_192);
    let mut store = TransposedFile::create_with(
        env.pool.clone(),
        schema,
        &[Compression::Rle, Compression::None],
    )
    .expect("create");
    store.bulk_append(&ds).expect("load");
    store
}

/// The seed scan path: decode every referenced column in full, then
/// evaluate the predicate row by row (morsel-parallel, unpruned).
fn naive_filter(store: &TransposedFile, pred: &Predicate, cfg: &ExecConfig) -> Vec<usize> {
    let schema = store.schema().clone();
    let ref_cols = pred.referenced_columns();
    let names: Vec<&str> = ref_cols.iter().map(String::as_str).collect();
    let proj = schema.project(&names).expect("project");
    let bound = pred.bind(&proj).expect("bind");
    let cols: Vec<Vec<Value>> = names
        .iter()
        .map(|c| store.read_column(c).expect("column"))
        .collect();
    filter_indices::<sdbms_data::DataError, _>(store.len(), cfg, |i| {
        let row: Vec<Value> = cols.iter().map(|c| c[i].clone()).collect();
        Ok(bound.eval(&row))
    })
    .expect("filter")
}

fn bench(c: &mut Criterion) {
    let store = clustered_store();

    let selectivities: Vec<(&str, Predicate)> = vec![
        ("sel_0pct", Predicate::col_eq("BLOCK", -1i64)),
        ("sel_1pct", Predicate::col_eq("BLOCK", 5i64)),
        (
            "sel_50pct",
            Predicate::cmp(Expr::col("BLOCK"), CmpOp::Lt, Expr::lit(BLOCKS / 2)),
        ),
        ("sel_100pct", Predicate::True),
    ];

    let mut group = c.benchmark_group("pruned_scan");
    group.sample_size(10);
    for workers in [1usize, 4] {
        let cfg = ExecConfig {
            workers,
            morsel_rows: 1_024,
        };
        for (label, pred) in &selectivities {
            group.bench_with_input(
                BenchmarkId::new(format!("naive/{label}"), workers),
                &workers,
                |b, _| b.iter(|| naive_filter(&store, pred, &cfg)),
            );
            group.bench_with_input(
                BenchmarkId::new(format!("pruned/{label}"), workers),
                &workers,
                |b, _| b.iter(|| filter_table_rows(&store, pred, &cfg).expect("scan")),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
