//! E9 — view materialization: re-extract from tape vs read the
//! materialized view.

use criterion::{criterion_group, criterion_main, Criterion};

use sdbms_bench::clean_micro;
use sdbms_columnar::{TableStore, TransposedFile};
use sdbms_data::{RawDatabase, Value};
use sdbms_stats::descriptive;
use sdbms_storage::{ArchiveStore, StorageEnv, Tracker};

fn bench(c: &mut Criterion) {
    let ds = clean_micro(10_000, 9);
    let tracker = Tracker::new();
    let archive = std::sync::Arc::new(ArchiveStore::new(tracker));
    let raw = RawDatabase::new(archive);
    raw.store(&ds).expect("store");

    let env = StorageEnv::new(128);
    let store = TransposedFile::from_dataset(env.pool.clone(), &ds).expect("build");

    let mut group = c.benchmark_group("e9_materialize");
    group.sample_size(10);
    group.bench_function("use_via_tape_extract", |b| {
        b.iter(|| {
            let extracted = raw
                .extract("census_microdata", Some(&["INCOME"]), None)
                .expect("extract");
            let (col, _) = extracted.column_f64("INCOME").expect("col");
            descriptive::mean(&col).expect("mean")
        })
    });
    group.bench_function("use_via_materialized_view", |b| {
        b.iter(|| {
            let col: Vec<f64> = store
                .read_column("INCOME")
                .expect("col")
                .iter()
                .filter_map(Value::as_f64)
                .collect();
            descriptive::mean(&col).expect("mean")
        })
    });
    group.bench_function("materialize_once", |b| {
        b.iter(|| {
            let env = StorageEnv::new(128);
            let extracted = raw
                .extract("census_microdata", None, None)
                .expect("extract");
            TransposedFile::from_dataset(env.pool, &extracted).expect("build")
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
