//! E2 — incremental aggregate maintenance vs eager recompute, by batch
//! size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use sdbms_data::Value;
use sdbms_exec::ColumnProfile;
use sdbms_storage::StorageEnv;
use sdbms_summary::{
    apply_updates, get_or_compute_resilient, AccuracyPolicy, MaintenancePolicy, StatFunction,
    SummaryDb, UpdateDelta,
};

const N: usize = 50_000;

fn seeded_db(base: &[Value]) -> SummaryDb {
    let env = StorageEnv::new(256);
    let db = SummaryDb::create(env.pool).expect("create");
    for f in [
        StatFunction::Count,
        StatFunction::Sum,
        StatFunction::Mean,
        StatFunction::Variance,
    ] {
        let mut source = |feeds| Ok(ColumnProfile::of(base, feeds));
        get_or_compute_resilient(&db, "X", &f, AccuracyPolicy::Exact, &mut source, None)
            .expect("seed");
    }
    db
}

fn bench(c: &mut Criterion) {
    let base: Vec<Value> = (0..N)
        .map(|i| Value::Int(((i * 31) % 9973) as i64))
        .collect();
    let mut group = c.benchmark_group("e2_incremental");
    group.sample_size(10);
    for batch in [1usize, 100, 10_000] {
        let deltas: Vec<UpdateDelta> = (0..batch)
            .map(|i| UpdateDelta {
                old: base[i].clone(),
                new: Value::Int(base[i].as_i64().unwrap() + 5),
            })
            .collect();
        let mut updated = base.clone();
        for (i, d) in deltas.iter().enumerate() {
            updated[i] = d.new.clone();
        }
        for (name, policy) in [
            ("incremental", MaintenancePolicy::Incremental),
            ("eager", MaintenancePolicy::EagerRecompute),
        ] {
            group.bench_with_input(BenchmarkId::new(name, batch), &batch, |b, _| {
                b.iter_batched(
                    || seeded_db(&base),
                    |db| {
                        let mut source = |feeds| Ok(ColumnProfile::of(&updated, feeds));
                        apply_updates(&db, "X", &deltas, policy, &mut source).expect("apply")
                    },
                    criterion::BatchSize::LargeInput,
                );
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
