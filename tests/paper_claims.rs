//! The paper's counted claims, asserted.
//!
//! The paper argues its costs in I/O, and this implementation counts
//! I/O exactly on a simulated disk and tape, so each claim below is a
//! deterministic count with the *shape* the paper predicts: who wins
//! and by roughly what factor. Exact figures are printed, not pinned;
//! run with `-- --nocapture` to see the numbers EXPERIMENTS.md quotes.
//! Ids follow EXPERIMENTS.md (E3 lives in
//! `tests/maintenance_invariants.rs`, F1–F5 in `tests/paper_figures.rs`;
//! the wall-clock claims are benchmark metrics).

use std::sync::Arc;

use sdbms::columnar::{rle, RowStore, TableStore, TransposedFile, SEGMENT_ROWS};
use sdbms::core::{AccuracyPolicy, Expr, Predicate, StatDbms, StatFunction, ViewDefinition};
use sdbms::data::census::{aggregate_census, microdata_census, CensusConfig};
use sdbms::data::{DataSet, RawDatabase, Value};
use sdbms::exec::ExecConfig;
use sdbms::storage::{ArchiveStore, CostModel, IoSnapshot, StorageEnv, Tracker};
use sdbms::summary::{Entry, Freshness, SummaryDb, SummaryValue};

/// Clean census microdata (no planted errors).
fn clean_micro(rows: usize, seed: u64) -> DataSet {
    microdata_census(&CensusConfig {
        rows,
        seed,
        invalid_fraction: 0.0,
        outlier_fraction: 0.0,
        ..Default::default()
    })
    .expect("census")
}

/// A DBMS with `rows` of microdata materialised as transposed view `v`.
fn dbms_with_view(rows: usize) -> StatDbms {
    let mut dbms = StatDbms::new(1024);
    dbms.load_raw(&clean_micro(rows, 1982)).expect("load raw");
    dbms.materialize(ViewDefinition::scan("v", "census_microdata"), "analyst")
        .expect("materialize");
    dbms
}

/// Pages an operation touched, read from disk or hit in the pool.
fn touched(io: &IoSnapshot) -> u64 {
    io.page_reads + io.pool_hits
}

/// §2.6: a transposed file reads one column's pages for a column scan
/// but one page per column for a row fetch; a row store the reverse.
#[test]
fn e4_transposed_files_win_column_scans_and_lose_row_fetches() {
    for n in [2_000usize, 8_000] {
        let ds = clean_micro(n, 5);
        let width = ds.schema().len() as u64;
        let env_t = StorageEnv::new(8);
        let t = TransposedFile::from_dataset(env_t.pool.clone(), &ds).expect("transposed");
        let env_r = StorageEnv::new(8);
        let r = RowStore::from_dataset(env_r.pool.clone(), &ds).expect("row store");
        let reads = |env: &StorageEnv, op: &dyn Fn()| {
            env.tracker.reset();
            op();
            env.tracker.snapshot().page_reads
        };
        let t_col = reads(&env_t, &|| drop(t.read_column("INCOME").expect("col")));
        let r_col = reads(&env_r, &|| drop(r.read_column("INCOME").expect("col")));
        let t_row = reads(&env_t, &|| drop(t.read_row(n / 2).expect("row")));
        let r_row = reads(&env_r, &|| drop(r.read_row(n / 2).expect("row")));
        println!("E4 rows {n}: column scan {t_col} vs {r_col} pages, row fetch {t_row} vs {r_row}");
        assert!(
            r_col >= 3 * t_col,
            "{n} rows: transposed scan {t_col} pages vs row store {r_col}"
        );
        assert_eq!(t_row, width, "{n} rows: one page per column");
        assert_eq!(r_row, 1, "{n} rows: a row lives on one page");
    }
}

/// §2.6: run-length compression works down the category columns of a
/// cross-product-ordered table, not on its measures and not across
/// whole rows.
#[test]
fn e5_run_length_compression_works_down_columns_not_across_rows() {
    let ds = aggregate_census(&CensusConfig {
        regions: 64,
        ..Default::default()
    })
    .expect("aggregate census");
    let ratio = |attr: &str| {
        let col: Vec<Value> = ds.column(attr).expect("column").cloned().collect();
        let mut raw = Vec::new();
        for v in &col {
            v.encode(&mut raw);
        }
        raw.len() as f64 / rle::compress_values(&col).len() as f64
    };
    for attr in ["SEX", "RACE", "AGE_GROUP"] {
        let r = ratio(attr);
        println!("E5 {attr}: {r:.2}x");
        assert!(r >= 10.0, "{attr} compresses only {r:.2}x");
    }
    // REGION is the innermost key of the cross product: it changes on
    // every row, so like a measure it has no runs.
    for attr in ["REGION", "POPULATION", "AVE_SALARY"] {
        let r = ratio(attr);
        println!("E5 {attr}: {r:.2}x");
        assert!(r <= 1.0, "{attr} should not compress ({r:.2}x)");
    }
    // The rowwise counterfactual: byte runs over the row images, each
    // stored as a (length, byte) pair with runs capped at 255.
    let rows: Vec<u8> = ds
        .rows()
        .iter()
        .flat_map(|row| sdbms::data::encode_row(row))
        .collect();
    let runs: usize = rows
        .chunk_by(|a, b| a == b)
        .map(|r| r.len().div_ceil(255))
        .sum();
    let r = rows.len() as f64 / (2 * runs) as f64;
    println!("E5 entire rows: {r:.2}x");
    assert!(r < 1.0, "whole rows should not compress ({r:.2}x)");
}

/// §2.3: materialising a view costs more once, then amortises the
/// tape extraction; it is ahead by the third use (CostModel units).
#[test]
fn e9_a_materialised_view_pays_for_itself_by_the_third_use() {
    const USES: usize = 4;
    let ds = clean_micro(20_000, 9);
    let model = CostModel::default();

    let tracker = Tracker::new();
    let tape = RawDatabase::new(Arc::new(ArchiveStore::new(tracker.clone())));
    tape.store(&ds).expect("store");
    let re_extract: Vec<f64> = (0..USES)
        .map(|_| {
            tape.extract("census_microdata", None, None)
                .expect("extract");
            model.cost(&tracker.snapshot())
        })
        .collect();

    let env = StorageEnv::new(64);
    let raw = RawDatabase::new(env.archive.clone());
    raw.store(&ds).expect("store");
    let extracted = raw
        .extract("census_microdata", None, None)
        .expect("extract");
    let view = TransposedFile::from_dataset(env.pool.clone(), &extracted).expect("build");
    env.pool.flush_all().expect("flush");
    let materialised: Vec<f64> = (0..USES)
        .map(|_| {
            view.read_column("INCOME").expect("column");
            model.cost(&env.tracker.snapshot())
        })
        .collect();

    println!("E9 cumulative cost by use, re-extract vs materialised: {re_extract:.0?} vs {materialised:.0?}");
    assert!(
        materialised[0] > re_extract[0],
        "materialising costs more up front"
    );
    let crossover = (0..USES).find(|&i| materialised[i] < re_extract[i]);
    assert!(
        crossover.is_some_and(|i| i < 3),
        "no crossover by use 3: {crossover:?}"
    );
}

/// §3.2: the (attribute, function) secondary index finds an entry in a
/// few pages at every size; scanning the Summary DB touches at least
/// one page per entry.
#[test]
fn e10_the_summary_index_lookup_is_flat_and_the_scan_is_linear() {
    for entries in [64usize, 512, 2_048] {
        let env = StorageEnv::new(64);
        let db = SummaryDb::create(env.pool).expect("create");
        for i in 0..entries {
            db.put(&Entry {
                attribute: format!("ATTR_{:04}", i / 8),
                function: StatFunction::Quantile((i % 8 * 100) as u16),
                result: SummaryValue::Scalar(i as f64),
                freshness: Freshness::Fresh,
                aux: None,
                updates_since_refresh: 0,
            })
            .expect("put");
        }
        let attr = format!("ATTR_{:04}", entries / 16);
        let function = StatFunction::Quantile(300);

        env.tracker.reset();
        let via_index = db.lookup(&attr, &function).expect("lookup");
        let index_pages = touched(&env.tracker.snapshot());
        env.tracker.reset();
        let via_scan = db
            .all_entries()
            .expect("scan")
            .into_iter()
            .find(|e| e.attribute == attr && e.function == function);
        let scan_pages = touched(&env.tracker.snapshot());

        println!("E10 {entries} entries: index {index_pages} pages, scan {scan_pages}");
        assert!(via_index.is_some());
        assert_eq!(via_index, via_scan);
        assert!(index_pages <= 4, "{entries} entries: index {index_pages}");
        assert!(
            scan_pages >= entries as u64,
            "{entries} entries: scan {scan_pages}"
        );
    }
}

/// §2.3: rolling back to a checkpoint undoes exactly the cells the
/// edits changed and restores the pre-edit data.
#[test]
fn e11_rollback_undoes_exactly_the_changed_cells() {
    const ROWS: usize = 2_000;
    for depth in [10usize, 100, 1_000] {
        let mut dbms = dbms_with_view(ROWS);
        let before = dbms.dataset("v").expect("dataset");
        let cp = dbms.checkpoint("v", "start").expect("checkpoint");
        let mut changed = 0;
        for k in 0..depth {
            let report = dbms
                .update_where(
                    "v",
                    &Predicate::col_eq("PERSON_ID", (k % ROWS) as i64),
                    &[("HOURS_WORKED", Expr::lit((k % 90) as i64))],
                )
                .expect("update");
            changed += report.cells_changed;
        }
        let undone = dbms.rollback_to("v", cp).expect("rollback");
        println!("E11 depth {depth}: {changed} cells changed, {undone} undone");
        assert_eq!(undone, changed, "depth {depth}");
        assert!(
            changed > depth * 9 / 10,
            "depth {depth}: edits mostly change cells"
        );
        assert_eq!(dbms.dataset("v").expect("dataset").rows(), before.rows());
    }
}

/// §2.2: over a 40-day analysis (six queries a day, one correction a
/// day) the incremental Summary DB answers most queries as hits and
/// touches fewer pages than recomputing every query from the column.
#[test]
fn e12_the_summary_db_pays_off_over_a_forty_day_analysis() {
    const DAYS: usize = 40;
    const ROWS: usize = 5_000;
    let queries = [
        ("INCOME", StatFunction::Median),
        ("INCOME", StatFunction::Mean),
        ("AGE", StatFunction::Median),
        ("AGE", StatFunction::Max),
        ("HOURS_WORKED", StatFunction::Mean),
        ("INCOME", StatFunction::Quantile(950)),
    ];
    let run = |use_cache: bool| {
        let mut dbms = dbms_with_view(ROWS);
        let start = dbms.io();
        for day in 0..DAYS {
            for (attr, f) in &queries {
                if use_cache {
                    dbms.compute("v", attr, f, AccuracyPolicy::Exact)
                        .expect("compute");
                } else {
                    f.compute(&dbms.column("v", attr).expect("column"))
                        .expect("compute");
                }
            }
            dbms.update_where(
                "v",
                &Predicate::col_eq("PERSON_ID", (day * 13 % ROWS) as i64),
                &[("INCOME", Expr::lit(25_000.0 + day as f64))],
            )
            .expect("update");
        }
        let pages = touched(&dbms.io().since(&start));
        (pages, dbms.cache_stats("v").expect("stats"))
    };
    let (cached_pages, stats) = run(true);
    let (plain_pages, _) = run(false);
    println!(
        "E12 pages {cached_pages} with the Summary DB vs {plain_pages} without; \
         hits {} / recomputes {} / incremental {}",
        stats.hits, stats.recomputes, stats.incremental_updates
    );
    let lookups = (DAYS * queries.len()) as u64;
    assert!(
        stats.hits * 2 > lookups,
        "{} hits of {lookups} lookups",
        stats.hits
    );
    assert!(stats.incremental_updates > 0);
    assert!(
        cached_pages < plain_pages,
        "{cached_pages} pages cached vs {plain_pages} uncached"
    );
}

/// Zone maps (an extension of §2.6's scan path): an equality filter
/// that no segment of a clustered column can satisfy reads its zone-map
/// pages and almost none of the data pages a full read of that column
/// does.
#[test]
fn e13_zone_maps_skip_the_pages_of_refuted_segments() {
    use sdbms::columnar::Compression;
    use sdbms::data::schema::{Attribute, Schema};
    use sdbms::data::DataType;
    use sdbms::relational::filter_table_rows;

    // 20 blocks of 2 048 rows, stored raw so the column spans many
    // pages (run-length coding would fold it into one).
    const BLOCK_ROWS: i64 = 2_048;
    const BLOCKS: i64 = 20;
    let schema = Schema::new(vec![Attribute::measured("BLOCK", DataType::Int)]).expect("schema");
    let rows: Vec<Vec<Value>> = (0..BLOCKS * BLOCK_ROWS)
        .map(|i| vec![Value::Int(i / BLOCK_ROWS)])
        .collect();
    let ds = DataSet::from_rows("clustered", schema.clone(), rows).expect("dataset");
    let env = StorageEnv::new(8_192);
    let mut store = TransposedFile::create_with(env.pool.clone(), schema, &[Compression::None])
        .expect("create");
    store.bulk_append(&ds).expect("load");

    // Pages read from disk on a cold pool: each distinct page once.
    let cold_reads = |op: &dyn Fn()| {
        env.pool.flush_all().expect("flush");
        env.pool.discard_frames().expect("cold pool");
        env.tracker.reset();
        op();
        env.tracker.snapshot().page_reads
    };
    let column_pages = cold_reads(&|| drop(store.read_column("BLOCK").expect("column")));
    let predicate = Predicate::col_eq("BLOCK", -1i64);
    let filter_pages = cold_reads(&|| {
        let hits = filter_table_rows(&store, &predicate, &ExecConfig::from_env()).expect("filter");
        assert!(hits.is_empty());
    });

    println!("E13 0% selectivity: filter {filter_pages} pages vs column read {column_pages}");
    assert!(column_pages > 0);
    assert!(
        filter_pages * 10 <= column_pages,
        "filter {filter_pages} pages vs column read {column_pages}"
    );
}

/// Page reads of `op` on a cold pool: each distinct page once.
fn cold_reads<T>(dbms: &mut StatDbms, op: impl FnOnce(&mut StatDbms) -> T) -> (u64, T) {
    let pool = dbms.env().pool.clone();
    pool.flush_all().expect("flush");
    pool.discard_frames().expect("cold pool");
    let start = dbms.io();
    let out = op(dbms);
    (dbms.io().since(&start).page_reads, out)
}

/// Pages an operation touched on a warm pool, from disk or from the
/// pool.
fn warm_touched<T>(dbms: &mut StatDbms, op: impl FnOnce(&mut StatDbms) -> T) -> (u64, T) {
    let start = dbms.io();
    let out = op(dbms);
    (touched(&dbms.io().since(&start)), out)
}

/// `PERSON_ID < 256 * segments`: every row of the first `segments`
/// segments of a view loaded in `PERSON_ID` order.
fn first_segments(segments: usize) -> Predicate {
    use sdbms::core::CmpOp;
    let bound = Expr::lit((segments * SEGMENT_ROWS) as i64);
    Predicate::cmp(Expr::col("PERSON_ID"), CmpOp::Lt, bound)
}

/// §2.6 applied to writes (ROADMAP 2): a predicate update over *k*
/// segments of one column stores each of them once, so the pages its
/// writes touch do not grow with the cells it changes.
#[test]
fn e17_a_predicate_update_stores_each_touched_segment_once() {
    const ROWS: usize = 8_000;
    for k in [2usize, 8] {
        let mut dbms = dbms_with_view(ROWS);
        let predicate = first_segments(k);
        let exec = ExecConfig::from_env();
        let (planning, rows) = warm_touched(&mut dbms, |dbms| {
            let store = &*dbms.view("v").expect("view").store;
            sdbms::relational::filter_table_rows(store, &predicate, &exec).expect("filter")
        });
        let (update, report) = warm_touched(&mut dbms, |dbms| {
            dbms.update_where("v", &predicate, &[("INCOME", Expr::lit(1.5))])
                .expect("update")
        });
        let writes = update - planning;
        println!(
            "E17 {k} segments: {} cells changed, update {update} pages, \
             of which writing {writes}",
            report.cells_changed
        );
        assert_eq!(rows.len(), k * SEGMENT_ROWS);
        assert_eq!(report.cells_changed, k * SEGMENT_ROWS);
        assert!(
            writes <= 6 * k as u64,
            "{k} segments, {} cells: {writes} pages touched writing",
            report.cells_changed
        );
    }
}

/// The same update's planning reads the columns of its predicate and
/// assignment and no other: on a cold pool it reads exactly as many
/// pages over the full eight-column view as over a view of only those
/// three columns.
#[test]
fn e17_a_predicate_update_reads_only_the_columns_it_names() {
    use sdbms::core::{BinOp, CmpOp};
    const ROWS: usize = 8_000;
    let named = ["PERSON_ID", "AGE", "INCOME"];
    let predicate = first_segments(8).and(Predicate::cmp(
        Expr::col("AGE"),
        CmpOp::Gt,
        Expr::lit(30i64),
    ));
    let raise = Expr::col("INCOME").binary(BinOp::Add, Expr::lit(25i64));
    let mut reads = Vec::new();
    for definition in [
        ViewDefinition::scan("v", "census_microdata"),
        ViewDefinition::scan("v", "census_microdata").project(&named),
    ] {
        let mut dbms = StatDbms::new(1024);
        dbms.load_raw(&clean_micro(ROWS, 1982)).expect("load raw");
        dbms.materialize(definition, "analyst")
            .expect("materialize");
        let width = dbms.view("v").expect("view").store.schema().len();
        let (pages, report) = cold_reads(&mut dbms, |dbms| {
            dbms.update_where("v", &predicate, &[("INCOME", raise.clone())])
                .expect("update")
        });
        println!(
            "E17 {width} columns: {} cells changed, {pages} pages read cold",
            report.cells_changed
        );
        assert!(report.cells_changed > 0);
        reads.push(pages);
    }
    assert_eq!(reads[0], reads[1], "the five unnamed columns cost pages");
}

/// §3.2's regenerate rule (E8), counted: regenerating an `Expression`
/// derived column writes each of its segments once, so it touches a
/// few pages per segment where a row-at-a-time rewrite touches several
/// per row.
#[test]
fn e8_regenerating_a_derived_column_writes_each_segment_once() {
    use sdbms::core::BinOp;
    use sdbms::data::DataType;
    use sdbms::management::{DerivedRule, VectorGenerator};
    for rows in [2_000usize, 8_000] {
        let mut dbms = dbms_with_view(rows);
        let expr = Expr::col("INCOME").binary(BinOp::Mul, Expr::lit(0.5));
        dbms.add_derived_column("v", "HALF_INCOME", DataType::Float, expr.clone())
            .expect("derived column");
        let edit = |dbms: &mut StatDbms, k: i64| {
            dbms.update_where(
                "v",
                &Predicate::col_eq("PERSON_ID", k),
                &[("INCOME", Expr::lit(100.0 + k as f64))],
            )
            .expect("update")
        };
        let (local, _) = warm_touched(&mut dbms, |dbms| edit(dbms, 1));
        let generator = VectorGenerator::Expression(expr);
        dbms.set_derived_rule("v", "HALF_INCOME", DerivedRule::Regenerate { generator })
            .expect("rule");
        let (regenerate, _) = warm_touched(&mut dbms, |dbms| edit(dbms, 2));
        let segments = rows.div_ceil(SEGMENT_ROWS) as u64;
        println!(
            "E8 {rows} rows ({segments} segments): local rule {local} pages, \
             regenerate {regenerate}"
        );
        let column = dbms.column("v", "HALF_INCOME").expect("column");
        assert_eq!(column[2], Value::Float(51.0));
        assert!(
            regenerate <= local + 6 * segments,
            "{rows} rows: regenerate {regenerate} pages vs local {local}"
        );
        assert!(
            regenerate > local + segments,
            "the regeneration touched every segment"
        );
    }
}

/// §2.2 sampling (E7), counted: a sample reads only the segments that
/// hold its rows, where it used to read the whole view first. A 0.1%
/// sample reads under a third of the view's pages; a 1% one already
/// lands in ~92% of the 256-row segments (1 − 0.99^256), so it saves
/// little I/O, but its estimates are within a few percent.
#[test]
fn e7_a_sample_reads_only_the_segments_of_its_rows() {
    use sdbms::stats::{descriptive::mean, quantile::median};
    const ROWS: usize = 20_000;
    let mut dbms = dbms_with_view(ROWS);
    let (full_pages, full) = cold_reads(&mut dbms, |dbms| dbms.dataset("v").expect("dataset"));
    let (full_income, _) = full.column_f64("INCOME").expect("income");
    // (rows, largest share of the view's pages, largest relative error)
    for (k, page_share, error) in [
        (20usize, 1.0 / 3.0, None),
        (200, 1.0, Some(0.05)),
        (2_000, 1.0, Some(0.03)),
    ] {
        let (pages, sample) = cold_reads(&mut dbms, |dbms| dbms.sample("v", k, 7).expect("sample"));
        let (income, _) = sample.column_f64("INCOME").expect("income");
        let rel = |f: fn(&[f64]) -> sdbms::stats::Result<f64>| {
            let (s, w) = (f(&income).expect("sample"), f(&full_income).expect("full"));
            (s - w).abs() / w
        };
        let (mean_err, median_err) = (rel(mean), rel(median));
        println!(
            "E7 {k} of {ROWS} rows: {pages} of {full_pages} pages; INCOME mean error \
             {:.2}%, median error {:.2}%",
            mean_err * 100.0,
            median_err * 100.0
        );
        assert!(
            pages as f64 <= page_share * full_pages as f64,
            "{k} rows: {pages} of {full_pages} pages"
        );
        if let Some(bound) = error {
            assert!(mean_err <= bound && median_err <= bound, "{k} rows");
        }
    }
}

/// Lorie's shadow pages applied to every writer (E18), counted: a
/// writer's successor version shares every page with the installed
/// one, so cloning the store does no I/O, a one-cell batch commit
/// writes its segment's pages, its intent and its cache entries rather
/// than the view, and retiring each displaced version frees what its
/// successor copied, so 200 more commits leave the disk as one left it.
#[test]
fn e18_a_one_cell_commit_writes_its_delta_not_the_view() {
    use sdbms::core::DurabilityPolicy;
    const ROWS: usize = 8_000;
    let mut dbms = dbms_with_view(ROWS);
    dbms.set_durability(DurabilityPolicy::CrashConsistent)
        .expect("durability");
    dbms.warm_standing_summaries("v").expect("warm");
    let store = Arc::clone(&dbms.view("v").expect("view").store);
    let (segments, view_pages) = (store.segment_count("INCOME"), store.data_page_ids().len());
    let start = dbms.io();
    let clone = store.boxed_clone().expect("clone");
    let cloning = dbms.io().since(&start);
    drop((clone, store));
    let commit = |dbms: &mut StatDbms, i: usize| {
        let batch = dbms.begin_batch("v").expect("begin");
        let row = (i * 7_919) % ROWS;
        dbms.batch_set_cell(batch, row, "INCOME", Value::Float(i as f64))
            .expect("stage");
        dbms.commit_batch(batch).expect("commit")
    };
    dbms.env().pool.flush_all().expect("flush");
    let start = dbms.io();
    let report = commit(&mut dbms, 1);
    let writes = dbms.io().since(&start).page_writes;
    let after_one = dbms.env().disk.allocated_pages();
    for i in 2..=201 {
        commit(&mut dbms, i);
    }
    let after_many = dbms.env().disk.allocated_pages();
    println!(
        "E18 {segments} segments a column, {view_pages} data pages: clone {} reads \
         {} writes {} pool hits; one-cell commit {writes} page writes; \
         {after_one} pages allocated after one commit, {after_many} after 201",
        cloning.page_reads, cloning.page_writes, cloning.pool_hits
    );
    assert!(segments > 1);
    assert_eq!(report.cells_changed, 1);
    assert_eq!(
        (cloning.page_reads, cloning.page_writes, cloning.pool_hits),
        (0, 0, 0),
        "a clone is a directory copy"
    );
    assert!(writes <= 12, "a one-cell commit wrote {writes} pages");
    assert!(
        after_many <= after_one + 4,
        "{after_one} pages after one commit, {after_many} after 201"
    );
}
