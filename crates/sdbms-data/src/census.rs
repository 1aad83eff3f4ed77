//! Census-style synthetic workload generator.
//!
//! The paper's running example (Figure 1) is a census cross-tabulation
//! by SEX × RACE × AGE_GROUP, and its motivating database is the 1970
//! census public-use sample. We cannot ship census data, so this module
//! generates the closest synthetic equivalent (per the substitution
//! table in DESIGN.md):
//!
//! - [`figure1`] reproduces paper Figure 1 *exactly* (the 9 rows the
//!   paper prints).
//! - [`aggregate_census`] scales the same shape up: the full cross
//!   product of category values with generated POPULATION/AVE_SALARY.
//! - [`microdata_census`] generates person-level records (AGE, INCOME,
//!   …) with seeded outliers and invalid measurements, exercising the
//!   data-checking workloads of §2.2 (a 5-digit salary is plausible; an
//!   age of 1,000 is not).
//!
//! All generation is deterministic given the seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::codebook::CodeBook;
use crate::dataset::DataSet;
use crate::error::Result;
use crate::schema::{Attribute, Schema};
use crate::value::{DataType, Value};

/// The data set printed as Figure 1 of the paper, row for row.
#[must_use]
pub fn figure1() -> DataSet {
    let schema = Schema::new(vec![
        Attribute::category("SEX", DataType::Str),
        Attribute::category("RACE", DataType::Str),
        Attribute::category("AGE_GROUP", DataType::Code).with_codebook("AGE_GROUP"),
        Attribute::measured("POPULATION", DataType::Int),
        Attribute::derived("AVE_SALARY", DataType::Int),
    ])
    // lint: allow(no-panic): schema is a compile-time literal; Schema::new can only reject duplicates, and there are none
    .expect("static schema is valid");
    let rows: Vec<(&str, &str, u32, i64, i64)> = vec![
        ("M", "W", 1, 12_300_347, 33_122),
        ("M", "W", 2, 21_342_193, 25_883),
        ("M", "W", 3, 18_989_987, 42_919),
        ("M", "W", 4, 9_342_193, 15_110),
        ("F", "W", 1, 15_821_497, 31_762),
        ("F", "W", 2, 33_422_988, 29_933),
        ("F", "W", 3, 29_734_121, 28_218),
        ("F", "W", 4, 20_812_211, 17_498),
        ("M", "B", 1, 2_143_924, 29_402),
    ];
    let rows = rows
        .into_iter()
        .map(|(s, r, a, p, sal)| {
            vec![
                Value::Str(s.into()),
                Value::Str(r.into()),
                Value::Code(a),
                Value::Int(p),
                Value::Int(sal),
            ]
        })
        .collect();
    // lint: allow(no-panic): rows are a compile-time literal shaped to the literal schema above
    DataSet::from_rows("figure1", schema, rows).expect("figure 1 rows conform")
}

/// Configuration for the synthetic census generators.
#[derive(Debug, Clone, Copy)]
pub struct CensusConfig {
    /// RNG seed; same seed, same data.
    pub seed: u64,
    /// For [`microdata_census`]: number of person records.
    pub rows: usize,
    /// Fraction of records given an *invalid* measurement (e.g. an age
    /// of 1,000) for data-checking workloads.
    pub invalid_fraction: f64,
    /// Fraction of records given a legitimate but extreme value (the
    /// Beverly Hills salary) — suspicious, not wrong.
    pub outlier_fraction: f64,
    /// Number of regions in the REGION category (controls category
    /// cross-product size for [`aggregate_census`]).
    pub regions: u32,
}

impl Default for CensusConfig {
    fn default() -> Self {
        CensusConfig {
            seed: 1982,
            rows: 10_000,
            invalid_fraction: 0.002,
            outlier_fraction: 0.01,
            regions: 4,
        }
    }
}

/// Standard-normal sample via Box–Muller (keeps us to the plain `rand`
/// dependency).
fn normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// The sexes used by the generators.
pub const SEXES: [&str; 2] = ["M", "F"];
/// The race codes used by the generators.
pub const RACES: [&str; 4] = ["W", "B", "A", "H"];
/// Number of AGE_GROUP codes (1..=4, per Figure 2).
pub const AGE_GROUPS: u32 = 4;

/// Code book for the REGION attribute of the synthetic census.
#[must_use]
pub fn region_codebook(regions: u32) -> CodeBook {
    let mut cb = CodeBook::new("REGION");
    for r in 1..=regions {
        cb.define(r, &format!("Region {r}"));
    }
    cb
}

/// Aggregate (Figure 1-shaped) census: one row per cell of the
/// SEX × RACE × AGE_GROUP × REGION cross product.
///
/// §2.1: "the number of records in the statistical data set can equal
/// the cross product of the ranges of the category attribute values".
pub fn aggregate_census(config: &CensusConfig) -> Result<DataSet> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let schema = Schema::new(vec![
        Attribute::category("SEX", DataType::Str),
        Attribute::category("RACE", DataType::Str),
        Attribute::category("AGE_GROUP", DataType::Code).with_codebook("AGE_GROUP"),
        Attribute::category("REGION", DataType::Code).with_codebook("REGION"),
        Attribute::measured("POPULATION", DataType::Int).with_valid_range(0.0, 5e7),
        Attribute::derived("AVE_SALARY", DataType::Float).with_valid_range(1_000.0, 250_000.0),
    ])?;
    let mut rows = Vec::new();
    for sex in SEXES {
        for race in RACES {
            for age in 1..=AGE_GROUPS {
                for region in 1..=config.regions {
                    // Population scales down for later age groups and
                    // minority races, with lognormal-ish noise.
                    let base =
                        8_000_000.0 / (age as f64).sqrt() * if race == "W" { 1.0 } else { 0.25 };
                    let pop = (base * (1.0 + 0.3 * normal(&mut rng)).max(0.05)) as i64;
                    // Salary peaks in age groups 2-3.
                    let peak = match age {
                        1 => 18_000.0,
                        2 => 32_000.0,
                        3 => 38_000.0,
                        _ => 21_000.0,
                    };
                    let salary = (peak * (1.0 + 0.15 * normal(&mut rng))).max(2_000.0);
                    rows.push(vec![
                        Value::Str(sex.into()),
                        Value::Str(race.into()),
                        Value::Code(age),
                        Value::Code(region),
                        Value::Int(pop),
                        Value::Float((salary * 100.0).round() / 100.0),
                    ]);
                }
            }
        }
    }
    DataSet::from_rows("census_aggregate", schema, rows)
}

/// Person-level census microdata with seeded outliers and invalid
/// values.
///
/// Columns: SEX, RACE, REGION (code), AGE (years), AGE_GROUP (code
/// derived from AGE per Figure 2), INCOME (dollars), HOURS_WORKED.
/// `invalid_fraction` of the rows get an impossible AGE (≥ 900);
/// `outlier_fraction` get an extreme-but-legitimate INCOME.
pub fn microdata_census(config: &CensusConfig) -> Result<DataSet> {
    let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(0x5EED));
    let schema = Schema::new(vec![
        Attribute::category("PERSON_ID", DataType::Int),
        Attribute::measured("SEX", DataType::Str),
        Attribute::measured("RACE", DataType::Str),
        Attribute::measured("REGION", DataType::Code).with_codebook("REGION"),
        Attribute::measured("AGE", DataType::Int).with_valid_range(0.0, 110.0),
        Attribute::derived("AGE_GROUP", DataType::Code).with_codebook("AGE_GROUP"),
        Attribute::measured("INCOME", DataType::Float).with_valid_range(0.0, 250_000.0),
        Attribute::measured("HOURS_WORKED", DataType::Int).with_valid_range(0.0, 100.0),
    ])?;
    let mut rows = Vec::with_capacity(config.rows);
    for id in 0..config.rows {
        let sex = SEXES[rng.gen_range(0..SEXES.len())];
        let race = RACES[rng.gen_range(0..RACES.len())];
        let region = rng.gen_range(1..=config.regions);
        let mut age: i64 = (38.0 + 22.0 * normal(&mut rng)).clamp(0.0, 99.0) as i64;
        // Income depends on age (earnings curve) with heavy noise.
        let age_factor = 1.0 - ((age as f64 - 45.0) / 60.0).powi(2);
        let mut income =
            (28_000.0 * age_factor.max(0.1) * (1.0 + 0.5 * normal(&mut rng)).max(0.02)).max(0.0);
        let hours: i64 = (40.0 + 10.0 * normal(&mut rng)).clamp(0.0, 99.0) as i64;

        if rng.gen::<f64>() < config.invalid_fraction {
            // An incorrect measurement: the paper's "age recorded as
            // 1,000".
            age = 900 + rng.gen_range(0..200);
        } else if rng.gen::<f64>() < config.outlier_fraction {
            // Legitimate outlier: the Beverly Hills salary.
            income = 300_000.0 + 150_000.0 * rng.gen::<f64>();
        }
        let age_group = match age {
            0..=20 => 1,
            21..=40 => 2,
            41..=60 => 3,
            _ => 4,
        };
        rows.push(vec![
            Value::Int(id as i64),
            Value::Str(sex.into()),
            Value::Str(race.into()),
            Value::Code(region),
            Value::Int(age),
            Value::Code(age_group),
            Value::Float((income * 100.0).round() / 100.0),
            Value::Int(hours),
        ]);
    }
    DataSet::from_rows("census_microdata", schema, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_matches_paper_exactly() {
        let ds = figure1();
        assert_eq!(ds.len(), 9);
        assert_eq!(
            ds.schema().names(),
            vec!["SEX", "RACE", "AGE_GROUP", "POPULATION", "AVE_SALARY"]
        );
        // Spot-check the first and last printed rows.
        assert_eq!(ds.value(0, "POPULATION").unwrap(), &Value::Int(12_300_347));
        assert_eq!(ds.value(0, "AVE_SALARY").unwrap(), &Value::Int(33_122));
        assert_eq!(ds.value(8, "SEX").unwrap(), &Value::Str("M".into()));
        assert_eq!(ds.value(8, "RACE").unwrap(), &Value::Str("B".into()));
        assert_eq!(ds.value(8, "POPULATION").unwrap(), &Value::Int(2_143_924));
    }

    #[test]
    fn aggregate_is_full_cross_product() {
        let cfg = CensusConfig {
            regions: 3,
            ..Default::default()
        };
        let ds = aggregate_census(&cfg).unwrap();
        assert_eq!(ds.len(), 2 * 4 * 4 * 3);
        // All populations positive.
        let (pops, skipped) = ds.column_f64("POPULATION").unwrap();
        assert_eq!(skipped, 0);
        assert!(pops.iter().all(|&p| p > 0.0));
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = CensusConfig::default();
        let a = aggregate_census(&cfg).unwrap();
        let b = aggregate_census(&cfg).unwrap();
        assert_eq!(a, b);
        let m1 = microdata_census(&cfg).unwrap();
        let m2 = microdata_census(&cfg).unwrap();
        assert_eq!(m1, m2);
        let other = microdata_census(&CensusConfig { seed: 7, ..cfg }).unwrap();
        assert_ne!(m1, other);
    }

    #[test]
    fn microdata_has_seeded_errors() {
        let cfg = CensusConfig {
            rows: 20_000,
            invalid_fraction: 0.01,
            outlier_fraction: 0.02,
            ..Default::default()
        };
        let ds = microdata_census(&cfg).unwrap();
        assert_eq!(ds.len(), 20_000);
        let bad_ages = ds.suspicious_rows("AGE").unwrap();
        let frac = bad_ages.len() as f64 / ds.len() as f64;
        assert!(
            (0.003..0.03).contains(&frac),
            "invalid-age fraction {frac} out of expected band"
        );
        // Every suspicious age is the impossible kind we planted.
        for &r in &bad_ages {
            let age = ds.value(r, "AGE").unwrap().as_f64().unwrap();
            assert!(age >= 900.0);
        }
        let rich = ds.suspicious_rows("INCOME").unwrap();
        assert!(!rich.is_empty(), "outlier incomes planted");
    }

    #[test]
    fn age_group_derivation_consistent() {
        let ds = microdata_census(&CensusConfig {
            rows: 2_000,
            invalid_fraction: 0.0,
            ..Default::default()
        })
        .unwrap();
        for i in 0..ds.len() {
            let &Value::Int(age) = ds.value(i, "AGE").unwrap() else {
                panic!("AGE is an integer")
            };
            let &Value::Code(group) = ds.value(i, "AGE_GROUP").unwrap() else {
                panic!("AGE_GROUP is coded")
            };
            let expect = match age {
                0..=20 => 1,
                21..=40 => 2,
                41..=60 => 3,
                _ => 4,
            };
            assert_eq!(group, expect, "row {i}: age {age}");
        }
    }

    #[test]
    fn region_codebook_covers_regions() {
        let cb = region_codebook(5);
        assert_eq!(cb.len(), 5);
        assert_eq!(cb.decode(3).unwrap(), "Region 3");
        assert!(cb.decode(6).is_err());
    }
}
