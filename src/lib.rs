//! # sdbms — a statistical database management system
//!
//! A full implementation of the architecture proposed in *"A Framework
//! for Research in Database Management for Statistical Analysis"*
//! (Boral, DeWitt, Bates — University of Wisconsin–Madison, 1982):
//! per-analyst **concrete views** materialized from a raw database on
//! slow archive storage, a per-view **Summary Database** that caches
//! statistical function results and maintains them incrementally under
//! updates, and a single **Management Database** holding view lineage,
//! update histories (undo/rollback/publishing), and maintenance rules —
//! all over transposed-file or row-file storage with exact I/O
//! accounting.
//!
//! ## Quick start
//!
//! ```
//! use sdbms::core::{paper_demo_dbms, AccuracyPolicy, StatFunction, ViewDefinition};
//!
//! // A DBMS pre-loaded with the paper's Figure 1 data set.
//! let mut dbms = paper_demo_dbms(256).unwrap();
//!
//! // Materialize a concrete view from the raw database (tape).
//! dbms.materialize(ViewDefinition::scan("census", "figure1"), "analyst")
//!     .unwrap();
//!
//! // First median: computed and cached in the Summary Database.
//! let (median, _) = dbms
//!     .compute("census", "AVE_SALARY", &StatFunction::Median, AccuracyPolicy::Exact)
//!     .unwrap();
//! // The true median of Figure 1's AVE_SALARY column. (The paper's
//! // Figure 4 prints 29,933, which is not the median of its own
//! // Figure 1 data — see EXPERIMENTS.md, experiment F4.)
//! assert_eq!(median.as_scalar(), Some(29_402.0));
//!
//! // Second median: a cache hit — no data access.
//! let (_, source) = dbms
//!     .compute("census", "AVE_SALARY", &StatFunction::Median, AccuracyPolicy::Exact)
//!     .unwrap();
//! assert_eq!(source, sdbms::core::ComputeSource::Cache);
//! ```
//!
//! ## Crate map
//!
//! | Module | Implements |
//! |---|---|
//! | [`storage`] | WiSS-style substrate: simulated disk, buffer pool, heap files, B+trees, tape archive |
//! | [`data`] | values / schemas / flat files / code books / census generators / metadata graph / raw DB |
//! | [`columnar`] | transposed files (§2.6), RLE & dictionary compression, row-store baseline |
//! | [`relational`] | select/project/join/aggregate + predicates and view-definition lineage |
//! | [`stats`] | the statistical functions: descriptive, quantiles, histograms, tests, regression, sampling |
//! | [`summary`] | the Summary Database (§3.2) with incremental maintenance and the §4.2 median window |
//! | [`management`] | the Management Database: catalog, histories/undo, derived-attribute rules |
//! | [`repair`] | self-healing: health registry, scrub cursors, corruption triage |
//! | [`txn`] | multi-analyst concurrency: epoch registry/pins for snapshot reclamation, the per-view lock table |
//! | [`core`] | the DBMS façade tying it all together (paper Figure 3) |
//! | [`serve`] | the serving layer: thread-pool request loop, front result cache, per-tenant admission control |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use sdbms_columnar as columnar;
pub use sdbms_core as core;
pub use sdbms_data as data;
pub use sdbms_exec as exec;
pub use sdbms_management as management;
pub use sdbms_relational as relational;
pub use sdbms_repair as repair;
pub use sdbms_serve as serve;
pub use sdbms_stats as stats;
pub use sdbms_storage as storage;
pub use sdbms_summary as summary;
pub use sdbms_txn as txn;
