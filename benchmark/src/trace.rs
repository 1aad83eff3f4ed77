//! Outside-in tracing.
//!
//! Spans are recorded from the benchmark's own files, around calls
//! into each layer's public functions; spans inside the program are a
//! later change. The traced pass has one analyst. Every top-level call
//! is a span; for a seeded 1-in-N sample of read requests the harness
//! then re-executes the request's path step by step through the public
//! APIs on the same version, one child span per step, so a layer's
//! self time — its span minus what its children cover — is defined on
//! real inputs. Spans stay in memory and are written when the pass
//! ends.

use std::collections::BTreeMap;
use std::time::Instant;

use sdbms_testkit::SplitMix64;

use crate::json::Json;

/// Parent id of a span that has no parent.
pub const ROOT: u32 = u32::MAX;

/// One span. `name` is `<layer>.<what>`; spans of one request share
/// `request`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub request: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer a span's self time is charged to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Counter deltas across one sampled request, taken at the same
/// boundaries as its top-level span.
#[derive(Debug, Clone)]
pub struct CounterDelta {
    pub request: u32,
    pub values: Vec<(&'static str, u64)>,
}

pub struct Tracer {
    origin: Instant,
    rng: SplitMix64,
    sample_every: u64,
    pub spans: Vec<Span>,
    pub counters: Vec<CounterDelta>,
}

impl Tracer {
    pub fn new(origin: Instant, seed: u64, sample_every: u64) -> Tracer {
        Tracer {
            origin,
            rng: SplitMix64::new(seed ^ 0x7ACE_7ACE_7ACE_7ACE),
            sample_every: sample_every.max(1),
            spans: Vec::new(),
            counters: Vec::new(),
        }
    }

    /// Share a pass's clock, so its top-level spans and the steps
    /// recorded here are on one time base.
    pub fn rebase(&mut self, origin: Instant) {
        self.origin = origin;
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Seeded 1-in-N decision, made before the request is issued.
    pub fn sample(&mut self) -> bool {
        self.rng.below(self.sample_every) == 0
    }

    /// Record a finished span; returns its id.
    pub fn push(&mut self, span: Span) -> u32 {
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    /// Open a parent span whose end is set by [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: u32, request: u32) -> u32 {
        let now = self.now_ns();
        self.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            request,
        })
    }

    pub fn close(&mut self, id: u32) {
        let now = self.now_ns();
        self.spans[id as usize].end_ns = now;
    }

    /// Run `f` as a child span of `parent`.
    pub fn step<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        request: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let start_ns = self.now_ns();
        let r = f();
        let end_ns = self.now_ns();
        self.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        r
    }
}

/// Self time of every span: its duration minus the part of its
/// interval that its children cover (overlapping children are not
/// counted twice; a child reaching outside its parent only counts
/// inside).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(parent) = spans.get(s.parent as usize) {
            let (lo, hi) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if hi > lo {
                children[s.parent as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// What the traced pass says about its sampled requests.
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    /// Mean self time per sampled request, by layer, microseconds.
    pub layer_self_us: BTreeMap<&'static str, f64>,
    /// Share of the replayed requests' top-level call time that their
    /// replayed steps account for (total steps ÷ total calls).
    pub replay_cover_share: f64,
    pub sampled_requests: usize,
}

/// Charge self times to layers over the sampled requests.
///
/// A sampled request is a top-level span (parent [`ROOT`], any name
/// but `bench.replay`) plus, for a read whose path can be re-executed,
/// a `bench.replay` span with one child per step. The steps' self
/// times go to their layers; the top-level span keeps what the steps
/// do not account for, since that is the part of the call the layer
/// behind the public entry point spent itself.
pub fn summarize(spans: &[Span]) -> TraceSummary {
    let selfs = self_times(spans);
    let mut per_request: BTreeMap<u32, (Option<usize>, Option<usize>)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.parent == ROOT {
            let slot = per_request.entry(s.request).or_default();
            if s.name == "bench.replay" {
                slot.1 = Some(i);
            } else {
                slot.0 = Some(i);
            }
        }
    }
    let mut layer_ns: BTreeMap<&'static str, u64> = BTreeMap::new();
    let (mut steps_total, mut calls_total) = (0u64, 0u64);
    let mut sampled = 0usize;
    for (top, replay) in per_request.values() {
        let Some(top) = *top else { continue };
        sampled += 1;
        let mut steps_ns = 0u64;
        if let Some(replay) = *replay {
            for (i, s) in spans.iter().enumerate() {
                if s.parent as usize == replay {
                    *layer_ns.entry(s.layer()).or_default() += selfs[i];
                    steps_ns += s.dur_ns();
                }
            }
            steps_total += steps_ns;
            calls_total += spans[top].dur_ns();
        }
        *layer_ns.entry(spans[top].layer()).or_default() +=
            spans[top].dur_ns().saturating_sub(steps_ns);
    }
    TraceSummary {
        layer_self_us: layer_ns
            .into_iter()
            .map(|(k, ns)| (k, ns as f64 / 1e3 / sampled.max(1) as f64))
            .collect(),
        replay_cover_share: if calls_total == 0 {
            0.0
        } else {
            steps_total as f64 / calls_total as f64
        },
        sampled_requests: sampled,
    }
}

/// Render the trace document: a name table, then spans as
/// `[name, start_ns, end_ns, parent, request]` rows (`parent` is -1
/// for a top-level span).
pub fn render(header: Vec<(&str, Json)>, tracer: &Tracer, summary: &TraceSummary) -> String {
    let mut names: Vec<&'static str> = Vec::new();
    let rows: Vec<Json> = tracer
        .spans
        .iter()
        .map(|s| {
            let idx = names.iter().position(|n| *n == s.name).unwrap_or_else(|| {
                names.push(s.name);
                names.len() - 1
            });
            let parent = if s.parent == ROOT {
                -1.0
            } else {
                f64::from(s.parent)
            };
            Json::Arr(vec![
                Json::Num(idx as f64),
                Json::Num(s.start_ns as f64),
                Json::Num(s.end_ns as f64),
                Json::Num(parent),
                Json::Num(f64::from(s.request)),
            ])
        })
        .collect();
    let counters: Vec<Json> = tracer
        .counters
        .iter()
        .map(|c| {
            let mut pairs = vec![("request".to_string(), Json::Num(f64::from(c.request)))];
            pairs.extend(
                c.values
                    .iter()
                    .map(|(k, v)| ((*k).to_string(), Json::Num(*v as f64))),
            );
            Json::Obj(pairs)
        })
        .collect();
    let mut doc = header;
    doc.push(("sample_every", Json::Num(tracer.sample_every as f64)));
    doc.push((
        "sampled_requests",
        Json::Num(summary.sampled_requests as f64),
    ));
    doc.push(("replay_cover_share", Json::Num(summary.replay_cover_share)));
    doc.push((
        "layer_self_us",
        Json::Obj(
            summary
                .layer_self_us
                .iter()
                .map(|(k, v)| ((*k).to_string(), Json::Num(*v)))
                .collect(),
        ),
    ));
    doc.push((
        "span_columns",
        Json::Arr(
            ["name", "start_ns", "end_ns", "parent", "request"]
                .into_iter()
                .map(Json::str)
                .collect(),
        ),
    ));
    doc.push((
        "names",
        Json::Arr(names.into_iter().map(Json::str).collect()),
    ));
    doc.push(("spans", Json::Arr(rows)));
    doc.push(("counters", Json::Arr(counters)));
    Json::obj(doc).render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32, request: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request,
        }
    }

    #[test]
    fn self_time_is_span_minus_what_children_cover() {
        let spans = vec![
            span("bench.replay", 0, 100, ROOT, 1),
            span("core.snapshot", 10, 20, 0, 1),
            span("columnar.read_column", 20, 60, 0, 1),
            // Overlaps the previous child: only 60..70 is new cover.
            span("stats.compute", 50, 70, 0, 1),
            // Reaches past the parent: only 90..100 counts.
            span("exec.tail", 90, 130, 0, 1),
            // A grandchild reduces its own parent only.
            span("storage.fetch", 25, 30, 2, 1),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 100 - (10 + 40 + 10 + 10));
        assert_eq!(selfs[1], 10);
        assert_eq!(selfs[2], 40 - 5);
        assert_eq!(selfs[3], 20);
        assert_eq!(selfs[5], 5);
    }

    #[test]
    fn layers_are_charged_steps_and_the_entry_point_keeps_the_rest() {
        let spans = vec![
            // Request 1: a miss of 500 ns whose replay accounts for 450.
            span("serve.query", 0, 500, ROOT, 1),
            span("bench.replay", 600, 1_100, ROOT, 1),
            span("core.snapshot", 600, 650, 1, 1),
            span("columnar.read_column", 650, 850, 1, 1),
            span("stats.compute", 850, 1_050, 1, 1),
            // Request 2: a hit, nothing to replay.
            span("serve.query", 2_000, 2_100, ROOT, 2),
        ];
        let s = summarize(&spans);
        assert_eq!(s.sampled_requests, 2);
        assert!((s.replay_cover_share - 0.9).abs() < 1e-12);
        // (500 - 450) + 100 over two requests.
        assert!((s.layer_self_us["serve"] - 0.075).abs() < 1e-12);
        assert!((s.layer_self_us["columnar"] - 0.1).abs() < 1e-12);
        assert!((s.layer_self_us["stats"] - 0.1).abs() < 1e-12);
        assert!((s.layer_self_us["core"] - 0.025).abs() < 1e-12);
    }
}
