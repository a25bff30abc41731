//! The traced run: the workload's whole pipeline once, with a span around
//! every public call the benchmark makes, and the per-layer metrics those
//! spans and the program's own trace events give.
//!
//! Spans are recorded by the benchmark around its calls into each crate;
//! the program is not changed. Inside the mine, the program's
//! `PassStart`/`PassEnd` events (attached through
//! `RunControl::with_observer`) are timestamped on arrival and become
//! child spans. Taxonomy compression and candidate generation have no
//! events of their own, so they are measured by replaying them through
//! `FilteredTaxonomy` and `CandidateGenerator` after the mine.
//! Spans are kept in memory and written as JSON lines when the run ends.

use crate::inputs::{check_generated, write_files, InputFiles, Workload};
use crate::mine::{self, check_mine, mine_files, Mined, MAX_NEGATIVE_SIZE, MIN_CONF, MIN_RI};
use crate::pins::Pin;
use crate::serve::{self, Snapshots};
use crate::stats::{median, quantile, Fnv};
use crate::{Metric, RunResult};
use negassoc::candidates::{CandidateGenerator, CandidateSet};
use negassoc::obs::{Event, Obs, TraceSink};
use negassoc::RunControl;
use negassoc_apriori::gen::pairs_of;
use negassoc_apriori::{HashTree, Itemset, LargeItemsets};
use negassoc_datagen::generate;
use negassoc_serve::engine::render_matches;
use negassoc_serve::export_snapshot;
use negassoc_taxonomy::fxhash::{FxHashMap, FxHashSet};
use negassoc_taxonomy::{FilteredTaxonomy, ItemId, Taxonomy};
use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Largest share of `mine_s` the stage spans may leave unaccounted. The
/// compression and candidate-generation stages are replays, timed apart
/// from the mines, and on a shared machine two executions of the same
/// stage a second apart differ by up to 40%; candidate generation is up
/// to 30% of a mine, so a tighter bound fails on the machine's drift
/// alone, even as the median over [`TRACED_MINES`] mines.
const UNACCOUNTED_BOUND: f64 = 0.15;
/// Replays of each stage that emits no events; the median is its time.
const REPLAYS: usize = 5;
/// Traced mines per run; each per-layer time of the mine, and the stage
/// accounting, is the median over them.
const TRACED_MINES: usize = 5;
/// Snapshot loads timed for `serve.snapshot.load_ms`.
const SNAPSHOT_LOADS: usize = 3;

/// One span: a named interval, its parent, and the run it belongs to.
struct Span {
    name: String,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

/// The in-memory span recorder, and the clock events are stamped with.
/// Spans are recorded from the benchmark's main thread only.
struct Tracer {
    run: u64,
    t0: Instant,
    spans: RefCell<Vec<Span>>,
}

impl Tracer {
    fn new(run: u64) -> Self {
        Tracer {
            run,
            t0: Instant::now(),
            spans: RefCell::new(Vec::new()),
        }
    }

    fn now(&self) -> Duration {
        self.t0.elapsed()
    }

    /// Record a span with known bounds; returns its id.
    fn record(&self, name: &str, parent: Option<usize>, start: Duration, end: Duration) -> usize {
        let mut spans = self.spans.borrow_mut();
        spans.push(Span {
            name: name.to_owned(),
            parent,
            start,
            end,
        });
        spans.len() - 1
    }

    fn open(&self, name: &str, parent: Option<usize>) -> usize {
        let now = self.now();
        self.record(name, parent, now, now)
    }

    fn close(&self, id: usize) -> Duration {
        let now = self.now();
        let mut spans = self.spans.borrow_mut();
        spans[id].end = now;
        now - spans[id].start
    }

    /// Run `f` inside a span; returns its result and the span's length.
    fn span<T>(
        &self,
        name: &str,
        parent: Option<usize>,
        f: impl FnOnce(usize) -> T,
    ) -> (T, Duration) {
        let id = self.open(name, parent);
        let out = f(id);
        (out, self.close(id))
    }

    /// Write every span as one JSON line.
    fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.borrow_mut().iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"run\": \"{:016x}\", \"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \
                 \"start_us\": {}, \"end_us\": {}}}",
                self.run,
                s.name,
                s.start.as_micros(),
                s.end.as_micros()
            )?;
        }
        out.flush()
    }
}

/// A trace sink that stamps each event with the tracer's clock.
struct StampSink {
    t0: Instant,
    events: Mutex<Vec<(Duration, Event)>>,
}

impl StampSink {
    /// The recorded events. Every push leaves the list whole, so a
    /// poisoned lock still guards a valid list.
    fn events(&self) -> MutexGuard<'_, Vec<(Duration, Event)>> {
        self.events.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl TraceSink for StampSink {
    fn record(&self, event: &Event) {
        let at = self.t0.elapsed();
        self.events().push((at, event.clone()));
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// The traced run of workload `w`. Writes its spans to `trace_path`.
pub fn run(
    w: Workload,
    seed: u64,
    seconds: f64,
    dir: &Path,
    pin: &Pin,
    trace_path: &Path,
    mut result: RunResult,
) -> Result<RunResult, String> {
    let run_id = Fnv::new()
        .bytes(w.name().as_bytes())
        .u64(seed)
        .u64(u64::from(std::process::id()))
        .finish();
    let tr = Tracer::new(run_id);
    let root = tr.open(&format!("run {} seed {seed}", w.name()), None);
    let files = InputFiles::in_dir(dir);
    let snaps = Snapshots::in_dir(dir);

    // Set-up: generate the dataset and write the files the program reads.
    let setup = tr.open("setup", Some(root));
    let (ds, generate_time) = tr.span("datagen.generate", Some(setup), |_| generate(&w.params()));
    tr.span("inputs.write", Some(setup), |_| {
        write_files(&ds, seed, &files)
    })
    .0
    .map_err(|e| format!("write inputs: {e}"))?;
    tr.close(setup);
    if let Err(e) = check_generated(pin, &ds) {
        result.fail(e);
    }
    drop(ds);

    // The oracle, then the traced mines between two untraced ones, the
    // baseline of the tracing overhead.
    let want = tr
        .span("oracle.mine", Some(root), |_| {
            mine::oracle_fingerprint(&files)
        })
        .0?;
    let mut untraced_s = Vec::new();
    let mut untraced_mine = |result: &mut RunResult| -> Result<(), String> {
        let m = tr
            .span("mine.untraced", Some(root), |_| {
                mine_files(&files, mine::config(), None)
            })
            .0?;
        check_mine(&m, want, "untraced mine", result);
        untraced_s.push(secs(m.total));
        Ok(())
    };
    let traced_mine = |result: &mut RunResult| -> Result<(Mined, MineStages), String> {
        let sink = Arc::new(StampSink {
            t0: tr.t0,
            events: Mutex::new(Vec::new()),
        });
        let ctrl = RunControl::new().with_observer(Obs::disabled().with_sink(sink.clone()));
        let span = tr.open("mine", Some(root));
        let start = tr.now();
        let mined = mine_files(&files, mine::config(), Some(&ctrl))?;
        tr.close(span);
        check_mine(&mined, want, "traced mine", result);
        let events = std::mem::take(&mut *sink.events());
        let report = &mined.outcome.report;
        let stages = MineStages {
            span,
            start,
            total: mined.total,
            load: mined.load,
            taxonomy_load: mined.taxonomy_load,
            positive: report.positive_time,
            negative: report.negative_time,
            rules: report.rule_time,
            passes: PassTimes::from_events(&events),
        };
        Ok((mined, stages))
    };
    untraced_mine(&mut result)?;
    let (mined, first) = traced_mine(&mut result)?;
    let mut traced = vec![first];
    for _ in 1..TRACED_MINES {
        traced.push(traced_mine(&mut result)?.1);
    }
    untraced_mine(&mut result)?;
    let untraced_s = median(&untraced_s);
    let report = &mined.outcome.report;
    // The median over the traced mines of one stage figure, in seconds.
    let med = |f: &dyn Fn(&MineStages) -> Duration| {
        median(&traced.iter().map(|t| secs(f(t))).collect::<Vec<_>>())
    };

    // Replays of the stages that emit no events, [`REPLAYS`] times each
    // (median): taxonomy compression over the large 1-items and negative
    // candidate generation from the mine's large itemsets.
    let large = &mined.outcome.large;
    let tax = &mined.tax;
    let (mut compress_s, mut candgen_s) = (Vec::new(), Vec::new());
    let mut replayed = None;
    for _ in 0..REPLAYS {
        let (filtered, d) = tr.span("taxonomy.compress.replay", Some(root), |_| {
            let keep: FxHashSet<ItemId> = tax
                .items()
                .filter(|&i| large.support_of(&[i]).is_some())
                .collect();
            FilteredTaxonomy::new(tax, &keep)
        });
        compress_s.push(secs(d));
        let (stats, d) = tr.span("core.candgen.replay", Some(root), |_| {
            let generator = CandidateGenerator::with_compressed(&filtered, large, MIN_RI);
            let mut set = CandidateSet::new();
            for k in 2..=MAX_NEGATIVE_SIZE.min(large.max_level()) {
                generator
                    .extend_from_level(k, &mut set)
                    .map_err(|e| format!("candidate replay: {e}"))?;
            }
            Ok::<_, String>(set.into_candidates().1)
        });
        candgen_s.push(secs(d));
        replayed = Some(stats?);
    }
    let compress = Duration::from_secs_f64(median(&compress_s));
    let candgen = Duration::from_secs_f64(median(&candgen_s));
    if let Some(c) = replayed {
        if (c.generated, c.unique) != (report.candidates.generated, report.candidates.unique) {
            result.fail(format!(
                "candidate replay enumerated {} and kept {}, the mine {} and {}",
                c.generated, c.unique, report.candidates.generated, report.candidates.unique
            ));
        }
    }

    // Stage spans of each traced mine, laid end to end from its start:
    // the file loads, the positive phase, the replayed compression and
    // candidate generation, the negative pass from its events, and rule
    // generation. What they leave of the mine's wall is work no stage
    // covers; its median over the traced mines is checked.
    let mut unaccounted_s = Vec::new();
    for t in &traced {
        let stages: [(&str, Duration); 7] = [
            ("txdb.load", t.load),
            ("taxonomy.load", t.taxonomy_load),
            ("apriori.positive", t.positive),
            ("taxonomy.compress", compress),
            ("core.candgen", candgen),
            ("core.negpass", t.passes.negative_wall),
            ("core.rules", t.rules),
        ];
        let mut at = t.start;
        let mut stage_ids = FxHashMap::default();
        for (name, d) in stages {
            stage_ids.insert(name, tr.record(name, Some(t.span), at, at + d));
            at += d;
        }
        for (label, start, end) in &t.passes.spans {
            let parent = if label == "negative" {
                "core.negpass"
            } else {
                "apriori.positive"
            };
            tr.record(
                &format!("pass {label}"),
                stage_ids.get(parent).copied(),
                *start,
                *end,
            );
        }
        let accounted: Duration = stages.iter().map(|(_, d)| *d).sum();
        unaccounted_s.push(secs(t.total) - secs(accounted));
    }
    let mine_s = med(&|t| t.total);
    let unaccounted_s = median(&unaccounted_s);
    if unaccounted_s.abs() > UNACCOUNTED_BOUND * mine_s {
        result.fail(format!(
            "stage spans leave {unaccounted_s:.4} s of a {mine_s:.4} s mine unaccounted \
             (bound {UNACCOUNTED_BOUND} of mine_s)"
        ));
    }
    let passes = &traced[0].passes;
    let hashtree_l2_build_s = hashtree_l2_build_s(&tr, root, tax, large, passes.l2_candidates);

    // Export and the snapshot files.
    let (export, export_time) = tr.span("core.export", Some(root), |_| {
        mined.outcome.rule_export(tax, MIN_CONF, MIN_RI)
    });
    let (written, write_time) = tr.span("serve.snapshot.write", Some(root), |_| {
        export_snapshot(&snaps.v1, &export, tax, 1)
    });
    written.map_err(|e| format!("{}: {e}", snaps.v1.display()))?;
    export_snapshot(&snaps.v2, &export, tax, 2)
        .map_err(|e| format!("{}: {e}", snaps.v2.display()))?;
    let snapshot_bytes = std::fs::metadata(&snaps.v1)
        .map_err(|e| format!("{}: {e}", snaps.v1.display()))?
        .len();
    let snapshot_rules = export.positive.len() + export.negative.len();
    drop(export);
    let mut load_ms = Vec::new();
    for _ in 0..SNAPSHOT_LOADS {
        let (snap, d) = tr.span("serve.snapshot.load", Some(root), |_| {
            serve::load_snapshot(&snaps.v1, tax)
        });
        snap?;
        load_ms.push(secs(d) * 1e3);
    }

    // What the untraced serve runs serve; then an in-process replay of
    // the basket mix, stage by stage.
    let prepared = tr
        .span("serve.prepare", Some(root), |_| {
            serve::prepare(seed, &files, &snaps)
        })
        .0?;
    let (state, mix) = (&prepared.state, &prepared.mix);
    let engine = tr
        .span("serve.engine", Some(root), |_| {
            engine_replay(
                state.taxonomy(),
                &state.snapshot(),
                mix,
                &prepared.expected[0],
            )
        })
        .0;
    result.attempted += engine.baskets;
    for e in &engine.errors {
        result.fail(e.clone());
    }
    let answer_us = {
        let mut us = Vec::with_capacity(mix.len());
        for b in mix {
            let t = Instant::now();
            std::hint::black_box(state.answer(std::hint::black_box(b)));
            us.push(secs(t.elapsed()) * 1e6);
        }
        median(&us)
    };

    // Over the wire: keep-alive sessions, then churn with swaps.
    let half = seconds / 2.0;
    let registry = Arc::new(negassoc_txdb::obs::Metrics::new());
    let ka = tr
        .span("serve.keepalive", Some(root), |_| {
            prepared.keepalive(&registry, half)
        })
        .0?;
    let (ch, _) = tr
        .span("serve.churn", Some(root), |_| {
            prepared.churn(&registry, half)
        })
        .0?;
    ka.account(&mut result);
    ch.account(&mut result);
    serve::check_schedule(&ch, &mut result);
    let counter = |name: &str| {
        registry
            .snapshot()
            .into_iter()
            .find(|(n, _, _)| n == name)
            .map_or(0, |(_, _, v)| v)
    };
    tr.close(root);
    tr.write(trace_path)
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;

    let ka_p50_us = median(&ka.latency_us);
    let ch_p50_us = median(&ch.latency_us);
    let enumerated = report.candidates.generated as f64;
    let kept = report.candidates.unique as f64;
    let m = |name: &'static str, value: f64, unit: &'static str| Metric::new(name, value, unit);
    for metric in [
        m("datagen.generate_s", secs(generate_time), "s"),
        m("txdb.load_s", med(&|t| t.load), "s"),
        m("txdb.transactions", mined.db.len() as f64, "count"),
        m("taxonomy.load_s", med(&|t| t.taxonomy_load), "s"),
        m("taxonomy.items", tax.len() as f64, "count"),
        m("taxonomy.compress_s", secs(compress), "s"),
        m("apriori.count_s", med(&|t| t.passes.positive_wall), "s"),
        m("apriori.l2_s", med(&|t| t.passes.l2_wall), "s"),
        m(
            "apriori.gen_s",
            med(&|t| t.positive.saturating_sub(t.passes.positive_wall)),
            "s",
        ),
        m("apriori.hashtree_l2_build_s", hashtree_l2_build_s, "s"),
        m(
            "apriori.candidates",
            passes.positive_candidates as f64,
            "count",
        ),
        m(
            "apriori.large_itemsets",
            report.large_itemsets as f64,
            "count",
        ),
        m(
            "apriori.yield",
            report.large_itemsets as f64 / passes.positive_candidates.max(1) as f64,
            "ratio",
        ),
        m("core.candgen_s", secs(candgen), "s"),
        m(
            "core.candgen_in_run_s",
            med(&|t| t.negative.saturating_sub(t.passes.negative_wall)),
            "s",
        ),
        m("core.candgen.enumerated", enumerated, "count"),
        m("core.candgen.kept", kept, "count"),
        m(
            "core.candgen.keep_ratio",
            kept / enumerated.max(1.0),
            "ratio",
        ),
        m("core.negpass_s", med(&|t| t.passes.negative_wall), "s"),
        m("core.negatives", report.negative_itemsets as f64, "count"),
        m(
            "core.neg_yield",
            report.negative_itemsets as f64 / kept.max(1.0),
            "ratio",
        ),
        m("core.rules_s", med(&|t| t.rules), "s"),
        m("core.rules", report.rules as f64, "count"),
        m("core.unaccounted_s", unaccounted_s, "s"),
        m("core.export_s", secs(export_time), "s"),
        m("serve.snapshot.write_s", secs(write_time), "s"),
        m("serve.snapshot.bytes", snapshot_bytes as f64, "bytes"),
        m("serve.snapshot.rules", snapshot_rules as f64, "count"),
        m("serve.snapshot.load_ms", median(&load_ms), "ms"),
        m("serve.engine.parse_us", engine.parse_us, "us"),
        m("serve.engine.expand_us", engine.expand_us, "us"),
        m("serve.engine.match_us", engine.match_us, "us"),
        m("serve.engine.render_us", engine.render_us, "us"),
        m("serve.engine.answer_us", answer_us, "us"),
        m(
            "serve.engine.rules_per_answer",
            engine.rules_per_answer,
            "count",
        ),
        m("serve.engine.hit_ratio", engine.hit_ratio, "ratio"),
        m(
            "serve.oversize_answers",
            serve::oversize_answers(&prepared.expected[0]) as f64,
            "count",
        ),
        m("serve.server.wire_us", ka_p50_us - answer_us, "us"),
        m("serve.server.accept_wait_us", ch_p50_us - ka_p50_us, "us"),
        m(
            "serve.server.requests",
            counter("serve.requests") as f64,
            "count",
        ),
        m(
            "serve.server.connections",
            counter("serve.connections") as f64,
            "count",
        ),
        m(
            "serve.server.errors",
            counter("serve.errors") as f64,
            "count",
        ),
        m("serve.keepalive_qps", ka.session_medians()[0], "1/s"),
        m("serve.query_p99_us", ka.session_medians()[2], "us"),
        m("serve.churn_p99_us", quantile(&ch.latency_us, 0.99), "us"),
        m("serve.swap_ms", median(&ch.swap_ms), "ms"),
        m("loadgen.late_p99_us", quantile(&ch.late_us, 0.99), "us"),
        m("loadgen.sent", ch.sent as f64, "count"),
        m("loadgen.completed", ch.completed as f64, "count"),
        m("trace.overhead_frac", mine_s / untraced_s - 1.0, "ratio"),
        m("mine_s", mine_s, "s"),
    ] {
        result.push(metric);
    }
    Ok(result)
}

/// One traced mine: its span, its start on the tracer's clock, and the
/// times of its steps.
struct MineStages {
    span: usize,
    start: Duration,
    total: Duration,
    load: Duration,
    taxonomy_load: Duration,
    positive: Duration,
    negative: Duration,
    rules: Duration,
    passes: PassTimes,
}

/// Counting-pass times from the program's events.
struct PassTimes {
    /// `(label, start, end)` of every pass, on the tracer's clock.
    spans: Vec<(String, Duration, Duration)>,
    positive_wall: Duration,
    positive_candidates: usize,
    l2_wall: Duration,
    l2_candidates: usize,
    negative_wall: Duration,
}

impl PassTimes {
    fn from_events(events: &[(Duration, Event)]) -> Self {
        let mut t = PassTimes {
            spans: Vec::new(),
            positive_wall: Duration::ZERO,
            positive_candidates: 0,
            l2_wall: Duration::ZERO,
            l2_candidates: 0,
            negative_wall: Duration::ZERO,
        };
        let mut started = Duration::ZERO;
        for (at, e) in events {
            match e {
                Event::PassStart { .. } => started = *at,
                Event::PassEnd { stats } => {
                    t.spans.push((stats.label.clone(), started, *at));
                    if stats.label == "negative" {
                        t.negative_wall += stats.wall;
                    } else {
                        t.positive_wall += stats.wall;
                        t.positive_candidates += stats.candidates;
                        if stats.label == "L2" {
                            t.l2_wall = stats.wall;
                            t.l2_candidates = stats.candidates;
                        }
                    }
                }
                _ => {}
            }
        }
        t
    }
}

/// A replay of the hash tree's build over the L2 candidates (the pairs
/// of large 1-items that are not ancestor and descendant), whatever the
/// default backend is, so the figure keeps one meaning when the default
/// changes. The pairs must number what the mine's L2 pass counted.
fn hashtree_l2_build_s(
    tr: &Tracer,
    root: usize,
    tax: &Taxonomy,
    large: &LargeItemsets,
    l2_candidates: usize,
) -> f64 {
    let l1: Vec<ItemId> = large.level(1).map(|(s, _)| s.items()[0]).collect();
    let pairs: Vec<Itemset> = pairs_of(&l1)
        .into_iter()
        .filter(|p| !tax.related(p.items()[0], p.items()[1]))
        .collect();
    if pairs.len() != l2_candidates {
        return f64::NAN;
    }
    let (_, d) = tr.span("apriori.hashtree_l2_build.replay", Some(root), |_| {
        std::hint::black_box(HashTree::build(2, pairs));
    });
    secs(d)
}

/// Per-basket stage medians of the in-process engine replay.
struct Engine {
    baskets: u64,
    parse_us: f64,
    expand_us: f64,
    match_us: f64,
    render_us: f64,
    rules_per_answer: f64,
    hit_ratio: f64,
    errors: Vec<String>,
}

/// Answer each basket through the engine's public stages, timing each,
/// and check every rendered answer against the oracle's text.
fn engine_replay(
    tax: &Taxonomy,
    snap: &negassoc_serve::Snapshot,
    mix: &[String],
    oracle: &[String],
) -> Engine {
    let (mut parse, mut expand, mut matching, mut render) = (vec![], vec![], vec![], vec![]);
    let (mut rules, mut hits) = (0usize, 0usize);
    let mut errors = Vec::new();
    for (i, basket) in mix.iter().enumerate() {
        let t0 = Instant::now();
        let items: Option<Vec<ItemId>> = basket
            .split(',')
            .map(str::trim)
            .filter(|n| !n.is_empty())
            .map(|n| tax.id_of(n))
            .collect();
        let t1 = Instant::now();
        let Some(items) = items else {
            errors.push(format!("basket {i} names an unknown item"));
            continue;
        };
        let expanded = tax.expand_with_ancestors(items.iter().copied());
        let t2 = Instant::now();
        let matches = snap.match_expanded(&expanded);
        let t3 = Instant::now();
        let text = render_matches(tax, snap, &items, &matches);
        let t4 = Instant::now();
        for (v, (a, b)) in [&mut parse, &mut expand, &mut matching, &mut render]
            .into_iter()
            .zip([(t0, t1), (t1, t2), (t2, t3), (t3, t4)])
        {
            v.push(secs(b - a) * 1e6);
        }
        let n = matches.positive.len() + matches.negative.len();
        rules += n;
        hits += usize::from(n > 0);
        if text != oracle[i] {
            errors.push(format!(
                "engine answer to basket {i} differs from the oracle"
            ));
        }
    }
    Engine {
        baskets: mix.len() as u64,
        parse_us: median(&parse),
        expand_us: median(&expand),
        match_us: median(&matching),
        render_us: median(&render),
        rules_per_answer: rules as f64 / mix.len().max(1) as f64,
        hit_ratio: hits as f64 / mix.len().max(1) as f64,
        errors,
    }
}
