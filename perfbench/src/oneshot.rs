//! The one-shot workloads: what `dualminer mine FILE` runs, minus process
//! start — `serve::formats` reads and parses the generated basket file,
//! `serve::exec::mine` mines and renders. One caller, `threads = 1`,
//! cycling over a few seeded draws.

use std::collections::BTreeMap;
use std::fs::File;
use std::hint::black_box;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use dualminer_bitset::{AttrSet, Universe};
use dualminer_core::candidates::prefix_join_batch;
use dualminer_hypergraph::{plan, verify_dual, Hypergraph, TrAlgorithm};
use dualminer_mining::apriori::{apriori_par_ctl, FrequentSets};
use dualminer_mining::seg::apriori_par_seg_ctl;
use dualminer_mining::{EclatCfg, TransactionDb, VStoreBuilder, DEFAULT_SEGMENT_ROWS};
use dualminer_obs::{Meter, NoopObserver, RunCtl};
use dualminer_serve::client::Conn;
use dualminer_serve::exec::{self, MineOpts};
use dualminer_serve::formats;
use dualminer_serve::job::RunOpts;
use dualminer_serve::server::{self, ServeConfig};

use rand::Rng;

use crate::gen::{self, Quest};
use crate::stats::{self, Ending};
use crate::trace::{self, Tracer};
use crate::{layers, ms, phases, with_cx, Args, Obs, Run, WorkDir};

/// One one-shot workload.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub quest: Quest,
    /// Absolute support threshold (rows).
    pub sigma: usize,
    /// Seeded draws the run cycles over.
    pub draws: usize,
    /// `mine --maximal`: the borders plus the Corollary 4 self-check.
    pub maximal: bool,
    /// Support threshold of a mine with a checkpoint file at the default
    /// cadence, which routes to the segment-major engine. The traced run
    /// makes one per operation, and the gate checks its body against plain
    /// mining. It is no timed operation of its own: its time follows the
    /// disk's fsync latency, which on a shared host drifts too far between
    /// runs for an end-to-end bound.
    pub ckpt_sigma: Option<usize>,
}

pub fn spec(name: &str) -> Spec {
    let base = Quest {
        items: 26,
        rows: 20_000,
        row_size: 12,
        patterns: 12,
        pattern_size: 4,
        corruption: 0.3,
    };
    match name {
        // Deep lattice at 20% support: the self-check dominates.
        "oneshot_deep" => Spec {
            name: "oneshot_deep",
            quest: Quest {
                rows: 1600,
                row_size: 13,
                ..base
            },
            sigma: 320,
            draws: 15,
            maximal: true,
            ckpt_sigma: None,
        },
        // Many rows at 6% support, no self-check: support counting and
        // candidate generation dominate. The checkpointed mine runs at 15%.
        "oneshot_wide" => Spec {
            name: "oneshot_wide",
            quest: base,
            sigma: 1200,
            draws: 3,
            maximal: false,
            ckpt_sigma: Some(3000),
        },
        other => unreachable!("not a one-shot workload: {other}"),
    }
}

/// Set-ups per run, at least; `setup_s` is their median. A one-shot
/// set-up is one untimed job. Set-up mines every draw equally often, so
/// the median does not hang on which few draws a seed puts first.
const SETUPS: usize = 15;

/// Itemsets per draw whose supports are re-counted row by row.
const SUPPORT_SAMPLE: usize = 64;

struct Draw {
    path: PathBuf,
    bytes: u64,
    /// The first body mined from this draw; every later one must match.
    reference: Option<String>,
}

/// One mined job, kept for the probes and the correctness gate.
struct Mined {
    universe: Universe,
    db: TransactionDb,
    sets: FrequentSets,
    body: String,
}

/// Optional caller-side spans: a no-op outside the traced phase.
struct Spans<'a>(Option<&'a mut Tracer>);

impl Spans<'_> {
    fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        match self.0.as_deref_mut() {
            Some(t) => t.span(name, op, f),
            None => f(),
        }
    }
}

fn ckpt_opts(work: &WorkDir) -> RunOpts {
    RunOpts {
        checkpoint: Some(work.file("mine.ckpt").to_string_lossy().into_owned()),
        ..RunOpts::default()
    }
}

/// The operation: read + parse the file, mine, render — the CLI's `mine`.
fn job(
    spec: &Spec,
    path: &Path,
    run: &RunOpts,
    obs: &Obs,
    spans: &mut Spans<'_>,
    op: u64,
) -> Result<Mined, String> {
    let (universe, db) = spans.span("serve.formats.parse_baskets_reader", op, || {
        let file = File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
        formats::parse_baskets_reader(BufReader::new(file), DEFAULT_SEGMENT_ROWS)
            .map_err(|e| e.to_string())
    })?;
    let opts = MineOpts {
        rules: None,
        maximal: spec.maximal,
    };
    let (out, sets) = spans
        .span("serve.exec.mine", op, || {
            with_cx(obs, run, |cx| {
                exec::mine(&universe, &db, spec.sigma, &opts, run, cx)
            })
        })
        .map_err(|e| e.to_string())?;
    Ok(Mined {
        universe,
        db,
        sets,
        body: out.body,
    })
}

/// Public calls that split the operation into layers, made after it
/// under the same operation id. Returns the deterministic counters.
fn probe(
    spec: &Spec,
    m: &Mined,
    work: &WorkDir,
    t: &mut Tracer,
    op: u64,
) -> BTreeMap<&'static str, f64> {
    let mut counts = BTreeMap::new();
    let meter = Meter::unlimited();
    let ctl = RunCtl::new(&meter, &NoopObserver);
    let root = t.open("probe", op);

    let rows: Vec<Vec<usize>> = m.db.rows().iter().map(|r| r.iter().collect()).collect();
    t.span("mining.vstore.build", op, || {
        let mut b = VStoreBuilder::new(DEFAULT_SEGMENT_ROWS);
        for r in &rows {
            b.push_row(r.iter().copied());
        }
        black_box(b.finish());
    });
    if spec.maximal {
        let plain = MineOpts::default();
        let obs = Obs::new(None);
        let run = RunOpts::default();
        t.span("serve.exec.mine.plain", op, || {
            with_cx(&obs, &run, |cx| {
                black_box(exec::mine(&m.universe, &m.db, spec.sigma, &plain, &run, cx)).ok();
            })
        });
    }
    let sets = t.span("mining.apriori.apriori_par_ctl", op, || {
        apriori_par_ctl(&m.db, spec.sigma, 1, &ctl).into_parts().0
    });
    counts.insert("mining.apriori.queries", sets.queries() as f64);
    counts.insert("mining.apriori.itemsets", sets.itemsets().len() as f64);

    // Candidate generation, level by level, on the levels apriori built.
    let mut levels: Vec<Vec<Vec<usize>>> = vec![vec![vec![]]];
    for (set, _) in sets.itemsets() {
        let card = set.len();
        if levels.len() <= card {
            levels.resize(card + 1, Vec::new());
        }
        levels[card].push(set.iter().collect());
    }
    let n = m.db.n_items();
    let mut count = 0usize;
    for (k, level) in levels.iter().enumerate() {
        let batch = t.span("core.candidates.prefix_join_batch", op, || {
            prefix_join_batch(n, k + 1, level, |v| v.as_slice())
        });
        count += batch.len();
    }
    counts.insert("core.candidates.count", count as f64);

    if spec.maximal {
        let comps: Vec<AttrSet> = m.sets.maximal.iter().map(AttrSet::complement).collect();
        let h = Hypergraph::from_edges(n, comps).expect("complements share the universe");
        let (out, report) = t.span("hypergraph.plan.dualize_ctl_report", op, || {
            plan::dualize_ctl_report(&h, TrAlgorithm::Auto, 1, &ctl)
        });
        counts.insert(
            "hypergraph.plan.transversals",
            out.into_parts().0.len() as f64,
        );
        counts.insert(
            "hypergraph.plan.backend",
            layers::backend_id(report.decision.backend_name()),
        );
        counts.insert(
            "hypergraph.plan.nodes",
            report.mu.map_or(0.0, |mu| mu.nodes as f64),
        );
    }
    if let Some(sigma) = spec.ckpt_sigma {
        let plain = MineOpts::default();
        let ckpt = ckpt_opts(work);
        let file = work.file("mine.ckpt");
        let obs = Obs::new(Some(&file));
        t.span("serve.exec.mine.checkpointed", op, || {
            with_cx(&obs, &ckpt, |cx| {
                black_box(exec::mine(&m.universe, &m.db, sigma, &plain, &ckpt, cx)).ok();
            })
        });
        counts.insert(
            "core.checkpoint.saves",
            obs.saves.load(Ordering::Relaxed) as f64,
        );
        counts.insert(
            "core.checkpoint.bytes_written",
            obs.bytes.load(Ordering::Relaxed) as f64,
        );
        let run = RunOpts::default();
        t.span("serve.exec.mine.no_checkpoint", op, || {
            with_cx(&Obs::new(None), &run, |cx| {
                black_box(exec::mine(&m.universe, &m.db, sigma, &plain, &run, cx)).ok();
            })
        });
        t.span("mining.seg.apriori_par_seg_ctl", op, || {
            black_box(
                apriori_par_seg_ctl(&m.db, sigma, 1, &ctl, None, None, &EclatCfg::default()).ok(),
            );
        });
    }
    t.close(root);
    counts
}

/// Per-operation layer times (ms) from the spans, by difference where a
/// layer has no entry point of its own.
fn attribute(spec: &Spec, d: &BTreeMap<&'static str, u64>) -> BTreeMap<&'static str, f64> {
    let g = |name: &str| d.get(name).copied().unwrap_or(0) as f64 / 1e6;
    let mine = g("serve.exec.mine");
    let plain = if spec.maximal {
        g("serve.exec.mine.plain")
    } else {
        mine
    };
    let apriori_call = g("mining.apriori.apriori_par_ctl");
    let candidates = g("core.candidates.prefix_join_batch");
    let render = plain - apriori_call;
    let op = g("op");
    let mut out = BTreeMap::new();
    out.insert(
        "serve.formats.parse_ms",
        g("serve.formats.parse_baskets_reader") - g("mining.vstore.build"),
    );
    out.insert("mining.vstore.build_ms", g("mining.vstore.build"));
    out.insert("mining.apriori.ms", apriori_call - candidates);
    out.insert("core.candidates.ms", candidates);
    out.insert("serve.exec.render_ms", render);
    out.insert("bench.op_ms", op);
    out.insert("bench.share.apriori_pct", 100.0 * apriori_call / op);
    if spec.maximal {
        let check = mine - plain;
        out.insert("core.border.selfcheck_ms", check);
        out.insert("bench.share.selfcheck_pct", 100.0 * check / op);
        out.insert(
            "hypergraph.plan.dualize_ms",
            g("hypergraph.plan.dualize_ctl_report"),
        );
    }
    if spec.ckpt_sigma.is_some() {
        // What the checkpoint file adds to a mine: the writes, and the
        // switch to the segment engine it causes.
        let with = g("serve.exec.mine.checkpointed");
        let ckpt = with - g("serve.exec.mine.no_checkpoint");
        out.insert("mining.seg.ms", g("mining.seg.apriori_par_seg_ctl"));
        out.insert("core.checkpoint.ms", ckpt);
        out.insert("bench.share.checkpoint_pct", 100.0 * ckpt / with);
    }
    out
}

/// Keeps a draw's first job as its reference; later bodies must match it.
fn accept(run: &mut Run, draws: &mut [Draw], kept: &mut [Option<Mined>], k: usize, m: Mined) {
    match &draws[k].reference {
        None => {
            draws[k].reference = Some(m.body.clone());
            kept[k] = Some(m);
        }
        Some(r) => run.check(*r == m.body, || {
            format!("draw {k}: body differs from the run's first body")
        }),
    }
}

/// `Verified: true (N oracle queries …)` → N.
fn verified_queries(body: &str) -> Option<u64> {
    let rest = body.split("Verified: true (").nth(1)?;
    rest.split_whitespace().next()?.parse().ok()
}

pub fn run(args: &Args, spec: Spec) -> Result<Run, String> {
    let work = WorkDir::new(args).map_err(|e| format!("work dir: {e}"))?;
    let mut draws: Vec<Draw> = (0..spec.draws)
        .map(|k| {
            let rows = spec.quest.rows(&mut gen::rng(args.seed, 2 * k as u64));
            let text = gen::basket_text(&rows, &mut gen::rng(args.seed, 2 * k as u64 + 1));
            let path = work.file(&format!("{}-{k}.txt", spec.name));
            std::fs::write(&path, &text).map(|()| Draw {
                path,
                bytes: text.len() as u64,
                reference: None,
            })
        })
        .collect::<Result<_, _>>()
        .map_err(|e| format!("write input: {e}"))?;
    let run_opts = RunOpts::default();
    let mut run = Run::default();
    // Kept from each draw's first job for the checks after the window.
    let mut kept: Vec<Option<Mined>> = (0..spec.draws).map(|_| None).collect();

    // Set-up: untimed warm-up jobs over every draw; setup_s is their
    // median. Each draw's first body becomes its reference.
    for rep in 0..spec.draws * SETUPS.div_ceil(spec.draws) {
        let k = rep % spec.draws;
        let t = Instant::now();
        let m = job(
            &spec,
            &draws[k].path,
            &run_opts,
            &Obs::new(None),
            &mut Spans(None),
            0,
        )?;
        run.setups_s.push(crate::secs(t));
        accept(&mut run, &mut draws, &mut kept, k, m);
    }

    let (measured, traced) = phases(args);
    let mut op = 0u64;
    let start = Instant::now();
    while start.elapsed() < measured {
        let k = op as usize % spec.draws;
        let t = Instant::now();
        let result = job(
            &spec,
            &draws[k].path,
            &run_opts,
            &Obs::new(None),
            &mut Spans(None),
            op,
        );
        let lat = ms(t.elapsed());
        op += 1;
        match result {
            Ok(m) => {
                run.tally.record(Ending::Done);
                run.latencies_ms.push(lat);
                accept(&mut run, &mut draws, &mut kept, k, m);
            }
            Err(e) => {
                run.tally.record(Ending::Error);
                run.notes.push(format!("job error: {e}"));
            }
        }
    }
    run.window_s = start.elapsed().as_secs_f64();
    run.peak_rss_mb = crate::peak_rss_mb();

    if args.trace {
        traced_phase(
            args, &spec, &draws, &run_opts, &work, traced, &mut run, &mut op,
        )?;
    }

    gate(args, &spec, &draws, &kept, &work, &mut run)?;
    Ok(run)
}

#[allow(clippy::too_many_arguments)]
fn traced_phase(
    args: &Args,
    spec: &Spec,
    draws: &[Draw],
    run_opts: &RunOpts,
    work: &WorkDir,
    length: Duration,
    run: &mut Run,
    op: &mut u64,
) -> Result<(), String> {
    let epoch = Instant::now();
    let mut t = Tracer::new(epoch, 0);
    let mut op_ms = Vec::new();
    let mut counters: BTreeMap<u64, BTreeMap<&'static str, f64>> = BTreeMap::new();
    while epoch.elapsed() < length {
        let k = *op as usize % spec.draws;
        let obs = Obs::new(None);
        let root = t.open("op", *op);
        let result = job(
            spec,
            &draws[k].path,
            run_opts,
            &obs,
            &mut Spans(Some(&mut t)),
            *op,
        );
        t.close(root);
        let m = match result {
            Ok(m) => m,
            Err(e) => {
                run.tally.record(Ending::Error);
                run.notes.push(format!("job error: {e}"));
                *op += 1;
                continue;
            }
        };
        run.tally.record(Ending::Done);
        run.check(
            draws[k].reference.as_deref() == Some(m.body.as_str()),
            || format!("draw {k}: traced body differs from the run's first body"),
        );
        let mut c = probe(spec, &m, work, &mut t, *op);
        c.insert("serve.formats.bytes", draws[k].bytes as f64);
        c.insert("serve.exec.body_bytes", m.body.len() as f64);
        if spec.maximal {
            c.insert(
                "core.border.queries",
                verified_queries(&m.body).map_or(0.0, |q| q as f64),
            );
        }
        counters.insert(*op, c);
        *op += 1;
    }
    let spans = t.into_spans();
    let per_op = trace::per_op(&spans);
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (id, c) in counters {
        let d = &per_op[&(0, id)];
        op_ms.push(d.get("op").copied().unwrap_or(0) as f64 / 1e6);
        for (name, v) in attribute(spec, d).into_iter().chain(c) {
            samples.entry(name).or_default().push(v);
        }
    }
    for (name, v) in samples {
        run.layers.insert(name, stats::median(&v));
    }
    let base = stats::median(&run.latencies_ms);
    let traced = stats::median(&op_ms);
    run.layers
        .insert("bench.trace.overhead_pct", 100.0 * (traced - base) / base);
    run.layers.insert("failed_share", run.tally.failed_share());
    run.notes.push(format!(
        "traced {} ops; op p50 {traced:.3} ms traced vs {base:.3} ms untraced",
        op_ms.len()
    ));
    let backend = run
        .layers
        .get("hypergraph.plan.backend")
        .map(|&id| layers::BACKENDS.get(id as usize).copied().unwrap_or("?"));
    if let (true, Some(b)) = (spec.maximal, backend) {
        run.notes
            .push(format!("planner backend on complements of MTh: {b}"));
    }
    for (name, self_ns) in trace::self_by_name(&spans) {
        run.notes.push(format!(
            "self time {name}: {:.3} ms total",
            self_ns as f64 / 1e6
        ));
    }
    crate::write_spans(args, &spans, run)
}

/// The correctness gate, outside the timed window.
fn gate(
    args: &Args,
    spec: &Spec,
    draws: &[Draw],
    kept: &[Option<Mined>],
    work: &WorkDir,
    run: &mut Run,
) -> Result<(), String> {
    for (k, m) in kept.iter().enumerate() {
        let m = m.as_ref().expect("set-up mines every draw");
        if spec.maximal {
            run.check(verified_queries(&m.body).is_some(), || {
                format!("draw {k}: body lacks `Verified: true`")
            });
            // Bd⁻ must equal Tr(complements of MTh), by an independent
            // duality test.
            let n = m.db.n_items();
            let comps: Vec<AttrSet> = m.sets.maximal.iter().map(AttrSet::complement).collect();
            let f = Hypergraph::from_edges(n, comps).expect("same universe");
            let g =
                Hypergraph::from_edges(n, m.sets.negative_border.clone()).expect("same universe");
            run.check(verify_dual(&f, &g), || {
                format!("draw {k}: Bd⁻ is not Tr(complements of MTh)")
            });
        }
        // Supports of a seeded sample, re-counted row by row.
        let sets = m.sets.itemsets();
        let mut rng = gen::rng(args.seed, 1000 + k as u64);
        for _ in 0..SUPPORT_SAMPLE.min(sets.len()) {
            let (set, support) = &sets[rng.gen_range(0..sets.len())];
            let horizontal = m.db.support_horizontal(set);
            run.check(horizontal == *support && *support >= spec.sigma, || {
                format!("draw {k}: support of {set:?} is {horizontal}, body says {support}")
            });
        }
        for b in m.sets.negative_border.iter().take(SUPPORT_SAMPLE) {
            run.check(m.db.support_horizontal(b) < spec.sigma, || {
                format!("draw {k}: negative-border member {b:?} is frequent")
            });
        }
        if let Some(sigma) = spec.ckpt_sigma {
            // The checkpointed engine must render what plain mining does.
            let opts = MineOpts::default();
            let body = |run: &RunOpts| {
                with_cx(&Obs::new(None), run, |cx| {
                    exec::mine(&m.universe, &m.db, sigma, &opts, run, cx)
                })
                .map(|(out, _)| out.body)
                .map_err(|e| e.to_string())
            };
            let same = body(&ckpt_opts(work))? == body(&RunOpts::default())?;
            run.check(same, || {
                format!("draw {k}: checkpointed body differs from the plain body")
            });
        }
    }
    daemon_cold_check(spec, draws, run)
}

/// Every draw's body must equal the daemon's cold body for the same file.
fn daemon_cold_check(spec: &Spec, draws: &[Draw], run: &mut Run) -> Result<(), String> {
    let handle = server::start(&ServeConfig {
        tcp: Some("127.0.0.1:0".into()),
        workers: 1,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("start daemon: {e}"))?;
    let addr = handle.tcp_addr.expect("tcp listener").to_string();
    let result = (|| -> Result<(), String> {
        let mut conn = Conn::connect_tcp(&addr).map_err(|e| format!("connect: {e}"))?;
        for (k, d) in draws.iter().enumerate() {
            let path = dualminer_obs::Json::str(d.path.to_string_lossy()).serialize();
            let line = format!(
                r#"{{"op":"mine","id":{k},"input":{{"path":{path}}},"min_support":"{}","maximal":{},"threads":1,"cache":"bypass"}}"#,
                spec.sigma, spec.maximal
            );
            let events = conn
                .roundtrip(&line, k as u64)
                .map_err(|e| format!("daemon: {e}"))?;
            let last = events.last().expect("terminal event");
            run.check(
                last.kind == "result" && last.str_field("body") == d.reference.as_deref(),
                || format!("draw {k}: daemon cold body differs from the one-shot body"),
            );
        }
        Ok(())
    })();
    handle.shutdown();
    handle.join();
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_the_verified_query_count() {
        let body = "x\nVerified: true (1234 oracle queries = |Bd⁺|+|Bd⁻|)\n";
        assert_eq!(verified_queries(body), Some(1234));
        assert_eq!(verified_queries("Verified: false (3 oracle"), None);
    }

    #[test]
    fn attribution_by_difference() {
        let spec = spec("oneshot_deep");
        let d: BTreeMap<&'static str, u64> = [
            ("op", 100_000_000),
            ("serve.formats.parse_baskets_reader", 5_000_000),
            ("mining.vstore.build", 1_000_000),
            ("serve.exec.mine", 95_000_000),
            ("serve.exec.mine.plain", 15_000_000),
            ("mining.apriori.apriori_par_ctl", 10_000_000),
            ("core.candidates.prefix_join_batch", 2_000_000),
        ]
        .into_iter()
        .collect();
        let a = attribute(&spec, &d);
        assert_eq!(a["serve.formats.parse_ms"], 4.0);
        assert_eq!(a["core.border.selfcheck_ms"], 80.0);
        assert_eq!(a["serve.exec.render_ms"], 5.0);
        assert_eq!(a["mining.apriori.ms"], 8.0);
        assert_eq!(a["bench.share.selfcheck_pct"], 80.0);

        let d: BTreeMap<&'static str, u64> = [
            ("serve.exec.mine.checkpointed", 400_000_000),
            ("serve.exec.mine.no_checkpoint", 100_000_000),
            ("mining.seg.apriori_par_seg_ctl", 30_000_000),
        ]
        .into_iter()
        .collect();
        let a = attribute(&super::spec("oneshot_wide"), &d);
        assert_eq!(a["core.checkpoint.ms"], 300.0);
        assert_eq!(a["mining.seg.ms"], 30.0);
        assert_eq!(a["bench.share.checkpoint_pct"], 75.0);
    }
}
