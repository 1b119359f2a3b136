//! `serve_mix`: a closed loop of two clients on two connections against an
//! in-process daemon (`serve::server::start`, two workers, every other
//! `ServeConfig` default) over localhost TCP, through
//! `serve::client::Conn`. Each client cycles through seeded shuffles of a
//! fixed deck of operations:
//!
//! * `hit` — a warm repeat of a deep, non-maximal mine (cache read);
//! * `append` — the wide base plus one fresh row, re-mined through the
//!   incremental route and stored (cache write);
//! * `small` — cache-bypassed `transversals` on small inputs of three
//!   planner rules (co-sparse, matching, and a hub-shaped family that
//!   takes the dense default) and `keys --fds` on a small Armstrong
//!   relation.
//!
//! The deck holds 7 hits, 1 append and 4 smalls. That ratio is not taken
//! from measured traffic: it was chosen so that the overall median falls
//! inside the hit class and the tail inside the append class. Claims about
//! one kind of daemon traffic rest on the per-class metrics.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use dualminer_hypergraph::{generators, plan, TrAlgorithm};
use dualminer_mining::apriori::FrequentSets;
use dualminer_mining::incremental::append_rows_ctl;
use dualminer_mining::{TransactionDb, DEFAULT_SEGMENT_ROWS};
use dualminer_obs::{Json, Meter, NoopObserver, RunCtl};
use dualminer_serve::cache::{Entry, ResultCache};
use dualminer_serve::canon;
use dualminer_serve::client::{self, Conn, Event};
use dualminer_serve::exec::{self, MineOpts};
use dualminer_serve::formats;
use dualminer_serve::job::RunOpts;
use dualminer_serve::proto::{self, CacheTag, Request, ServerCounters};
use dualminer_serve::server::{self, ServeConfig, ServerHandle};
use rand::seq::SliceRandom;

use crate::gen::{self, Quest};
use crate::stats::{self, Ending, Tally};
use crate::trace::{self, Span, Tracer};
use crate::{layers, ms, phases, with_cx, Args, Obs, Run};

const CLIENTS: usize = 2;
const WORKERS: usize = 2;
const SETUPS: usize = 5;
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// The deep input behind `hit`, mined without `--maximal`.
const HIT: Quest = Quest {
    items: 26,
    rows: 1600,
    row_size: 13,
    patterns: 12,
    pattern_size: 4,
    corruption: 0.3,
};
const HIT_SIGMA: usize = 80;

/// The wide base behind `append`.
const BASE: Quest = Quest {
    items: 26,
    rows: 20_000,
    row_size: 12,
    patterns: 12,
    pattern_size: 4,
    corruption: 0.3,
};
const BASE_SIGMA: usize = 1600;

/// The small jobs. The three hypergraph inputs are sized so the planner
/// takes the rule each is named after; the run prints the rule and backend
/// that actually ran.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Small {
    /// Co-sparse: every edge misses at most 5 of 24 vertices.
    Cosparse,
    /// A perfect matching of 13 pairs, past the few-edges rule.
    Matching,
    /// Hub-shaped, 24 edges: far below the EGM rule's 2048 edges, so it
    /// takes the dense default (MU-MMCS).
    DenseDefault,
    Keys,
}

const SMALLS: [Small; 4] = [
    Small::Cosparse,
    Small::Matching,
    Small::DenseDefault,
    Small::Keys,
];

impl Small {
    /// A transversal input's (time, backend) metric names.
    fn metric(self) -> (&'static str, &'static str) {
        match self {
            Small::Cosparse => (
                "hypergraph.plan.small_us.cosparse",
                "hypergraph.plan.small_backend.cosparse",
            ),
            Small::Matching => (
                "hypergraph.plan.small_us.matching",
                "hypergraph.plan.small_backend.matching",
            ),
            Small::DenseDefault => (
                "hypergraph.plan.small_us.dense_default",
                "hypergraph.plan.small_backend.dense_default",
            ),
            Small::Keys => unreachable!("keys runs no planner"),
        }
    }
}

/// A small input, the one-shot body it must reproduce, and for the
/// transversal jobs the planner's (rule, backend) on it.
struct SmallInput {
    text: String,
    body: String,
    plan: Option<(&'static str, &'static str)>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Op {
    Hit,
    Append,
    Small(Small),
}

impl Op {
    fn class(self) -> &'static str {
        match self {
            Op::Hit => "hit",
            Op::Append => "append",
            Op::Small(_) => "small",
        }
    }
}

fn deck() -> Vec<Op> {
    let mut d = vec![Op::Hit; 7];
    d.push(Op::Append);
    d.extend(SMALLS.map(Op::Small));
    d
}

fn inline(text: &str) -> String {
    Json::str(text).serialize()
}

fn mine_line(id: u64, text: &str, sigma: usize, cache: &str) -> String {
    format!(
        r#"{{"op":"mine","id":{id},"input":{{"inline":{}}},"min_support":"{sigma}","threads":1,"cache":"{cache}"}}"#,
        inline(text)
    )
}

/// Everything the clients need, generated from the seed before set-up.
struct Inputs {
    hit_text: String,
    base_text: String,
    /// Items in a seeded order; fresh append rows are subsets of them.
    items: Vec<usize>,
    /// Small inputs, by kind.
    small: BTreeMap<Small, SmallInput>,
}

impl Inputs {
    fn new(seed: u64) -> Result<Inputs, String> {
        let hit_text = gen::basket_text(&HIT.rows(&mut gen::rng(seed, 1)), &mut gen::rng(seed, 2));
        let base_text =
            gen::basket_text(&BASE.rows(&mut gen::rng(seed, 3)), &mut gen::rng(seed, 4));
        let mut items: Vec<usize> = (0..BASE.items).collect();
        items.shuffle(&mut gen::rng(seed, 5));
        let mut small = BTreeMap::new();
        let mut rng = gen::rng(seed, 6);
        for kind in SMALLS {
            let text = match kind {
                Small::Cosparse => {
                    gen::hypergraph_text(&generators::co_sparse(24, 5, 40, &mut rng))
                }
                Small::Matching => gen::hypergraph_text(&generators::matching(26)),
                Small::DenseDefault => {
                    gen::hypergraph_text(&generators::hub(16, 2, 24, 3, &mut rng))
                }
                Small::Keys => gen::armstrong_csv(8, 4, &mut rng).0,
            };
            let body = one_shot_small(kind, &text)?;
            let plan = (kind != Small::Keys).then(|| planned(&text));
            small.insert(kind, SmallInput { text, body, plan });
        }
        Ok(Inputs {
            hit_text,
            base_text,
            items,
            small,
        })
    }

    /// Base plus one row that no other append of this run uses: the items
    /// whose bit is set in `n` (≥ 1), through the seeded item order.
    fn append_text(&self, n: u64) -> String {
        let row: Vec<String> = (0..self.items.len())
            .filter(|&b| n & (1 << b) != 0)
            .map(|b| gen::item_name(self.items[b]))
            .collect();
        format!("{}{}\n", self.base_text, row.join(" "))
    }

    fn line(&self, op: Op, id: u64, append_n: u64) -> String {
        match op {
            Op::Hit => mine_line(id, &self.hit_text, HIT_SIGMA, "normal"),
            Op::Append => mine_line(id, &self.append_text(append_n), BASE_SIGMA, "normal"),
            Op::Small(Small::Keys) => format!(
                r#"{{"op":"keys","id":{id},"input":{{"inline":{}}},"fds":true,"threads":1,"cache":"bypass"}}"#,
                inline(&self.small[&Small::Keys].text)
            ),
            Op::Small(kind) => format!(
                r#"{{"op":"transversals","id":{id},"input":{{"inline":{}}},"threads":1,"cache":"bypass"}}"#,
                inline(&self.small[&kind].text)
            ),
        }
    }
}

/// The one-shot body of a small job, as `dualminer transversals` /
/// `dualminer keys --fds` print it.
fn one_shot_small(kind: Small, text: &str) -> Result<String, String> {
    let run = RunOpts::default();
    let obs = Obs::new(None);
    let out = if kind == Small::Keys {
        let (u, rel) = formats::parse_relation(text).map_err(|e| e.to_string())?;
        with_cx(&obs, &run, |cx| exec::keys(&u, &rel, true, &run, cx))
    } else {
        let (u, h) = formats::parse_hypergraph(text).map_err(|e| e.to_string())?;
        with_cx(&obs, &run, |cx| {
            exec::transversals(&u, &h, TrAlgorithm::Auto, &run, cx)
        })
    };
    out.map(|o| o.body).map_err(|e| e.to_string())
}

/// The planner's rule and backend on a small transversal input.
fn planned(text: &str) -> (&'static str, &'static str) {
    let (_, h) = formats::parse_hypergraph(text).expect("generated hypergraph parses");
    let meter = Meter::unlimited();
    let ctl = RunCtl::new(&meter, &NoopObserver);
    let (_, report) = plan::dualize_ctl_report(&h, TrAlgorithm::Auto, 1, &ctl);
    (report.decision.rule, report.decision.backend_name())
}

/// A from-scratch `exec::mine` of basket text, as the CLI would run it.
fn one_shot_mine(
    text: &str,
    sigma: usize,
) -> Result<(String, TransactionDb, FrequentSets), String> {
    let (u, db) = formats::parse_baskets(text).map_err(|e| e.to_string())?;
    let run = RunOpts::default();
    let (out, sets) = with_cx(&Obs::new(None), &run, |cx| {
        exec::mine(&u, &db, sigma, &MineOpts::default(), &run, cx)
    })
    .map_err(|e| e.to_string())?;
    Ok((out.body, db, sets))
}

fn terminal(events: &[Event]) -> &Event {
    events.last().expect("roundtrip returns a terminal event")
}

fn ending(ev: &Event) -> Ending {
    match (ev.kind.as_str(), ev.str_field("kind")) {
        ("result", _) => Ending::Done,
        ("error", Some("overloaded")) => Ending::Shed,
        _ => Ending::Error,
    }
}

/// Boots the daemon and fills the cache with the hit input and the append
/// base; returns the handle, its address and the two cold bodies.
fn boot(inputs: &Inputs) -> Result<(ServerHandle, String, String, String), String> {
    let handle = server::start(&ServeConfig {
        tcp: Some("127.0.0.1:0".into()),
        workers: WORKERS,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("start daemon: {e}"))?;
    let addr = handle.tcp_addr.expect("tcp listener").to_string();
    let mut conn = Conn::connect_tcp(&addr).map_err(|e| format!("connect: {e}"))?;
    let mut cold = |id: u64, text: &str, sigma: usize| -> Result<String, String> {
        let events = conn
            .roundtrip(&mine_line(id, text, sigma, "normal"), id)
            .map_err(|e| format!("prefill: {e}"))?;
        let last = terminal(&events);
        match (last.kind.as_str(), last.str_field("body")) {
            ("result", Some(body)) => Ok(body.to_string()),
            _ => Err(format!("prefill failed: {:?}", last.fields)),
        }
    };
    let hit = cold(1, &inputs.hit_text, HIT_SIGMA)?;
    let base = cold(2, &inputs.base_text, BASE_SIGMA)?;
    Ok((handle, addr, hit, base))
}

/// What the probes of the traced phase need, prepared outside any timing.
struct ProbeState {
    cache: ResultCache,
    hit_params: u64,
    hit_content: u64,
    base_db: TransactionDb,
    base_sets: FrequentSets,
    base_rows: usize,
}

impl ProbeState {
    fn new(inputs: &Inputs, hit_body: &str) -> Result<ProbeState, String> {
        let hit_params =
            match proto::parse_request(&mine_line(0, &inputs.hit_text, HIT_SIGMA, "normal")) {
                Ok(Request::Job(job)) => job.params_fingerprint(),
                _ => return Err("hit request does not parse".into()),
            };
        let hit_content = canon::canon_baskets(&inputs.hit_text)
            .map_err(|e| e.to_string())?
            .fingerprint;
        let cache = ResultCache::new(256);
        cache.insert(Entry {
            params: hit_params,
            content: hit_content,
            rows: 0,
            body: Arc::from(hit_body),
            stats: Arc::from(""),
            exit: 0,
            mine: None,
        });
        let base = canon::canon_baskets(&inputs.base_text).map_err(|e| e.to_string())?;
        let (universe, base_db) = base.build(DEFAULT_SEGMENT_ROWS);
        let run = RunOpts::default();
        let (_, base_sets) = with_cx(&Obs::new(None), &run, |cx| {
            exec::mine(
                &universe,
                &base_db,
                BASE_SIGMA,
                &MineOpts::default(),
                &run,
                cx,
            )
        })
        .map_err(|e| e.to_string())?;
        Ok(ProbeState {
            cache,
            hit_params,
            hit_content,
            base_db,
            base_sets,
            base_rows: base.rows.len(),
        })
    }
}

/// One client's record of the run.
#[derive(Default)]
struct ClientLog {
    tally: Tally,
    /// (operation, latency) of completed ops in the measured phase.
    measured: Vec<(Op, f64)>,
    /// Completed ops in the traced phase, with per-op probe counters.
    traced: Vec<(u64, Op, BTreeMap<&'static str, f64>)>,
    spans: Vec<Span>,
    mismatches: Vec<String>,
    tags: BTreeMap<String, u64>,
    last_append: Option<(u64, String)>,
    notes: Vec<String>,
}

struct Shared<'a> {
    inputs: &'a Inputs,
    addr: &'a str,
    hit_body: &'a str,
    seed: u64,
    measured: Duration,
    traced: Duration,
    start: &'a Barrier,
    mid: &'a Barrier,
    epoch: Instant,
    probes: Option<&'a ProbeState>,
}

fn client(sh: &Shared<'_>, c: usize) -> ClientLog {
    let mut log = ClientLog::default();
    let mut rng = gen::rng(sh.seed, 100 + c as u64);
    let mut conn = Conn::connect_tcp(sh.addr).ok();
    let mut tracer = Tracer::new(sh.epoch, c);
    let mut cards = Vec::new();
    let mut id = 0u64;
    let mut appends = 0u64;
    sh.start.wait();
    for (phase, length) in [(0, sh.measured), (1, sh.traced)] {
        let begin = Instant::now();
        while begin.elapsed() < length {
            if cards.is_empty() {
                cards = deck();
                cards.shuffle(&mut rng);
            }
            let op = cards.pop().expect("deck refilled");
            id += 1;
            let append_n = (c as u64 + 1) + CLIENTS as u64 * appends;
            if op == Op::Append {
                appends += 1;
            }
            let line = sh.inputs.line(op, id, append_n);
            if conn.is_none() {
                conn = Conn::connect_tcp(sh.addr).ok();
            }
            let Some(cn) = conn.as_mut() else {
                log.tally.record(Ending::Error);
                log.notes.push(format!("client {c}: cannot reconnect"));
                break;
            };
            let _ = cn.set_read_timeout(READ_TIMEOUT);
            let root = (phase == 1).then(|| tracer.open("op", id));
            let t = Instant::now();
            let result = cn.roundtrip(&line, id);
            let lat = ms(t.elapsed());
            if let Some(r) = root {
                tracer.close(r);
            }
            let events = match result {
                Ok(events) => events,
                Err(e) => {
                    log.tally.record(if client::is_timeout(&e) {
                        Ending::TimedOut
                    } else {
                        Ending::Error
                    });
                    log.notes.push(format!("client {c}: {e}"));
                    conn = None;
                    continue;
                }
            };
            let last = terminal(&events);
            let end = ending(last);
            log.tally.record(end);
            if end != Ending::Done {
                log.notes.push(format!("client {c}: {:?}", last.fields));
                continue;
            }
            let body = last.str_field("body").unwrap_or("");
            *log.tags
                .entry(format!(
                    "{}:{}",
                    op.class(),
                    last.str_field("cache").unwrap_or("?")
                ))
                .or_default() += 1;
            match op {
                Op::Hit => {
                    if body != sh.hit_body {
                        log.mismatches
                            .push(format!("hit {id}: body differs from the cold body"));
                    }
                }
                Op::Append => log.last_append = Some((append_n, body.to_string())),
                Op::Small(kind) => {
                    if body != sh.inputs.small[&kind].body {
                        log.mismatches.push(format!(
                            "{kind:?} {id}: body differs from the one-shot body"
                        ));
                    }
                }
            }
            if phase == 0 {
                log.measured.push((op, lat));
            } else if let Some(p) = sh.probes {
                let counts = probe(sh.inputs, p, op, id, append_n, last, &mut tracer);
                log.traced.push((id, op, counts));
            }
        }
        if phase == 0 {
            // The measured phase ends when every client has finished it.
            sh.mid.wait();
        }
    }
    log.spans = tracer.into_spans();
    log
}

/// Public calls that split a completed op into layers, made after it in
/// the client's thread under the same op id.
fn probe(
    inputs: &Inputs,
    p: &ProbeState,
    op: Op,
    id: u64,
    append_n: u64,
    last: &Event,
    t: &mut Tracer,
) -> BTreeMap<&'static str, f64> {
    let mut counts = BTreeMap::new();
    let meter = Meter::unlimited();
    let ctl = RunCtl::new(&meter, &NoopObserver);
    let root = t.open("probe", id);
    match op {
        Op::Hit => {
            t.span("serve.canon.canon_baskets", id, || {
                black_box(canon::canon_baskets(&inputs.hit_text).ok());
            });
            t.span("serve.cache.lookup", id, || {
                black_box(p.cache.lookup(p.hit_params, p.hit_content));
            });
            let body = last.str_field("body").unwrap_or("");
            let stats = last.str_field("stats").unwrap_or("");
            let fingerprint = last.str_field("fingerprint").unwrap_or("");
            let frame = t.span("serve.proto.ev_result", id, || {
                proto::ev_result(id, CacheTag::Hit, None, 0, fingerprint, body, stats)
            });
            t.span("obs.json.parse", id, || {
                black_box(Json::parse(&frame).ok());
            });
            counts.insert("serve.proto.frame_bytes", frame.len() as f64 + 1.0);
            counts.insert("serve.exec.body_bytes", body.len() as f64);
        }
        Op::Append => {
            let text = inputs.append_text(append_n);
            let canon = t.span("serve.canon.canon_baskets", id, || {
                canon::canon_baskets(&text)
            });
            counts.insert("serve.canon.bytes", text.len() as f64);
            if let Ok(canon) = canon {
                let rows = canon.rows_from(p.base_rows);
                let update = t.span("mining.incremental.append_rows_ctl", id, || {
                    append_rows_ctl(&p.base_db, &p.base_sets, rows, &ctl)
                        .into_parts()
                        .0
                });
                counts.insert(
                    "mining.incremental.queries",
                    (update.delta_evaluations + update.merged_evaluations) as f64,
                );
            }
        }
        Op::Small(Small::Keys) => {
            let (u, rel) = formats::parse_relation(&inputs.small[&Small::Keys].text)
                .expect("generated relation parses");
            let run = RunOpts::default();
            let obs = Obs::new(None);
            t.span("serve.exec.keys", id, || {
                black_box(with_cx(&obs, &run, |cx| exec::keys(&u, &rel, true, &run, cx)).ok());
            });
        }
        Op::Small(kind) => {
            let (_, h) = formats::parse_hypergraph(&inputs.small[&kind].text)
                .expect("generated hypergraph parses");
            t.span("hypergraph.plan.dualize_ctl_report", id, || {
                black_box(plan::dualize_ctl_report(&h, TrAlgorithm::Auto, 1, &ctl));
            });
        }
    }
    t.close(root);
    counts
}

fn class_latencies(logs: &[ClientLog], class: &str) -> Vec<f64> {
    logs.iter()
        .flat_map(|l| l.measured.iter())
        .filter(|(op, _)| op.class() == class)
        .map(|&(_, lat)| lat)
        .collect()
}

pub fn run(args: &Args) -> Result<Run, String> {
    let inputs = Inputs::new(args.seed)?;
    let mut run = Run::default();

    // Set-up: daemon boot plus cache pre-fill, repeated; the last daemon
    // serves the run. Each earlier daemon stops before the next boots, so
    // every set-up starts with no daemon running.
    let mut booted: Option<(ServerHandle, String, String, String)> = None;
    for rep in 0..SETUPS {
        let prev = booted.take().map(|(old, _, hit, base)| {
            old.shutdown();
            old.join();
            (hit, base)
        });
        let t = Instant::now();
        let (handle, addr, hit, base) = boot(&inputs)?;
        run.setups_s.push(crate::secs(t));
        if let Some((prev_hit, prev_base)) = prev {
            run.check(hit == prev_hit && base == prev_base, || {
                format!("set-up {rep}: cold bodies differ between boots")
            });
        }
        booted = Some((handle, addr, hit, base));
    }
    let (handle, addr, hit_body, base_body) = booted.expect("at least one set-up");

    let result = measure(args, &inputs, &handle, &addr, &hit_body, &mut run);
    handle.shutdown();
    handle.join();
    let logs = result?;

    // Correctness after the window: each client's last append equals a
    // from-scratch mine of the same input.
    let (base_scratch, _, _) = one_shot_mine(&inputs.base_text, BASE_SIGMA)?;
    run.check(base_scratch == base_body, || {
        "append base: cold daemon body differs from a one-shot mine".into()
    });
    for (c, log) in logs.iter().enumerate() {
        run.mismatches.extend(log.mismatches.iter().cloned());
        run.notes.extend(log.notes.iter().take(5).cloned());
        if let Some((n, body)) = &log.last_append {
            let (scratch, _, _) = one_shot_mine(&inputs.append_text(*n), BASE_SIGMA)?;
            run.check(&scratch == body, || {
                format!("client {c}: last append differs from a from-scratch mine")
            });
        }
    }
    let mut tags: BTreeMap<String, u64> = BTreeMap::new();
    for log in &logs {
        for (k, v) in &log.tags {
            *tags.entry(k.clone()).or_default() += v;
        }
    }
    run.notes.push(format!("cache tags: {tags:?}"));
    for (kind, input) in &inputs.small {
        if let Some((rule, backend)) = input.plan {
            run.notes.push(format!(
                "small {kind:?}: planner rule {rule}, backend {backend}"
            ));
            if args.trace {
                run.layers
                    .insert(kind.metric().1, layers::backend_id(backend));
            }
        }
    }
    for class in ["hit", "append", "small"] {
        let lat = class_latencies(&logs, class);
        run.notes.push(format!(
            "{class}: {} ops, p50 {:.3} ms; {}",
            lat.len(),
            stats::median(&lat),
            stats::tail(&lat).map_or("no tail".into(), |t| format!(
                "tail {:.3} ms at p{:.2} of {}",
                t.value, t.percentile, t.samples
            ))
        ));
    }
    if args.trace {
        traced_layers(args, &logs, &mut run)?;
    }
    Ok(run)
}

fn measure(
    args: &Args,
    inputs: &Inputs,
    handle: &ServerHandle,
    addr: &str,
    hit_body: &str,
    run: &mut Run,
) -> Result<Vec<ClientLog>, String> {
    let probes = if args.trace {
        Some(ProbeState::new(inputs, hit_body)?)
    } else {
        None
    };
    let (measured, traced) = phases(args);
    let start = Barrier::new(CLIENTS + 1);
    let mid = Barrier::new(CLIENTS + 1);
    let shared = Shared {
        inputs,
        addr,
        hit_body,
        seed: args.seed,
        measured,
        traced,
        start: &start,
        mid: &mid,
        epoch: Instant::now(),
        probes: probes.as_ref(),
    };
    let before = handle.counters();
    let logs = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let sh = &shared;
                s.spawn(move || client(sh, c))
            })
            .collect();
        start.wait();
        let t = Instant::now();
        mid.wait();
        run.window_s = t.elapsed().as_secs_f64();
        clients
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect::<Vec<_>>()
    });
    let after = handle.counters();
    run.peak_rss_mb = crate::peak_rss_mb();
    for log in &logs {
        run.tally.merge(&log.tally);
    }
    run.latencies_ms = logs
        .iter()
        .flat_map(|l| l.measured.iter().map(|&(_, lat)| lat))
        .collect();
    if args.trace {
        server_layers(&logs, &before, &after, run);
    }
    Ok(logs)
}

fn server_layers(
    logs: &[ClientLog],
    before: &ServerCounters,
    after: &ServerCounters,
    run: &mut Run,
) {
    let normal: u64 = logs
        .iter()
        .flat_map(|l| l.tags.iter())
        .filter(|(k, _)| k.starts_with("hit:") || k.starts_with("append:"))
        .map(|(_, v)| v)
        .sum();
    let hits = after.hits - before.hits;
    let l = &mut run.layers;
    l.insert("serve.cache.hits", hits as f64);
    l.insert("serve.cache.misses", normal.saturating_sub(hits) as f64);
    l.insert(
        "serve.cache.incremental",
        (after.incremental - before.incremental) as f64,
    );
    l.insert(
        "serve.cache.hit_ratio",
        if normal > 0 {
            hits as f64 / normal as f64
        } else {
            0.0
        },
    );
    l.insert("serve.cache.entries", after.cache_entries as f64);
    l.insert(
        "serve.cache.evictions",
        (after.cache_evictions - before.cache_evictions) as f64,
    );
    l.insert("serve.server.errors", (after.errors - before.errors) as f64);
    let shed = |c: &ServerCounters| c.shed_queue_full + c.shed_conn_limit + c.shed_deadline;
    l.insert("serve.server.shed", (shed(after) - shed(before)) as f64);
    l.insert(
        "serve.server.coalesced",
        (after.coalesced - before.coalesced) as f64,
    );
}

fn traced_layers(args: &Args, logs: &[ClientLog], run: &mut Run) -> Result<(), String> {
    let spans = trace::merge(logs.iter().map(|l| l.spans.clone()).collect());
    let per_op = trace::per_op(&spans);
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut op_ms: Vec<f64> = Vec::new();
    let mut hit_ms: Vec<f64> = Vec::new();
    for (c, log) in logs.iter().enumerate() {
        for (id, op, counts) in &log.traced {
            let Some(d) = per_op.get(&(c, *id)) else {
                continue;
            };
            let g = |name: &str| d.get(name).copied().unwrap_or(0) as f64 / 1e6;
            let mut put = |name: &'static str, v: f64| samples.entry(name).or_default().push(v);
            let op_time = g("op");
            op_ms.push(op_time);
            match op {
                Op::Hit => {
                    hit_ms.push(op_time);
                    let (canon, lookup, enc, dec) = (
                        g("serve.canon.canon_baskets"),
                        g("serve.cache.lookup"),
                        g("serve.proto.ev_result"),
                        g("obs.json.parse"),
                    );
                    put("serve.cache.lookup_us", lookup * 1e3);
                    put("serve.proto.encode_ms", enc);
                    put("serve.proto.decode_ms", dec);
                    put(
                        "serve.client.transport_ms",
                        op_time - canon - lookup - enc - dec,
                    );
                }
                Op::Append => {
                    put("serve.canon.ms", g("serve.canon.canon_baskets"));
                    put(
                        "mining.incremental.ms",
                        g("mining.incremental.append_rows_ctl"),
                    );
                }
                Op::Small(Small::Keys) => put("fdep.keys.ms", g("serve.exec.keys")),
                Op::Small(kind) => put(
                    kind.metric().0,
                    g("hypergraph.plan.dualize_ctl_report") * 1e3,
                ),
            }
            for (&name, &v) in counts {
                put(name, v);
            }
        }
    }
    for (name, v) in samples {
        run.layers.insert(name, stats::median(&v));
    }
    let l = &mut run.layers;
    let hit_base = stats::median(&class_latencies(logs, "hit"));
    l.insert(
        "bench.trace.overhead_pct",
        100.0 * (stats::median(&hit_ms) - hit_base) / hit_base,
    );
    l.insert("bench.op_ms", stats::median(&op_ms));
    l.insert("failed_share", run.tally.failed_share());
    for class in ["hit", "append", "small"] {
        let lat = class_latencies(logs, class);
        let (p50, tail) = match class {
            "hit" => ("hit_p50_ms", "hit_tail_ms"),
            "append" => ("append_p50_ms", "append_tail_ms"),
            _ => ("small_p50_ms", "small_tail_ms"),
        };
        l.insert(p50, stats::median(&lat));
        l.insert(
            tail,
            stats::tail(&lat).map_or_else(|| lat.iter().copied().fold(0.0, f64::max), |t| t.value),
        );
    }
    crate::write_spans(args, &spans, run)
}
