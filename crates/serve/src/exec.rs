//! Job execution and rendering, shared by the CLI and the daemon.
//!
//! Each public function here is one subcommand body — engine routing,
//! fault tolerance, checkpoint resume, budget handling, and output
//! formatting — turned into a function from parsed input to a rendered
//! output string. The CLI prints the string to stdout; the daemon ships
//! it in a `result` event and stores it in the result cache. Because
//! both frontends run *this* code, a cached daemon answer is byte-equal
//! to a cold CLI run by construction.
//!
//! Nothing here writes to stdout. Narration that the CLI used to
//! `eprintln!` (checkpoint-resume notes, the engine choice) goes through
//! [`ExecCtx::note`], which the CLI points at stderr and the daemon at
//! the client's progress stream.

use std::fmt::Write as _;

use dualminer_bitset::{AttrSet, Universe};
use dualminer_core::border::{verify_maxth, VerifyOutcome};
use dualminer_core::checkpoint::{
    Aborted, CheckpointCfg, FaultCtl, ResumeState, DUALIZE_ADVANCE_KIND, LEVELWISE_KIND,
};
use dualminer_core::dualize_advance::{dualize_advance_try_ctl, DualizeAdvanceConfig};
use dualminer_core::fallible::FaultyOracle;
use dualminer_core::levelwise::levelwise_par_try_ctl;
use dualminer_core::oracle::FamilyOracle;
use dualminer_fdep::fd::minimal_fd_lhs_via_agree_sets;
use dualminer_fdep::keys::{minimal_keys_via_agree_sets, KeyDiscovery, NonSuperkeyOracle};
use dualminer_fdep::Relation;
use dualminer_hypergraph::{plan, Hypergraph, TrAlgorithm};
use dualminer_mining::apriori::FrequentSets;
use dualminer_mining::incremental::{append_rows_ctl, IncrementalUpdate};
use dualminer_mining::rules::association_rules;
use dualminer_mining::seg::{apriori_par_seg_ctl, AprioriSegState, APRIORI_SEG_KIND};
use dualminer_mining::{EclatCfg, FrequencyOracle, TransactionDb};
use dualminer_obs::checkpoint::Envelope;
use dualminer_obs::{
    BudgetReason, DualizeStats, FileCheckpoint, Meter, MiningObserver, RunCtl, RunError,
    StatsCollector,
};

use crate::formats::{self, FormatError};
use crate::job::RunOpts;

/// A job failure, typed by failure class. Exit codes are assigned by the
/// frontends (CLI `CliError`, daemon `error` events) but agree: parse
/// errors are 3, I/O and checkpoint errors 4, surviving oracle faults 5.
#[derive(Clone, Debug, PartialEq)]
pub enum JobError {
    /// An input could not be parsed.
    Format(FormatError),
    /// File or checkpoint I/O failure, including corrupt or mismatched
    /// checkpoints.
    Io(String),
    /// An oracle fault survived the retry budget.
    Fault(String),
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Format(e) => write!(f, "{e}"),
            JobError::Io(msg) | JobError::Fault(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for JobError {}

/// Everything a job body needs from its frontend: the live budget meter,
/// the observer (stats + progress), the stats collector for engine
/// counter injection, a narration sink, and the worker-thread request.
pub struct ExecCtx<'a> {
    /// The started budget.
    pub meter: &'a Meter,
    /// Event sink: feeds the stats collector and any progress stream.
    pub observer: &'a dyn MiningObserver,
    /// The stats collector behind `observer`, for out-of-band counter
    /// injection (planner/engine counters on transversal runs).
    pub stats: &'a StatsCollector,
    /// Narration sink (`note: …` lines): stderr for the CLI, the
    /// client's progress stream for the daemon.
    pub note: &'a dyn Fn(&str),
    /// Requested worker threads (0 = auto, 1 = sequential).
    pub threads: usize,
}

impl ExecCtx<'_> {
    fn ctl(&self) -> RunCtl<'_> {
        RunCtl::new(self.meter, self.observer)
    }
}

/// A rendered job result.
#[derive(Clone, Debug, PartialEq)]
pub struct JobOutput {
    /// The complete stdout body, byte-equal to what the one-shot CLI
    /// prints for the same input and flags (stats line excluded).
    pub body: String,
    /// Why the run stopped early, if it did (the body then holds the
    /// partial prefix).
    pub reason: Option<BudgetReason>,
    /// `verify-dual` answered "not dual" (exit 1 on the CLI).
    pub not_dual: bool,
}

impl JobOutput {
    fn complete(body: String) -> JobOutput {
        JobOutput {
            body,
            reason: None,
            not_dual: false,
        }
    }
}

/// `mine` output options.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MineOpts {
    /// Minimum confidence for association-rule output (absent = none).
    pub rules: Option<f64>,
    /// Also print the maximal sets + negative border.
    pub maximal: bool,
}

macro_rules! out {
    ($body:expr, $($arg:tt)*) => {
        { let _ = writeln!($body, $($arg)*); }
    };
}

fn note_partial(body: &mut String, reason: BudgetReason) {
    out!(body, "\nNOTE: budget exceeded ({reason}); results below are the partial prefix computed before the limit.");
}

fn names(universe: &Universe, set: &AttrSet) -> String {
    set.iter()
        .map(|i| universe.name(i))
        .collect::<Vec<_>>()
        .join(", ")
}

// ---------------------------------------------------------------------------
// Checkpoint plumbing
// ---------------------------------------------------------------------------

/// Reads the checkpoint envelope once when `--resume` was given. A missing
/// checkpoint file starts from scratch (so the same command line works for
/// the first run and every rerun); a corrupt file is an error, never
/// silent data loss. The caller routes on the envelope's `kind` and
/// decodes it for its engine with [`decode_core`] or [`decode_seg`].
fn load_envelope(run: &RunOpts, cx: &ExecCtx<'_>) -> Result<Option<Envelope>, JobError> {
    if !run.resume {
        return Ok(None);
    }
    // The frontends enforce --resume ⇒ --checkpoint; defend without
    // panicking.
    let Some(path) = run.checkpoint.as_deref() else {
        return Err(JobError::Io("--resume requires --checkpoint".into()));
    };
    let envelope = FileCheckpoint::new(path)
        .load()
        .map_err(|e| JobError::Io(e.to_string()))?;
    if envelope.is_none() {
        (cx.note)(&format!(
            "note: checkpoint {path:?} not found; starting from scratch"
        ));
    }
    Ok(envelope)
}

/// The error for a checkpoint another engine wrote.
fn foreign_checkpoint(run: &RunOpts, kind: &str, expected: &str) -> JobError {
    let path = run.checkpoint.as_deref().unwrap_or_default();
    JobError::Io(format!(
        "checkpoint {path:?} holds a {kind} run, expected {expected}"
    ))
}

/// Announces a decoded resume state.
fn note_resuming(run: &RunOpts, cx: &ExecCtx<'_>) {
    let path = run.checkpoint.as_deref().unwrap_or_default();
    (cx.note)(&format!("note: resuming from checkpoint {path:?}"));
}

/// Decodes a core driver state (levelwise or Dualize-and-Advance) for an
/// engine that resumes `expect_kind`.
fn decode_core(
    envelope: Option<Envelope>,
    expect_kind: &str,
    run: &RunOpts,
    cx: &ExecCtx<'_>,
) -> Result<Option<ResumeState>, JobError> {
    let Some(envelope) = envelope else {
        return Ok(None);
    };
    let state = ResumeState::from_envelope(&envelope).map_err(|e| JobError::Io(e.to_string()))?;
    if state.kind() != expect_kind {
        return Err(foreign_checkpoint(run, state.kind(), expect_kind));
    }
    note_resuming(run, cx);
    Ok(Some(state))
}

/// Decodes the frequent-set engine's state.
fn decode_seg(
    envelope: Option<Envelope>,
    run: &RunOpts,
    cx: &ExecCtx<'_>,
) -> Result<Option<AprioriSegState>, JobError> {
    let Some(envelope) = envelope else {
        return Ok(None);
    };
    if envelope.kind != APRIORI_SEG_KIND {
        return Err(foreign_checkpoint(run, &envelope.kind, APRIORI_SEG_KIND));
    }
    let state =
        AprioriSegState::from_json(&envelope.payload).map_err(|e| JobError::Io(e.to_string()))?;
    note_resuming(run, cx);
    Ok(Some(state))
}

/// Converts an aborted fallible run into the error for its cause,
/// pointing the user at `--resume` when a safe point was persisted.
fn abort_error(aborted: Aborted, checkpoint: Option<&str>, cx: &ExecCtx<'_>) -> JobError {
    let Aborted { error, resume } = aborted;
    match error {
        RunError::Oracle(e) => {
            if let (Some(path), true) = (checkpoint, resume.is_some()) {
                (cx.note)(&format!(
                    "note: progress saved to {path:?}; re-run with --resume to continue"
                ));
            }
            JobError::Fault(e.to_string())
        }
        RunError::Checkpoint(msg) => JobError::Io(msg),
    }
}

// ---------------------------------------------------------------------------
// mine
// ---------------------------------------------------------------------------

/// Renders the full `mine` body (header, itemsets, maximal block, rules)
/// from a mined collection. Shared verbatim by the cold and incremental
/// paths, so their outputs can only differ if the collections do.
fn render_mine(
    universe: &Universe,
    db: &TransactionDb,
    sigma: usize,
    fs: &FrequentSets,
    opts: &MineOpts,
    reason: Option<BudgetReason>,
    observer: &dyn MiningObserver,
) -> String {
    let mut body = String::new();
    out!(
        body,
        "{} transactions, {} items, min support {} rows",
        db.n_rows(),
        db.n_items(),
        sigma
    );
    if let Some(r) = reason {
        note_partial(&mut body, r);
    }
    out!(body, "\n{} frequent itemsets:", fs.itemsets().len());
    for (set, support) in fs.itemsets() {
        if set.is_empty() {
            continue;
        }
        out!(
            body,
            "  {:<30} support {} ({:.1}%)",
            universe.display(set),
            support,
            100.0 * *support as f64 / db.n_rows() as f64
        );
    }
    if opts.maximal {
        out!(body, "\nMaximal frequent sets (MTh):");
        for m in &fs.maximal {
            out!(body, "  {}", universe.display(m));
        }
        out!(body, "Negative border (certificate of completeness):");
        for b in &fs.negative_border {
            out!(body, "  {}", universe.display(b));
        }
        if reason.is_none() {
            // Corollary 4 — belt and braces for the user. Its Theorem 7
            // dualization goes through the planner like every other
            // dualization here.
            observer.on_phase_start("selfcheck");
            let check = verify_maxth(
                &mut FrequencyOracle::new(db, sigma),
                &fs.maximal,
                TrAlgorithm::Auto,
            );
            observer.on_phase_end("selfcheck");
            render_verdict(&mut body, universe, &check, &fs.negative_border);
        } else {
            out!(body, "(not verified: run was cut short, the family is maximal only within the mined prefix)");
        }
    }
    if let Some(conf) = opts.rules {
        if reason.is_none() {
            let rules = association_rules(fs, conf);
            out!(
                body,
                "\n{} association rules (confidence ≥ {conf}):",
                rules.len()
            );
            for r in &rules {
                out!(body, "  {}", r.display(universe));
            }
        } else {
            out!(
                body,
                "\n(association rules skipped: supports are incomplete on a partial run)"
            );
        }
    }
    body
}

/// Renders the Corollary 4 verdict on the printed `MTh` together with the
/// certificate of the printed negative border: verified only if the
/// oracle accepts the whole border of `MTh` *and* the printed `Bd⁻` is
/// the one Theorem 7 gives. A failure names its first witness.
fn render_verdict(
    body: &mut String,
    universe: &Universe,
    check: &VerifyOutcome,
    printed_border: &[AttrSet],
) {
    let mismatch = check.border_difference(printed_border);
    out!(
        body,
        "Verified: {} ({} oracle queries = |Bd⁺|+|Bd⁻|)",
        check.is_maxth && mismatch.is_none(),
        check.queries
    );
    if let Some(c) = &check.counterexample {
        out!(body, "  counterexample: {}", universe.display(c));
    }
    if let Some(d) = mismatch {
        out!(
            body,
            "  negative border differs from Theorem 7's at {}",
            universe.display(d)
        );
    }
}

/// Mines `db` at absolute threshold `sigma` and renders the `mine` body.
///
/// Two engine routes, bit-identical on complete runs: injected faults or
/// retries (or resuming a `levelwise` checkpoint) take the fault-tolerant
/// generic levelwise engine; everything else takes the frequent-set
/// engine ([`apriori_par_seg_ctl`]), with a checkpoint sink when
/// `--checkpoint` is given and the resume state of an `apriori-seg`
/// checkpoint. Without a sink the engine counts each level in one range;
/// with one it adds a safe point after every row segment.
///
/// Returns the rendered output plus the mined collection (which the
/// daemon caches to power incremental re-mining; the CLI drops it).
pub fn mine(
    universe: &Universe,
    db: &TransactionDb,
    sigma: usize,
    opts: &MineOpts,
    run: &RunOpts,
    cx: &ExecCtx<'_>,
) -> Result<(JobOutput, FrequentSets), JobError> {
    cx.observer.on_phase_start("mine");
    let envelope = load_envelope(run, cx)?;
    let fallible = run.fault_inject.is_some()
        || run.retry > 0
        || envelope.as_ref().is_some_and(|e| e.kind == LEVELWISE_KIND);
    let sink = run.checkpoint.as_deref().map(FileCheckpoint::new);
    let (fs, reason) = if fallible {
        // Fault-tolerant route: the generic levelwise engine over a
        // (possibly fault-injected) frequency oracle — retries,
        // checkpoint/resume — then exact supports recomputed from the
        // database. Bit-identical to apriori on the same input.
        let resume = match decode_core(envelope, LEVELWISE_KIND, run, cx)? {
            Some(ResumeState::Levelwise(state)) => Some(state),
            _ => None,
        };
        let fault = match &sink {
            Some(s) => FaultCtl::checkpointed(run.retry_policy(), s, run.checkpoint_cadence()),
            None => FaultCtl::with_retry(run.retry_policy()),
        };
        let spec = run.fault_inject.clone().unwrap_or_default();
        let oracle = FaultyOracle::new(FrequencyOracle::new(db, sigma), &spec);
        match levelwise_par_try_ctl(&oracle, cx.threads, &cx.ctl(), &fault, resume) {
            Ok(outcome) => {
                let (lw, reason) = outcome.into_parts();
                (FrequentSets::from_levelwise(db, sigma, &lw), reason)
            }
            Err(aborted) => {
                cx.observer.on_phase_end("mine");
                return Err(abort_error(aborted, run.checkpoint.as_deref(), cx));
            }
        }
    } else {
        let resume = decode_seg(envelope, run, cx)?;
        let ckpt = sink.as_ref().map(|s| CheckpointCfg {
            sink: s,
            every: run.checkpoint_cadence(),
        });
        match apriori_par_seg_ctl(
            db,
            sigma,
            cx.threads,
            &cx.ctl(),
            ckpt.as_ref(),
            resume,
            &EclatCfg::default(),
        ) {
            Ok(outcome) => outcome.into_parts(),
            Err(RunError::Checkpoint(msg)) => {
                cx.observer.on_phase_end("mine");
                return Err(JobError::Io(msg));
            }
            Err(RunError::Oracle(e)) => {
                cx.observer.on_phase_end("mine");
                return Err(JobError::Fault(e.to_string()));
            }
        }
    };
    cx.observer.on_phase_end("mine");
    let body = render_mine(universe, db, sigma, &fs, opts, reason, cx.observer);
    Ok((
        JobOutput {
            body,
            reason,
            not_dual: false,
        },
        fs,
    ))
}

/// Incremental re-mining: extends a cached mined collection by appended
/// rows through the FUP-style border update instead of from-scratch
/// work, then renders through the same [`render_mine`] as the cold path.
///
/// On a complete run the update is proven bit-identical to mining the
/// merged database from scratch (itemsets, maximal sets, negative
/// border, per-level candidate accounting), so the rendered body is
/// byte-equal to a cold run on the appended input. Returns the merged
/// database and collection for re-caching under the new fingerprint.
pub fn mine_incremental(
    universe: &Universe,
    old_db: &TransactionDb,
    old: &FrequentSets,
    new_rows: Vec<AttrSet>,
    opts: &MineOpts,
    cx: &ExecCtx<'_>,
) -> (JobOutput, IncrementalUpdate) {
    cx.observer.on_phase_start("mine");
    let sigma = old.min_support();
    let (update, reason) = append_rows_ctl(old_db, old, new_rows, &cx.ctl()).into_parts();
    cx.observer.on_phase_end("mine");
    let body = render_mine(
        universe,
        &update.db,
        sigma,
        &update.frequent,
        opts,
        reason,
        cx.observer,
    );
    (
        JobOutput {
            body,
            reason,
            not_dual: false,
        },
        update,
    )
}

// ---------------------------------------------------------------------------
// keys
// ---------------------------------------------------------------------------

/// Discovers minimal keys (and optionally minimal FDs) of a relation and
/// renders the `keys` body.
pub fn keys(
    universe: &Universe,
    rel: &Relation,
    fds: bool,
    run: &RunOpts,
    cx: &ExecCtx<'_>,
) -> Result<JobOutput, JobError> {
    keys_with(universe, rel, fds, run, cx, TrAlgorithm::Auto)
}

/// [`keys`] with every dualization run by `algo`. The body does not
/// depend on `algo`; tests pin that against forced backends.
fn keys_with(
    universe: &Universe,
    rel: &Relation,
    fds: bool,
    run: &RunOpts,
    cx: &ExecCtx<'_>,
    algo: TrAlgorithm,
) -> Result<JobOutput, JobError> {
    let mut body = String::new();
    out!(body, "{} rows × {} attributes", rel.n_rows(), rel.n_attrs());
    cx.observer.on_phase_start("keys");
    let (keys, reason) = if run.fault_tolerant() {
        // Fault-tolerant route: Dualize & Advance under the restricted
        // Is-interesting model (non-superkey oracle) — MTh = maximal
        // agree sets, Bd⁻ = minimal keys.
        let resume = match decode_core(load_envelope(run, cx)?, DUALIZE_ADVANCE_KIND, run, cx)? {
            Some(ResumeState::DualizeAdvance(state)) => Some(state),
            _ => None,
        };
        let sink = run.checkpoint.as_deref().map(FileCheckpoint::new);
        let fault = match &sink {
            Some(s) => FaultCtl::checkpointed(run.retry_policy(), s, run.checkpoint_cadence()),
            None => FaultCtl::with_retry(run.retry_policy()),
        };
        let spec = run.fault_inject.clone().unwrap_or_default();
        let mut oracle = FaultyOracle::new(NonSuperkeyOracle::new(rel), &spec);
        match dualize_advance_try_ctl(
            &mut oracle,
            algo,
            &DualizeAdvanceConfig::default(),
            1,
            &cx.ctl(),
            &fault,
            resume,
        ) {
            Ok(outcome) => {
                let (da, reason) = outcome.into_parts();
                (
                    KeyDiscovery {
                        minimal_keys: da.negative_border,
                        maximal_non_superkeys: da.maximal,
                        queries: da.queries,
                    },
                    reason,
                )
            }
            Err(aborted) => {
                cx.observer.on_phase_end("keys");
                return Err(abort_error(aborted, run.checkpoint.as_deref(), cx));
            }
        }
    } else {
        (minimal_keys_via_agree_sets(rel, algo), None)
    };
    cx.observer.on_phase_end("keys");
    if let Some(r) = reason {
        note_partial(&mut body, r);
    }
    if keys.minimal_keys.is_empty() && reason.is_none() {
        out!(body, "\nNo keys: the relation contains duplicate rows.");
    } else {
        out!(body, "\nMinimal keys:");
        for k in &keys.minimal_keys {
            out!(body, "  {{{}}}", names(universe, k));
        }
    }
    out!(body, "Maximal agree sets:");
    for ag in &keys.maximal_non_superkeys {
        out!(body, "  {{{}}}", names(universe, ag));
    }
    if fds {
        out!(body, "\nMinimal functional dependencies:");
        let mut any = false;
        for target in 0..rel.n_attrs() {
            let d = minimal_fd_lhs_via_agree_sets(rel, target, algo);
            for lhs in &d.minimal_lhs {
                any = true;
                out!(
                    body,
                    "  {{{}}} → {}",
                    names(universe, lhs),
                    universe.name(target)
                );
            }
        }
        if !any {
            out!(body, "  (none)");
        }
    }
    Ok(JobOutput {
        body,
        reason,
        not_dual: false,
    })
}

// ---------------------------------------------------------------------------
// transversals
// ---------------------------------------------------------------------------

/// Flattens a planner report into the stats-artifact record: the executed
/// backend and rule always, engine counters only where that backend
/// collects them (so e.g. a Berge run stamps no `tr_nodes`).
fn dualize_stats(report: &plan::PlanReport) -> DualizeStats {
    let mu = report.mu.as_ref();
    DualizeStats {
        backend: report.decision.backend_name().to_string(),
        rule: report.decision.rule.to_string(),
        nodes: mu.map(|m| m.nodes),
        emitted: mu.map(|m| m.emitted),
        minimality_prunes: mu.map(|m| m.minimality_prunes),
        dead_branches: mu.map(|m| m.dead_branches),
        crit_removals: mu.map(|m| m.crit_removals),
        crit_restores: mu.map(|m| m.crit_restores),
        egm_splits: report.egm.as_ref().map(|e| e.splits),
        egm_leaves: report.egm.as_ref().map(|e| e.leaves),
    }
}

/// Computes Tr(H) and renders the `transversals` body.
pub fn transversals(
    universe: &Universe,
    h: &Hypergraph,
    algo: TrAlgorithm,
    run: &RunOpts,
    cx: &ExecCtx<'_>,
) -> Result<JobOutput, JobError> {
    let mut body = String::new();
    out!(
        body,
        "hypergraph: {} vertices, {} edges (simple: {})",
        h.universe_size(),
        h.len(),
        h.is_simple()
    );
    cx.observer.on_phase_start("transversals");
    let (edges, reason, engine) = if run.fault_tolerant() {
        // Fault-tolerant route via Theorem 7: against the family oracle
        // of edge complements, "uninteresting" = transversal, so a
        // Dualize & Advance run delivers Bd⁻ = Tr(H).
        let resume = match decode_core(load_envelope(run, cx)?, DUALIZE_ADVANCE_KIND, run, cx)? {
            Some(ResumeState::DualizeAdvance(state)) => Some(state),
            _ => None,
        };
        let sink = run.checkpoint.as_deref().map(FileCheckpoint::new);
        let fault = match &sink {
            Some(s) => FaultCtl::checkpointed(run.retry_policy(), s, run.checkpoint_cadence()),
            None => FaultCtl::with_retry(run.retry_policy()),
        };
        let spec = run.fault_inject.clone().unwrap_or_default();
        let complements: Vec<_> = h.edges().iter().map(AttrSet::complement).collect();
        let mut oracle =
            FaultyOracle::new(FamilyOracle::new(h.universe_size(), complements), &spec);
        match dualize_advance_try_ctl(
            &mut oracle,
            algo,
            &DualizeAdvanceConfig::default(),
            cx.threads,
            &cx.ctl(),
            &fault,
            resume,
        ) {
            Ok(outcome) => {
                let (da, reason) = outcome.into_parts();
                (
                    da.negative_border,
                    reason,
                    format!("dualize-advance/{}", plan::algo_name(algo)),
                )
            }
            Err(aborted) => {
                cx.observer.on_phase_end("transversals");
                return Err(abort_error(aborted, run.checkpoint.as_deref(), cx));
            }
        }
    } else {
        // Planner path: `--algo auto` resolves through the instance-shape
        // planner; the report carries what actually ran plus the engine's
        // search counters, injected into the stats artifact from up here
        // (obs sits below hypergraph, same pattern as the scheduler
        // counters).
        let (outcome, report) = plan::dualize_ctl_report(h, algo, cx.threads, &cx.ctl());
        cx.stats.set_dualize(dualize_stats(&report));
        let (tr, reason) = outcome.into_parts();
        let engine = if algo == TrAlgorithm::Auto {
            format!(
                "{} (planner: {})",
                report.decision.backend_name(),
                report.decision.rule
            )
        } else {
            report.decision.backend_name().to_string()
        };
        (tr.edges().to_vec(), reason, engine)
    };
    cx.observer.on_phase_end("transversals");
    if let Some(r) = reason {
        note_partial(&mut body, r);
    }
    // Engine choice is narration, not results: the note channel keeps
    // the body bit-identical across engines computing the same Tr(H)
    // (notably a warm cache hit vs. the cold run that filled it); the
    // machine-readable copy is the stats JSON `planner_choice`.
    (cx.note)(&format!("note: engine {engine}"));
    out!(body, "\nTr(H): {} minimal transversals:", edges.len());
    for t in &edges {
        out!(body, "  {{{}}}", names(universe, t));
    }
    Ok(JobOutput {
        body,
        reason,
        not_dual: false,
    })
}

// ---------------------------------------------------------------------------
// verify-dual
// ---------------------------------------------------------------------------

/// Decides whether `g = Tr(f)` without enumerating. Parses both texts
/// over one merged vertex dictionary (so the families land in the same
/// universe even when each mentions only its own vertex names), then
/// runs the witness checker. The body is the verdict line; `not_dual`
/// carries the exit-1 verdict.
pub fn verify_dual_pair(
    f_text: &str,
    g_text: &str,
    f_label: &str,
    g_label: &str,
) -> Result<JobOutput, JobError> {
    let mut vocab: Vec<String> = Vec::new();
    let mut index = std::collections::HashMap::new();
    let f_raw = formats::parse_hypergraph_raw(f_text, &mut vocab, &mut index)
        .map_err(|e| JobError::Format(e.in_file(f_label)))?;
    let g_raw = formats::parse_hypergraph_raw(g_text, &mut vocab, &mut index)
        .map_err(|e| JobError::Format(e.in_file(g_label)))?;
    let n = vocab.len();
    let f =
        formats::hypergraph_from_raw(n, f_raw).map_err(|e| JobError::Format(e.in_file(f_label)))?;
    let g =
        formats::hypergraph_from_raw(n, g_raw).map_err(|e| JobError::Format(e.in_file(g_label)))?;
    if dualminer_hypergraph::verify_dual(&f, &g) {
        Ok(JobOutput::complete("dual\n".to_string()))
    } else {
        Ok(JobOutput {
            body: "not dual\n".to_string(),
            reason: None,
            not_dual: true,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dualminer_core::border::positive_border;
    use dualminer_fdep::agree::maximal_agree_sets;
    use dualminer_mining::gen::{quest, random_antichain, QuestParams};
    use dualminer_obs::{Budget, NoopObserver};
    use rand::{rngs::StdRng, SeedableRng};

    /// Runs `f` under a fresh context on `meter`, returning its result and
    /// the stats line the run would print.
    fn with_cx<T>(meter: &Meter, f: impl FnOnce(&ExecCtx<'_>) -> T) -> (T, String) {
        let stats = StatsCollector::new();
        let note = |_: &str| {};
        let cx = ExecCtx {
            meter,
            observer: &stats,
            stats: &stats,
            note: &note,
            threads: 1,
        };
        let out = f(&cx);
        (out, stats.to_json(meter, None))
    }

    fn quest_db(seed: u64, rows: usize) -> TransactionDb {
        let params = QuestParams {
            n_items: 16,
            n_transactions: rows,
            avg_transaction_size: 7,
            avg_pattern_size: 4,
            n_patterns: 10,
            corruption: 0.3,
        };
        quest(&params, &mut StdRng::seed_from_u64(seed))
    }

    const MAXIMAL: MineOpts = MineOpts {
        rules: None,
        maximal: true,
    };

    /// The body with its verdict replaced by the one Corollary 4 gives
    /// when its dualization is forced through Berge.
    fn with_berge_verdict(
        body: &str,
        u: &Universe,
        db: &TransactionDb,
        fs: &FrequentSets,
    ) -> String {
        let check = verify_maxth(
            &mut FrequencyOracle::new(db, fs.min_support()),
            &fs.maximal,
            TrAlgorithm::Berge,
        );
        let mut expected = body[..body.find("Verified: ").expect("a verdict")].to_string();
        render_verdict(&mut expected, u, &check, &fs.negative_border);
        expected
    }

    /// Whether the planner sends the self-check's dualization anywhere
    /// but Berge, i.e. whether the instance tests the planner route.
    fn planned_off_berge(fs: &FrequentSets) -> bool {
        let comps = fs.maximal.iter().map(AttrSet::complement).collect();
        let h = Hypergraph::from_edges(fs.n_items(), comps).unwrap();
        plan::plan(&h).backend != TrAlgorithm::Berge
    }

    #[test]
    fn selfcheck_through_the_planner_matches_forced_berge() {
        let u = Universe::letters(16);
        let mut off_berge = 0;
        for seed in [3, 11] {
            let db = quest_db(seed, 300);
            for sigma in [6, 15, 40, 90] {
                let meter = Meter::unlimited();
                let ((out, fs), stats) = with_cx(&meter, |cx| {
                    mine(&u, &db, sigma, &MAXIMAL, &RunOpts::default(), cx).unwrap()
                });
                assert!(out.body.contains("Verified: true ("), "σ={sigma}");
                let q = fs.maximal.len() + fs.negative_border.len();
                assert!(out.body.contains(&format!("({q} oracle queries")));
                assert_eq!(out.body, with_berge_verdict(&out.body, &u, &db, &fs));
                assert!(stats.contains(r#"{"name":"selfcheck","ms":"#), "{stats}");
                off_berge += usize::from(planned_off_berge(&fs));
            }
        }
        assert!(off_berge > 0, "no instance left the Berge rules");
    }

    #[test]
    fn incremental_selfcheck_matches_cold_and_forced_berge() {
        let u = Universe::letters(16);
        let all = quest_db(5, 360);
        let (base_rows, new_rows) = all.rows().split_at(300);
        let base = TransactionDb::new(16, base_rows.to_vec());
        for sigma in [8, 20, 50] {
            let meter = Meter::unlimited();
            let ((_, old), _) = with_cx(&meter, |cx| {
                mine(&u, &base, sigma, &MAXIMAL, &RunOpts::default(), cx).unwrap()
            });
            let ((inc, update), stats) = with_cx(&meter, |cx| {
                mine_incremental(&u, &base, &old, new_rows.to_vec(), &MAXIMAL, cx)
            });
            let ((cold, _), _) = with_cx(&meter, |cx| {
                mine(&u, &all, sigma, &MAXIMAL, &RunOpts::default(), cx).unwrap()
            });
            assert_eq!(inc.body, cold.body, "σ={sigma}");
            assert!(inc.body.contains("Verified: true ("));
            let expected = with_berge_verdict(&inc.body, &u, &update.db, &update.frequent);
            assert_eq!(inc.body, expected);
            assert!(stats.contains(r#"{"name":"selfcheck","ms":"#), "{stats}");
        }
    }

    #[test]
    fn budget_tripped_runs_print_not_verified() {
        let u = Universe::letters(16);
        let db = quest_db(3, 300);
        let budget = Budget {
            max_queries: Some(40),
            ..Budget::UNLIMITED
        };
        let meter = budget.start();
        let ((out, _), stats) = with_cx(&meter, |cx| {
            mine(&u, &db, 6, &MAXIMAL, &RunOpts::default(), cx).unwrap()
        });
        assert!(out.reason.is_some());
        assert!(out.body.contains("(not verified: run was cut short"));
        assert!(!out.body.contains("Verified:"));
        assert!(!stats.contains("selfcheck"), "{stats}");

        // The incremental route, tripped on its own budget.
        let (base_rows, new_rows) = db.rows().split_at(250);
        let base = TransactionDb::new(16, base_rows.to_vec());
        let ((_, old), _) = with_cx(&Meter::unlimited(), |cx| {
            mine(&u, &base, 6, &MAXIMAL, &RunOpts::default(), cx).unwrap()
        });
        let meter = budget.start();
        let ((inc, _), _) = with_cx(&meter, |cx| {
            mine_incremental(&u, &base, &old, new_rows.to_vec(), &MAXIMAL, cx)
        });
        assert!(inc.reason.is_some());
        assert!(inc.body.contains("(not verified: run was cut short"));
    }

    fn render(u: &Universe, db: &TransactionDb, fs: &FrequentSets) -> String {
        let sigma = fs.min_support();
        render_mine(u, db, sigma, fs, &MAXIMAL, None, &NoopObserver)
    }

    #[test]
    fn tampered_maxth_is_not_verified() {
        let u = Universe::letters(16);
        let db = quest_db(3, 300);
        let meter = Meter::unlimited();
        let ((_, fs), _) = with_cx(&meter, |cx| {
            mine(&u, &db, 15, &MAXIMAL, &RunOpts::default(), cx).unwrap()
        });
        assert!(render(&u, &db, &fs).contains("Verified: true ("));

        // Dropping a maximal set leaves it frequent but outside the claim:
        // a Theorem 7 border set under it is frequent.
        let mut dropped = fs.clone();
        dropped.maximal.pop();
        let body = render(&u, &db, &dropped);
        assert!(body.contains("Verified: false ("), "{body}");
        assert!(body.contains("  counterexample: "), "{body}");

        // Growing a maximal set by an item (keeping an antichain) makes
        // it infrequent: the check fails on the claim itself.
        let grown = (0..16)
            .find_map(|i| {
                let mut g = fs.clone();
                let last = g.maximal.last_mut().unwrap();
                if last.contains(i) {
                    return None;
                }
                last.insert(i);
                (positive_border(&g.maximal).len() == g.maximal.len()).then_some(g)
            })
            .expect("some item keeps the claim an antichain");
        let body = render(&u, &db, &grown);
        let claim = u.display(grown.maximal.last().unwrap());
        assert!(body.contains("Verified: false ("), "{body}");
        assert!(
            body.contains(&format!("  counterexample: {claim}\n")),
            "{body}"
        );
    }

    #[test]
    fn tampered_negative_border_is_not_verified() {
        let u = Universe::letters(16);
        let db = quest_db(11, 300);
        let meter = Meter::unlimited();
        let ((_, fs), _) = with_cx(&meter, |cx| {
            mine(&u, &db, 15, &MAXIMAL, &RunOpts::default(), cx).unwrap()
        });

        let mut missing = fs.clone();
        let gone = missing.negative_border.remove(0);
        let body = render(&u, &db, &missing);
        let line = format!(
            "  negative border differs from Theorem 7's at {}\n",
            u.display(&gone)
        );
        assert!(body.contains("Verified: false ("), "{body}");
        assert!(body.contains(&line), "{body}");
        // The oracle half of the check still passes: only the printed
        // certificate was wrong.
        assert!(!body.contains("counterexample"), "{body}");

        let mut extra = fs.clone();
        let stray = fs.maximal[0].clone();
        extra.negative_border.push(stray.clone());
        extra.negative_border.sort_by(|a, b| a.cmp_card_lex(b));
        let body = render(&u, &db, &extra);
        assert!(body.contains("Verified: false ("), "{body}");
        assert!(body.contains(&format!(
            "differs from Theorem 7's at {}\n",
            u.display(&stray)
        )));
    }

    /// An Armstrong relation whose maximal agree sets are a seeded random
    /// antichain of `m` sets over `n` attributes.
    fn armstrong(seed: u64, n: usize, m: usize) -> Relation {
        let mut rng = StdRng::seed_from_u64(seed);
        let plants = random_antichain(n, m, n / 2, &mut rng);
        Relation::armstrong(n, &plants)
    }

    fn keys_body(rel: &Relation, run: &RunOpts, algo: TrAlgorithm) -> String {
        let u = Universe::letters(rel.n_attrs());
        let meter = Meter::unlimited();
        let (out, _) = with_cx(&meter, |cx| keys_with(&u, rel, true, run, cx, algo));
        out.unwrap().body
    }

    #[test]
    fn keys_and_fds_under_the_planner_match_forced_berge() {
        let fault_tolerant = RunOpts {
            retry: 1,
            ..RunOpts::default()
        };
        let mut off_berge = 0;
        for seed in 0..6 {
            let n = if seed % 2 == 0 { 10 } else { 16 };
            let rel = armstrong(seed, n, 18);
            let comps = maximal_agree_sets(&rel)
                .iter()
                .map(AttrSet::complement)
                .collect();
            let h = Hypergraph::from_edges(n, comps).unwrap();
            off_berge += usize::from(plan::plan(&h).backend != TrAlgorithm::Berge);
            for run in [RunOpts::default(), fault_tolerant.clone()] {
                let auto = keys_body(&rel, &run, TrAlgorithm::Auto);
                assert_eq!(
                    auto,
                    keys_body(&rel, &run, TrAlgorithm::Berge),
                    "seed {seed}"
                );
                assert!(auto.contains("Minimal keys:"));
            }
        }
        assert!(off_berge > 0, "no relation left the Berge rules");
    }
}
