//! The Apriori engine: Algorithm 9 for frequent sets over the segmented
//! vertical store, with optional checkpointing between row segments.
//!
//! Supports are *recorded*, not just thresholded (association rules need
//! them), and counting reuses the parent's tid structure (Eclat/dEclat):
//! a level `i+1` candidate is the union of its generating parent and its
//! join partner, so its support is one streaming AND (tidsets) or ANDNOT
//! (diffsets) pass instead of `i+1` intersections — see [`crate::vstore`].
//! The query structure is that of the generic
//! [`dualminer_core::levelwise::levelwise`] run against a
//! [`crate::FrequencyOracle`], so every Theorem 10/12 statement about the
//! generic algorithm applies verbatim.
//!
//! **The range schedule.** Each level counts its candidate batch over a
//! list of contiguous segment ranges, chosen from the caller's arguments:
//!
//! * without a checkpoint sink, one range from the resume cursor (`0` on a
//!   fresh run) to the end — one contiguous AND/ANDNOT-popcount per
//!   candidate ([`crate::VStore::count_pair_range`]);
//! * with a sink, one range per segment and a safe point after each, so on
//!   a database whose row count dwarfs its level widths (the out-of-core
//!   regime `--segment-rows` targets) a crash loses at most one segment
//!   pass instead of a whole level.
//!
//! Counts accumulate in the deterministic prefix-join order. A candidate
//! records its query, and may be emitted, when its count completes in its
//! level's final range; that pass also materializes the child node of
//! every survivor in the worker that counted it.
//!
//! **Representation-free state.** The checkpoint payload stores only
//! candidate-level facts: the theory with supports, the negative border,
//! per-level candidate counts, the query total, and (mid-level) the
//! per-candidate partial counts with the segment cursor. Tidset/diffset
//! choices are deliberately *not* recorded: a range count is
//! `|t(c) ∩ segments[range]|`, which both representations compute
//! exactly, so a resumed run may rebuild its frontier as plain tidsets
//! ([`crate::VStore::tidset_node`]) and continue the accumulation
//! byte-for-byte.
//!
//! Because every safe point is a state the from-scratch run passes through
//! with the same `(collections, partial counts, queries)`, a resumed run
//! replays the remaining suffix verbatim: `Th`/`MTh`/`Bd⁻`,
//! `candidates_per_level`, supports, and the Theorem 10 query totals come
//! out bit-identical to an uninterrupted run — for every segment size,
//! thread count, schedule and [`EclatCfg`] (asserted by the tests below).

use std::ops::Range;
use std::sync::OnceLock;

use dualminer_bitset::{AttrSet, SetTrie};
use dualminer_core::candidates::prefix_join_batch;
use dualminer_core::checkpoint::{
    field, set_from_json, set_to_json, uint_field, uints_field, CheckpointCfg,
};
use dualminer_obs::checkpoint::CheckpointError;
use dualminer_obs::{BudgetReason, Json, Outcome, RunCtl, RunError};

use crate::apriori::FrequentSets;
use crate::vstore::{EclatCfg, EclatNode};
use crate::TransactionDb;

/// Envelope `kind` for segment-major Apriori checkpoints.
pub const APRIORI_SEG_KIND: &str = "apriori-seg";

/// Mid-level progress: the segment cursor plus per-candidate partial
/// counts of the level currently being counted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SegPartial {
    /// Cardinality of the level being counted (= the number of completed
    /// levels, since level 0 is cardinality 0).
    pub card: usize,
    /// Segments fully accumulated into `counts`.
    pub segs_done: usize,
    /// `|t(candidate) ∩ segments[..segs_done]|` per candidate, in the
    /// deterministic prefix-join emission order.
    pub counts: Vec<u64>,
}

/// Segment-major Apriori state at a safe point (a segment or level
/// boundary).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AprioriSegState {
    /// Universe size the run was started with.
    pub n: usize,
    /// Rows of the database (resume refuses a database of another shape).
    pub n_rows: usize,
    /// Absolute support threshold of the run.
    pub min_support: usize,
    /// `Th` so far with exact supports, in discovery order.
    pub itemsets: Vec<(AttrSet, usize)>,
    /// `Bd⁻` members found so far, in discovery order.
    pub negative: Vec<AttrSet>,
    /// Candidates evaluated per completed level.
    pub candidates_per_level: Vec<usize>,
    /// Logical queries issued up to this safe point.
    pub queries: u64,
    /// Mid-level cursor, absent at level boundaries.
    pub partial: Option<SegPartial>,
    /// Worker threads of the saving run (`0` = unrecorded, pre-PR-7
    /// checkpoint). Informational only: per-segment counts merge in
    /// deterministic candidate order, so a resume is bit-identical at
    /// any thread count.
    pub threads: u64,
}

impl AprioriSegState {
    /// Serializes to the checkpoint payload.
    pub fn to_json(&self) -> Json {
        let mut obj = vec![
            ("n".into(), Json::uint(self.n as u64)),
            ("n_rows".into(), Json::uint(self.n_rows as u64)),
            ("min_support".into(), Json::uint(self.min_support as u64)),
            (
                "itemsets".into(),
                Json::Arr(
                    self.itemsets
                        .iter()
                        .map(|(s, supp)| Json::Arr(vec![set_to_json(s), Json::uint(*supp as u64)]))
                        .collect(),
                ),
            ),
            (
                "negative".into(),
                Json::Arr(self.negative.iter().map(set_to_json).collect()),
            ),
            (
                "candidates_per_level".into(),
                Json::Arr(
                    self.candidates_per_level
                        .iter()
                        .map(|&c| Json::uint(c as u64))
                        .collect(),
                ),
            ),
            ("queries".into(), Json::uint(self.queries)),
            ("threads".into(), Json::uint(self.threads)),
        ];
        if let Some(p) = &self.partial {
            obj.push((
                "partial".into(),
                Json::Obj(vec![
                    ("card".into(), Json::uint(p.card as u64)),
                    ("segs_done".into(), Json::uint(p.segs_done as u64)),
                    (
                        "counts".into(),
                        Json::Arr(p.counts.iter().map(|&c| Json::uint(c)).collect()),
                    ),
                ]),
            ));
        }
        Json::Obj(obj)
    }

    /// Deserializes a checkpoint payload.
    pub fn from_json(doc: &Json) -> Result<AprioriSegState, CheckpointError> {
        let n = uint_field(doc, "n")? as usize;
        let itemsets = field(doc, "itemsets")?
            .as_arr()
            .ok_or_else(|| CheckpointError::Corrupt("itemsets is not an array".into()))?
            .iter()
            .map(|entry| {
                let pair = entry
                    .as_arr()
                    .filter(|a| a.len() == 2)
                    .ok_or_else(|| CheckpointError::Corrupt("itemset is not a pair".into()))?;
                let set = set_from_json(&pair[0], n)?;
                let supp = pair[1]
                    .as_uint()
                    .ok_or_else(|| CheckpointError::Corrupt("support is not a count".into()))?;
                Ok((set, supp as usize))
            })
            .collect::<Result<Vec<_>, CheckpointError>>()?;
        let negative = field(doc, "negative")?
            .as_arr()
            .ok_or_else(|| CheckpointError::Corrupt("negative is not an array".into()))?
            .iter()
            .map(|s| set_from_json(s, n))
            .collect::<Result<Vec<_>, _>>()?;
        let partial = match doc.get("partial") {
            None | Some(Json::Null) => None,
            Some(p) => Some(SegPartial {
                card: uint_field(p, "card")? as usize,
                segs_done: uint_field(p, "segs_done")? as usize,
                counts: uints_field(p, "counts")?,
            }),
        };
        Ok(AprioriSegState {
            n,
            n_rows: uint_field(doc, "n_rows")? as usize,
            min_support: uint_field(doc, "min_support")? as usize,
            itemsets,
            negative,
            candidates_per_level: uints_field(doc, "candidates_per_level")?
                .into_iter()
                .map(|c| c as usize)
                .collect(),
            queries: uint_field(doc, "queries")?,
            partial,
            // Absent from checkpoints written before the field existed.
            threads: doc.get("threads").and_then(Json::as_uint).unwrap_or(0),
        })
    }
}

/// The maximal family of a mined (downward-closed) itemset collection, by
/// proper-superset queries against a trie of the members.
fn trie_maximal(itemsets: &[(AttrSet, usize)]) -> Vec<AttrSet> {
    let mut member_trie = SetTrie::new();
    for (s, _) in itemsets {
        member_trie.insert(s);
    }
    itemsets
        .iter()
        .map(|(s, _)| s)
        .filter(|s| !member_trie.has_proper_superset_of(s))
        .cloned()
        .collect()
}

/// Sorts the negative border and assembles the result, shared by complete
/// and budget-exceeded exits. The miner derives `maximal` incrementally
/// from its per-level subset marks (partial results carry the maximal
/// sets *of the mined prefix*); debug builds check it against a trie scan.
fn finish_sets(
    db: &TransactionDb,
    min_support: usize,
    itemsets: Vec<(AttrSet, usize)>,
    maximal: Vec<AttrSet>,
    mut negative: Vec<AttrSet>,
    candidates_per_level: Vec<usize>,
) -> FrequentSets {
    debug_assert_eq!(
        maximal,
        trie_maximal(&itemsets),
        "incremental maximal marking must agree with the trie scan"
    );
    negative.sort_by(|a, b| a.cmp_card_lex(b));

    FrequentSets {
        n_items: db.n_items(),
        min_support,
        n_rows: db.n_rows(),
        itemsets,
        maximal,
        negative_border: negative,
        candidates_per_level,
        support_index: OnceLock::new(),
    }
}

/// Mirrors the checkpoint-save bookkeeping of the core drivers: saves go
/// through the sink when at least `every` progress units accumulated
/// since the last save. Progress here is counted in **candidate-segment
/// passes** (one unit per candidate per segment accumulated) plus one
/// unit per emitted query, so `--checkpoint-every 1` saves at every
/// segment boundary, and larger cadences scale with actual work done
/// rather than with query counts alone (which only advance in a level's
/// final range in this engine).
struct SegCkpt {
    progress: u64,
    last_saved: u64,
}

impl SegCkpt {
    /// Saves the state `state` builds if a save is due; the state (a copy
    /// of the collections so far) is built only then.
    fn save_due(
        &mut self,
        cfg: Option<&CheckpointCfg<'_>>,
        ctl: &RunCtl<'_>,
        state: impl FnOnce() -> AprioriSegState,
    ) -> Result<(), RunError> {
        let Some(cfg) = cfg else { return Ok(()) };
        if self.progress.saturating_sub(self.last_saved) < cfg.every {
            return Ok(());
        }
        let state = state();
        cfg.sink
            .save(APRIORI_SEG_KIND, &state.to_json())
            .map_err(|e| RunError::Checkpoint(e.to_string()))?;
        ctl.observer.on_checkpoint(state.queries);
        self.last_saved = self.progress;
        Ok(())
    }
}

/// Mines all frequent itemsets of `db` at absolute threshold
/// `min_support` under a budget and an observer, with optional
/// checkpointing and resume (see the module docs for the range schedule).
///
/// * `ckpt` — optional sink + cadence; safe points are every completed
///   segment of every level plus every level boundary. Without a sink a
///   level is counted in one range.
/// * `resume` — a previously decoded [`AprioriSegState`]; the run
///   continues from that safe point and produces output bit-identical to
///   an uninterrupted run (for any segment size, thread count, schedule
///   and [`EclatCfg`]).
/// * `cfg` — the tidset↔diffset switch. It shapes only the intermediate
///   tid structures; every support is exact either way.
///
/// Each candidate support count records one metered query (matching
/// [`FrequentSets::queries`] on a complete run), and each completed level
/// fires `on_level`. The budget is polled at every range boundary and
/// per candidate in a level's final range. On a trip the partial result
/// is a *genuine prefix* of the complete run's emission order — every
/// reported itemset is truly frequent with its exact support, and
/// `maximal` is the maximal family of that prefix. A trip before the
/// final range leaves the completed levels; with a sink the last safe
/// point has already been saved, so a `--resume` rerun finishes the mine
/// without redoing completed segments.
///
/// Errors only on checkpoint I/O ([`RunError::Checkpoint`]) or a resume
/// state that does not match the database/threshold; support counting
/// itself is infallible (the fault-injected oracle path lives in the
/// generic levelwise driver instead).
///
/// # Panics
/// Panics if `min_support` is 0.
pub fn apriori_par_seg_ctl(
    db: &TransactionDb,
    min_support: usize,
    threads: usize,
    ctl: &RunCtl<'_>,
    ckpt: Option<&CheckpointCfg<'_>>,
    resume: Option<AprioriSegState>,
    cfg: &EclatCfg,
) -> Result<Outcome<FrequentSets>, RunError> {
    assert!(min_support > 0, "min_support must be positive");
    let n = db.n_items();
    let vstore = db.vstore();
    let n_segs = vstore.n_segments();

    let mut itemsets: Vec<(AttrSet, usize)>;
    let mut negative: Vec<AttrSet>;
    let mut candidates_per_level: Vec<usize>;
    let mut queries: u64;
    let mut resume_partial: Option<SegPartial>;
    match resume {
        Some(st) => {
            if st.n != n || st.n_rows != db.n_rows() || st.min_support != min_support {
                return Err(RunError::Checkpoint(format!(
                    "checkpoint shape ({} items, {} rows, σ={}) does not match the run \
                     ({n} items, {} rows, σ={min_support})",
                    st.n,
                    st.n_rows,
                    st.min_support,
                    db.n_rows()
                )));
            }
            if st.candidates_per_level.is_empty() {
                return Err(RunError::Checkpoint(
                    "checkpoint has no completed levels".into(),
                ));
            }
            itemsets = st.itemsets;
            negative = st.negative;
            candidates_per_level = st.candidates_per_level;
            queries = st.queries;
            resume_partial = st.partial;
        }
        None => {
            itemsets = Vec::new();
            negative = Vec::new();
            candidates_per_level = Vec::new();
            queries = 0;
            resume_partial = None;
        }
    }

    let mut ckpt_state = SegCkpt {
        progress: 0,
        last_saved: 0,
    };
    let state_at = |itemsets: &[(AttrSet, usize)],
                    negative: &[AttrSet],
                    candidates_per_level: &[usize],
                    queries: u64,
                    partial: Option<SegPartial>| AprioriSegState {
        n,
        n_rows: db.n_rows(),
        min_support,
        itemsets: itemsets.to_vec(),
        negative: negative.to_vec(),
        candidates_per_level: candidates_per_level.to_vec(),
        queries,
        partial,
        threads: dualminer_parallel::effective_threads(threads) as u64,
    };

    // Level 0 (∅), only when starting from scratch — a resumable
    // checkpoint always has it completed.
    if candidates_per_level.is_empty() {
        if let Some(reason) = ctl.meter.exceeded() {
            return Ok(Outcome::BudgetExceeded {
                partial: finish_sets(db, min_support, vec![], vec![], vec![], vec![]),
                reason,
            });
        }
        candidates_per_level.push(1);
        ctl.meter.record_query();
        queries += 1;
        ckpt_state.progress += 1;
        let empty_support = db.n_rows();
        let empty_frequent = empty_support >= min_support;
        ctl.observer.on_level(0, 1, usize::from(empty_frequent));
        if !empty_frequent {
            negative.push(AttrSet::empty(n));
            return Ok(Outcome::Complete(finish_sets(
                db,
                min_support,
                itemsets,
                vec![],
                negative,
                candidates_per_level,
            )));
        }
        itemsets.push((AttrSet::empty(n), empty_support));
        ckpt_state.save_due(ckpt, ctl, || {
            state_at(&itemsets, &negative, &candidates_per_level, queries, None)
        })?;
    }

    // Level entries carry (sorted index vector, dEclat node). The frontier
    // of the last completed level is rebuilt as plain tidset nodes; on a
    // fresh run it is just the ∅ placeholder, whose node is never read
    // (cardinality-1 candidates are item columns, counted from the store).
    let mut card = candidates_per_level.len() - 1;
    let mut level: Vec<(Vec<usize>, Option<EclatNode>)> = itemsets
        .iter()
        .filter(|(s, _)| s.len() == card)
        .map(|(s, supp)| {
            let indices: Vec<usize> = s.iter().collect();
            let node = (card > 0).then(|| vstore.tidset_node(&indices, *supp, cfg));
            (indices, node)
        })
        .collect();
    // The maximal family accrues level by level: a member is maximal iff
    // no frequent immediate superset marks it while its extensions are
    // counted (the mined family is downward closed, so immediate
    // supersets decide proper-superset-freeness). Levels below a resumed
    // frontier are complete, so their maximal members are final already.
    // `level_start` indexes the frontier's first member in `itemsets`:
    // level[m]'s set is itemsets[level_start + m].
    let mut maximal: Vec<AttrSet> = trie_maximal(&itemsets)
        .into_iter()
        .filter(|s| s.len() < card)
        .collect();
    let mut level_start = itemsets.len() - level.len();
    let mut marks: Vec<bool> = Vec::new();
    let mut tripped: Option<BudgetReason> = None;

    'levels: while !level.is_empty() && card < n {
        card += 1;
        // Shared prefix-join engine; the flat batch carries, per
        // candidate, its `(parent, partner)` level indices (the dEclat
        // sibling reuse) and the level indices of its remaining immediate
        // subsets (the maximal-family marking).
        let batch = prefix_join_batch(n, card, &level, |(v, _)| v.as_slice());
        let level_ref = &level;
        let batch_ref = &batch;
        let node_at = |i: u32| {
            level_ref[i as usize]
                .1
                .as_ref()
                .expect("level ≥ 1 has nodes")
        };
        // |t(candidate idx) ∩ segments[segs]|.
        let count = |idx: usize, (p, q): (u32, u32), segs: Range<usize>| {
            if card == 1 {
                vstore.item_count_range(batch_ref.cand(idx)[0], segs)
            } else {
                vstore.count_pair_range(node_at(p), node_at(q), segs)
            }
        };

        // Partial counts: resumed mid-level, or none yet.
        let (mut partial, seg_start) = match resume_partial.take() {
            Some(p) => {
                if p.card != card || p.counts.len() != batch.len() || p.segs_done > n_segs {
                    return Err(RunError::Checkpoint(format!(
                        "partial-level cursor (card {}, {} candidates, {} segments) does not \
                         match the rebuilt frontier (card {card}, {} candidates, {n_segs} \
                         segments)",
                        p.card,
                        p.counts.len(),
                        p.segs_done,
                        batch.len()
                    )));
                }
                (Some(p.counts), p.segs_done)
            }
            None => (None, 0),
        };

        // With a sink, every segment before the last is a range of its
        // own, accumulated into `partial` with a safe point after it.
        let last = match ckpt {
            Some(_) => n_segs.saturating_sub(1).max(seg_start),
            None => seg_start,
        };
        for s in seg_start..last {
            if let Some(reason) = ctl.meter.exceeded() {
                tripped = Some(reason);
                break 'levels;
            }
            let counts = partial.get_or_insert_with(|| vec![0; batch.len()]);
            dualminer_parallel::par_chunks_zip_mut(
                threads,
                4,
                batch.pairs(),
                counts,
                |offset, chunk, out| {
                    for (k, (&pq, cnt)) in chunk.iter().zip(out.iter_mut()).enumerate() {
                        *cnt += count(offset + k, pq, s..s + 1) as u64;
                    }
                },
            );
            ckpt_state.progress += batch.len() as u64;
            ckpt_state.save_due(ckpt, ctl, || {
                let partial = SegPartial {
                    card,
                    segs_done: s + 1,
                    counts: counts.clone(),
                };
                state_at(
                    &itemsets,
                    &negative,
                    &candidates_per_level,
                    queries,
                    Some(partial),
                )
            })?;
        }

        // The final range: each candidate polls the budget, records its
        // query and completes its count. A child node is materialized only
        // for candidates that pass the threshold — the ones the next level
        // keeps. `None` marks a candidate skipped because the budget
        // tripped.
        let prior = partial.as_deref();
        let counted: Vec<Option<(AttrSet, usize, Option<EclatNode>)>> =
            dualminer_parallel::par_map(threads, batch.pairs(), |idx, &(p, q)| {
                if ctl.meter.exceeded().is_some() {
                    return None;
                }
                ctl.meter.record_query();
                let cand = batch_ref.cand(idx);
                let support =
                    prior.map_or(0, |c| c[idx] as usize) + count(idx, (p, q), last..n_segs);
                let node = (support >= min_support).then(|| {
                    if card == 1 {
                        vstore.item_node(cand[0], support, cfg)
                    } else {
                        vstore.make_child(node_at(p), node_at(q), support, cfg)
                    }
                });
                Some((
                    AttrSet::from_indices(n, cand.iter().copied()),
                    support,
                    node,
                ))
            });
        // The safe point after the last segment, before emission.
        if ckpt.is_some() && last < n_segs && counted.iter().all(Option::is_some) {
            ckpt_state.progress += batch.len() as u64;
            ckpt_state.save_due(ckpt, ctl, || {
                let partial = SegPartial {
                    card,
                    segs_done: n_segs,
                    counts: counted.iter().flatten().map(|c| c.1 as u64).collect(),
                };
                state_at(
                    &itemsets,
                    &negative,
                    &candidates_per_level,
                    queries,
                    Some(partial),
                )
            })?;
        }

        // Emission, in the deterministic candidate order, truncated at the
        // first skipped candidate.
        let next_start = itemsets.len();
        marks = vec![false; level.len()];
        let mut next: Vec<(Vec<usize>, Option<EclatNode>)> = Vec::new();
        let mut tested = 0usize;
        let mut frequent_count = 0usize;
        for (idx, verdict) in counted.into_iter().enumerate() {
            let Some((cand_set, support, cand_node)) = verdict else {
                tripped = Some(ctl.meter.exceeded().unwrap_or(BudgetReason::Cancelled));
                break;
            };
            tested += 1;
            queries += 1;
            ckpt_state.progress += 1;
            match cand_node {
                Some(cand_node) => {
                    frequent_count += 1;
                    // A frequent candidate makes every immediate subset
                    // non-maximal — and the batch already carries all of
                    // their level indices: parent, join partner, and the
                    // prefix-dropping subsets the prune step located.
                    let (p, q) = batch.pair(idx);
                    marks[p] = true;
                    marks[q] = true;
                    for &m in batch.drop_subsets(idx) {
                        marks[m as usize] = true;
                    }
                    itemsets.push((cand_set, support));
                    next.push((batch.cand(idx).to_vec(), Some(cand_node)));
                }
                None => negative.push(cand_set),
            }
        }
        if tested > 0 {
            candidates_per_level.push(tested);
        }
        ctl.observer.on_level(card, tested, frequent_count);
        if tripped.is_some() {
            break;
        }
        // This level's extensions are all counted: unmarked members are
        // maximal for good.
        for (m, &marked) in marks.iter().enumerate() {
            if !marked {
                maximal.push(itemsets[level_start + m].0.clone());
            }
        }
        marks.clear();
        level = next;
        level_start = next_start;
        ckpt_state.save_due(ckpt, ctl, || {
            state_at(&itemsets, &negative, &candidates_per_level, queries, None)
        })?;
    }

    // The frontier's members that no counted extension marked, and every
    // set emitted after them (a tripped level's survivors, none of whose
    // supersets were mined), are maximal.
    for (m, (s, _)) in itemsets[level_start..].iter().enumerate() {
        if !marks.get(m).copied().unwrap_or(false) {
            maximal.push(s.clone());
        }
    }
    let sets = finish_sets(
        db,
        min_support,
        itemsets,
        maximal,
        negative,
        candidates_per_level,
    );
    Ok(match tripped {
        Some(reason) => Outcome::BudgetExceeded {
            partial: sets,
            reason,
        },
        None => Outcome::Complete(sets),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dualminer_obs::checkpoint::MemoryCheckpoints;
    use dualminer_obs::{Budget, Meter, NoopObserver};

    fn quest_db(segment_rows: usize) -> TransactionDb {
        use crate::gen::{quest, QuestParams};
        use dualminer_bitset::AttrSet;
        use rand::{rngs::StdRng, SeedableRng};
        let params = QuestParams {
            n_items: 16,
            n_transactions: 90,
            avg_transaction_size: 6,
            avg_pattern_size: 4,
            n_patterns: 5,
            corruption: 0.3,
        };
        let mut rng = StdRng::seed_from_u64(11);
        let db = quest(&params, &mut rng);
        let rows: Vec<AttrSet> = db.rows().to_vec();
        TransactionDb::with_segment_rows(db.n_items(), rows, segment_rows)
    }

    fn assert_same(a: &FrequentSets, b: &FrequentSets, ctx: &str) {
        assert_eq!(a.itemsets(), b.itemsets(), "{ctx}");
        assert_eq!(a.maximal, b.maximal, "{ctx}");
        assert_eq!(a.negative_border, b.negative_border, "{ctx}");
        assert_eq!(a.candidates_per_level, b.candidates_per_level, "{ctx}");
        assert_eq!(a.queries(), b.queries(), "{ctx}");
    }

    fn run_plain(db: &TransactionDb, sigma: usize) -> FrequentSets {
        crate::apriori::apriori(db, sigma)
    }

    /// One mine on the one-range schedule (no sink) or the per-segment
    /// schedule (a sink saving at every safe point), with the meter's
    /// query total.
    fn run_schedule(
        db: &TransactionDb,
        sigma: usize,
        threads: usize,
        cfg: &EclatCfg,
        per_segment: bool,
        budget: Budget,
    ) -> (Outcome<FrequentSets>, u64) {
        let sink = MemoryCheckpoints::new();
        let ckpt = CheckpointCfg {
            sink: &sink,
            every: 1,
        };
        let meter = budget.start();
        let out = apriori_par_seg_ctl(
            db,
            sigma,
            threads,
            &RunCtl::new(&meter, &NoopObserver),
            per_segment.then_some(&ckpt),
            None,
            cfg,
        )
        .unwrap();
        (out, meter.queries())
    }

    #[test]
    fn seg_engine_is_bit_identical_to_apriori() {
        for seg in [7, 16, 90, 1024] {
            let db = quest_db(seg);
            for sigma in [5, 15, 40] {
                let reference = run_plain(&db, sigma);
                for threads in [1, 3] {
                    for cfg in [
                        EclatCfg::default(),
                        EclatCfg::tidset_only(),
                        EclatCfg::diffset_always(),
                    ] {
                        for per_segment in [false, true] {
                            let (out, queries) = run_schedule(
                                &db,
                                sigma,
                                threads,
                                &cfg,
                                per_segment,
                                Budget::UNLIMITED,
                            );
                            assert_same(
                                &out.expect_complete(),
                                &reference,
                                &format!(
                                    "seg={seg} σ={sigma} threads={threads} \
                                     per_segment={per_segment}"
                                ),
                            );
                            assert_eq!(queries, reference.queries());
                        }
                    }
                }
            }
        }
    }

    /// A `max_queries` trip leaves a prefix of the complete run in emission
    /// order (level by level, lexicographic within a level) with exact
    /// supports, on both schedules. Single-threaded, the budget is exact
    /// and both schedules stop at the same candidate.
    #[test]
    fn budget_trip_leaves_emission_prefix_on_both_schedules() {
        let db = quest_db(16);
        let sigma = 12;
        let reference = run_plain(&db, sigma);
        let mut emitted: Vec<AttrSet> = reference
            .itemsets()
            .iter()
            .map(|(s, _)| s.clone())
            .chain(reference.negative_border.iter().cloned())
            .collect();
        emitted.sort_by(|a, b| a.cmp_card_lex(b));
        let total = reference.queries();
        // Every limit through the first levels, then a stride, then the
        // limits around completion.
        let limits = (1..=total + 1).filter(|&m| m <= 48 || m % 37 == 0 || m + 1 >= total);
        for max in limits {
            let budget = Budget {
                max_queries: Some(max),
                ..Budget::UNLIMITED
            };
            let mut single_threaded = Vec::new();
            for threads in [1, 3] {
                for per_segment in [false, true] {
                    let ctx = format!("max={max} threads={threads} per_segment={per_segment}");
                    let (out, _) = run_schedule(
                        &db,
                        sigma,
                        threads,
                        &EclatCfg::default(),
                        per_segment,
                        budget,
                    );
                    // At `max == total` the last query lands exactly on the
                    // limit: the run completes unless a later range boundary
                    // polls the budget first.
                    if max != total {
                        assert_eq!(out.is_complete(), max > total, "{ctx}");
                    }
                    let partial = out.into_value();
                    let k = partial.itemsets().len();
                    assert_eq!(partial.itemsets(), &reference.itemsets()[..k], "{ctx}");
                    let mut got: Vec<AttrSet> = partial
                        .itemsets()
                        .iter()
                        .map(|(s, _)| s.clone())
                        .chain(partial.negative_border.iter().cloned())
                        .collect();
                    got.sort_by(|a, b| a.cmp_card_lex(b));
                    assert_eq!(got, emitted[..got.len()], "{ctx}");
                    if threads == 1 {
                        assert_eq!(partial.queries(), max.min(total), "{ctx}");
                        single_threaded.push(partial);
                    }
                }
            }
            assert_same(
                &single_threaded[0],
                &single_threaded[1],
                &format!("max={max}"),
            );
        }
    }

    #[test]
    fn resume_from_every_safe_point_is_bit_identical() {
        let db = quest_db(16); // 90 rows → 6 segments: plenty of safe points
        let sigma = 12;
        let reference = run_plain(&db, sigma);

        let sink = MemoryCheckpoints::new();
        let meter = Meter::unlimited();
        let cfg = CheckpointCfg {
            sink: &sink,
            every: 1,
        };
        apriori_par_seg_ctl(
            &db,
            sigma,
            2,
            &RunCtl::new(&meter, &NoopObserver),
            Some(&cfg),
            None,
            &EclatCfg::default(),
        )
        .unwrap()
        .expect_complete();
        let saved = sink.all();
        assert!(
            saved.len() > db.vstore().n_segments(),
            "expected per-segment safe points, got {}",
            saved.len()
        );
        let mut mid_level = 0;
        for (i, envelope) in saved.iter().enumerate() {
            assert_eq!(envelope.kind, APRIORI_SEG_KIND);
            let state = AprioriSegState::from_json(&envelope.payload).unwrap();
            // Round trip through the wire format.
            assert_eq!(AprioriSegState::from_json(&state.to_json()).unwrap(), state);
            if state.partial.is_some() {
                mid_level += 1;
            }
            let meter = Meter::unlimited();
            let resumed = apriori_par_seg_ctl(
                &db,
                sigma,
                1,
                &RunCtl::new(&meter, &NoopObserver),
                None,
                Some(state),
                &EclatCfg::default(),
            )
            .unwrap()
            .expect_complete();
            assert_same(&resumed, &reference, &format!("safe point {i}"));
        }
        assert!(mid_level > 0, "no mid-level (per-segment) safe points seen");
    }

    #[test]
    fn budget_trip_leaves_resumable_checkpoint() {
        let db = quest_db(16);
        let sigma = 12;
        let reference = run_plain(&db, sigma);

        let sink = MemoryCheckpoints::new();
        let budget = Budget {
            max_queries: Some(20),
            ..Budget::UNLIMITED
        };
        let meter = budget.start();
        let ckpt = CheckpointCfg {
            sink: &sink,
            every: 1,
        };
        let out = apriori_par_seg_ctl(
            &db,
            sigma,
            1,
            &RunCtl::new(&meter, &NoopObserver),
            Some(&ckpt),
            None,
            &EclatCfg::default(),
        )
        .unwrap();
        assert!(!out.is_complete());
        // The tripped run's partial output carries exact supports.
        let partial = out.into_value();
        for (set, supp) in partial.itemsets() {
            assert_eq!(reference.support_of(set), Some(*supp));
        }

        // Resume from the last saved state, unbudgeted → full result.
        let last = sink.all().pop().expect("checkpoints were saved");
        let state = AprioriSegState::from_json(&last.payload).unwrap();
        let meter = Meter::unlimited();
        let resumed = apriori_par_seg_ctl(
            &db,
            sigma,
            1,
            &RunCtl::new(&meter, &NoopObserver),
            None,
            Some(state),
            &EclatCfg::default(),
        )
        .unwrap()
        .expect_complete();
        assert_same(&resumed, &reference, "resume after budget trip");
    }

    #[test]
    fn mismatched_resume_state_is_rejected() {
        let db = quest_db(16);
        let meter = Meter::unlimited();
        let state = AprioriSegState {
            n: db.n_items() + 1,
            n_rows: db.n_rows(),
            min_support: 2,
            itemsets: vec![],
            negative: vec![],
            candidates_per_level: vec![1],
            queries: 1,
            partial: None,
            threads: 1,
        };
        let err = apriori_par_seg_ctl(
            &db,
            2,
            1,
            &RunCtl::new(&meter, &NoopObserver),
            None,
            Some(state),
            &EclatCfg::default(),
        )
        .unwrap_err();
        assert!(matches!(err, RunError::Checkpoint(_)));

        // A shape-matching state with a nonsense partial cursor is also
        // refused rather than silently miscounted.
        let bad_partial = AprioriSegState {
            n: db.n_items(),
            n_rows: db.n_rows(),
            min_support: 2,
            itemsets: vec![(AttrSet::empty(db.n_items()), db.n_rows())],
            negative: vec![],
            candidates_per_level: vec![1],
            queries: 1,
            partial: Some(SegPartial {
                card: 1,
                segs_done: 0,
                counts: vec![0; 3], // wrong width: level 1 has n_items units
            }),
            threads: 1,
        };
        let meter = Meter::unlimited();
        let err = apriori_par_seg_ctl(
            &db,
            2,
            1,
            &RunCtl::new(&meter, &NoopObserver),
            None,
            Some(bad_partial),
            &EclatCfg::default(),
        )
        .unwrap_err();
        assert!(matches!(err, RunError::Checkpoint(_)));
    }

    /// Every state the per-segment schedule saves on Figure 1's database at
    /// one row per segment, σ = 2, as the separate segment-major engine
    /// wrote them before it became the one engine's checkpointed schedule.
    /// Files in this format must keep resuming.
    const FIGURE1_SAFE_POINTS: [&str; 13] = [
        r#"{"n":4,"n_rows":3,"min_support":2,"itemsets":[[[],3]],"negative":[],"candidates_per_level":[1],"queries":1,"threads":1}"#,
        r#"{"n":4,"n_rows":3,"min_support":2,"itemsets":[[[],3]],"negative":[],"candidates_per_level":[1],"queries":1,"threads":1,"partial":{"card":1,"segs_done":1,"counts":[1,1,1,0]}}"#,
        r#"{"n":4,"n_rows":3,"min_support":2,"itemsets":[[[],3]],"negative":[],"candidates_per_level":[1],"queries":1,"threads":1,"partial":{"card":1,"segs_done":2,"counts":[2,2,2,1]}}"#,
        r#"{"n":4,"n_rows":3,"min_support":2,"itemsets":[[[],3]],"negative":[],"candidates_per_level":[1],"queries":1,"threads":1,"partial":{"card":1,"segs_done":3,"counts":[2,3,2,2]}}"#,
        r#"{"n":4,"n_rows":3,"min_support":2,"itemsets":[[[],3],[[0],2],[[1],3],[[2],2],[[3],2]],"negative":[],"candidates_per_level":[1,4],"queries":5,"threads":1}"#,
        r#"{"n":4,"n_rows":3,"min_support":2,"itemsets":[[[],3],[[0],2],[[1],3],[[2],2],[[3],2]],"negative":[],"candidates_per_level":[1,4],"queries":5,"threads":1,"partial":{"card":2,"segs_done":1,"counts":[1,1,0,1,0,0]}}"#,
        r#"{"n":4,"n_rows":3,"min_support":2,"itemsets":[[[],3],[[0],2],[[1],3],[[2],2],[[3],2]],"negative":[],"candidates_per_level":[1,4],"queries":5,"threads":1,"partial":{"card":2,"segs_done":2,"counts":[2,2,1,2,1,1]}}"#,
        r#"{"n":4,"n_rows":3,"min_support":2,"itemsets":[[[],3],[[0],2],[[1],3],[[2],2],[[3],2]],"negative":[],"candidates_per_level":[1,4],"queries":5,"threads":1,"partial":{"card":2,"segs_done":3,"counts":[2,2,1,2,2,1]}}"#,
        r#"{"n":4,"n_rows":3,"min_support":2,"itemsets":[[[],3],[[0],2],[[1],3],[[2],2],[[3],2],[[0,1],2],[[0,2],2],[[1,2],2],[[1,3],2]],"negative":[[0,3],[2,3]],"candidates_per_level":[1,4,6],"queries":11,"threads":1}"#,
        r#"{"n":4,"n_rows":3,"min_support":2,"itemsets":[[[],3],[[0],2],[[1],3],[[2],2],[[3],2],[[0,1],2],[[0,2],2],[[1,2],2],[[1,3],2]],"negative":[[0,3],[2,3]],"candidates_per_level":[1,4,6],"queries":11,"threads":1,"partial":{"card":3,"segs_done":1,"counts":[1]}}"#,
        r#"{"n":4,"n_rows":3,"min_support":2,"itemsets":[[[],3],[[0],2],[[1],3],[[2],2],[[3],2],[[0,1],2],[[0,2],2],[[1,2],2],[[1,3],2]],"negative":[[0,3],[2,3]],"candidates_per_level":[1,4,6],"queries":11,"threads":1,"partial":{"card":3,"segs_done":2,"counts":[2]}}"#,
        r#"{"n":4,"n_rows":3,"min_support":2,"itemsets":[[[],3],[[0],2],[[1],3],[[2],2],[[3],2],[[0,1],2],[[0,2],2],[[1,2],2],[[1,3],2]],"negative":[[0,3],[2,3]],"candidates_per_level":[1,4,6],"queries":11,"threads":1,"partial":{"card":3,"segs_done":3,"counts":[2]}}"#,
        r#"{"n":4,"n_rows":3,"min_support":2,"itemsets":[[[],3],[[0],2],[[1],3],[[2],2],[[3],2],[[0,1],2],[[0,2],2],[[1,2],2],[[1,3],2],[[0,1,2],2]],"negative":[[0,3],[2,3]],"candidates_per_level":[1,4,6,1],"queries":12,"threads":1}"#,
    ];

    #[test]
    fn saved_states_keep_the_recorded_format_and_resume() {
        let rows = [vec![0, 1, 2], vec![0, 1, 2, 3], vec![1, 3]];
        let db = TransactionDb::with_segment_rows(
            4,
            rows.iter()
                .map(|r| AttrSet::from_indices(4, r.iter().copied()))
                .collect(),
            1,
        );
        let reference = run_plain(&db, 2);
        let sink = MemoryCheckpoints::new();
        let ckpt = CheckpointCfg {
            sink: &sink,
            every: 1,
        };
        let meter = Meter::unlimited();
        let out = apriori_par_seg_ctl(
            &db,
            2,
            1,
            &RunCtl::new(&meter, &NoopObserver),
            Some(&ckpt),
            None,
            &EclatCfg::default(),
        )
        .unwrap()
        .expect_complete();
        assert_same(&out, &reference, "checkpointed run");
        let saved: Vec<String> = sink.all().iter().map(|e| e.payload.to_string()).collect();
        assert_eq!(saved, FIGURE1_SAFE_POINTS);
        for (i, text) in FIGURE1_SAFE_POINTS.iter().enumerate() {
            let state = AprioriSegState::from_json(&Json::parse(text).unwrap()).unwrap();
            for per_segment in [false, true] {
                let sink = MemoryCheckpoints::new();
                let ckpt = CheckpointCfg {
                    sink: &sink,
                    every: 1,
                };
                let meter = Meter::unlimited();
                let resumed = apriori_par_seg_ctl(
                    &db,
                    2,
                    1,
                    &RunCtl::new(&meter, &NoopObserver),
                    per_segment.then_some(&ckpt),
                    Some(state.clone()),
                    &EclatCfg::default(),
                )
                .unwrap()
                .expect_complete();
                let ctx = format!("safe point {i} per_segment={per_segment}");
                assert_same(&resumed, &reference, &ctx);
            }
        }
    }

    #[test]
    fn infrequent_empty_set_short_circuits() {
        let db = TransactionDb::new(3, vec![]);
        let meter = Meter::unlimited();
        let out = apriori_par_seg_ctl(
            &db,
            1,
            1,
            &RunCtl::new(&meter, &NoopObserver),
            None,
            None,
            &EclatCfg::default(),
        )
        .unwrap()
        .expect_complete();
        assert!(out.itemsets().is_empty());
        assert_eq!(out.negative_border, vec![AttrSet::empty(3)]);
    }

    #[test]
    fn state_json_rejects_corruption() {
        let state = AprioriSegState {
            n: 4,
            n_rows: 10,
            min_support: 2,
            itemsets: vec![(AttrSet::from_indices(4, [0, 2]), 5)],
            negative: vec![AttrSet::from_indices(4, [3])],
            candidates_per_level: vec![1, 4],
            queries: 5,
            partial: Some(SegPartial {
                card: 2,
                segs_done: 1,
                counts: vec![3, 0, 7],
            }),
            threads: 2,
        };
        let doc = state.to_json();
        assert_eq!(AprioriSegState::from_json(&doc).unwrap(), state);

        assert!(AprioriSegState::from_json(&Json::Obj(vec![])).is_err());
        // Attribute outside the universe.
        let bad = Json::Obj(vec![
            ("n".into(), Json::Int(2)),
            ("n_rows".into(), Json::Int(3)),
            ("min_support".into(), Json::Int(1)),
            (
                "itemsets".into(),
                Json::Arr(vec![Json::Arr(vec![
                    Json::Arr(vec![Json::Int(9)]),
                    Json::Int(1),
                ])]),
            ),
            ("negative".into(), Json::Arr(vec![])),
            ("candidates_per_level".into(), Json::Arr(vec![])),
            ("queries".into(), Json::Int(0)),
        ]);
        assert!(AprioriSegState::from_json(&bad).is_err());
    }
}
