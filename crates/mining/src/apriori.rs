//! Apriori: the specialized levelwise frequent-set miner.
//!
//! Algorithm 9 instantiated for frequent sets (\[2, 20\] in the paper).
//! This module holds the mined collection ([`FrequentSets`]) and the
//! plain entry points; the miner itself is the one engine in
//! [`crate::seg`], run here without a checkpoint sink so that each level
//! is counted in a single range. Its query structure is *identical* to
//! the generic [`dualminer_core::levelwise::levelwise`] run against a
//! [`crate::FrequencyOracle`] — the unit tests assert equality of theory,
//! borders, and candidate counts — so every Theorem 10/12 statement about
//! the generic algorithm applies verbatim to this miner.

use std::collections::HashMap;
use std::sync::OnceLock;

use dualminer_bitset::AttrSet;
use dualminer_obs::{Meter, NoopObserver, Outcome, RunCtl};

use crate::seg::apriori_par_seg_ctl;
use crate::vstore::EclatCfg;
use crate::TransactionDb;

/// A mined collection of frequent itemsets with their supports.
#[derive(Clone, Debug)]
pub struct FrequentSets {
    pub(crate) n_items: usize,
    pub(crate) min_support: usize,
    pub(crate) n_rows: usize,
    /// Frequent sets, card-lex sorted, with absolute supports. Read-only
    /// behind [`itemsets`](Self::itemsets): the cached
    /// [`support_index`](Self::support_index) is derived from this vector,
    /// and public mutability would let the two silently diverge.
    pub(crate) itemsets: Vec<(AttrSet, usize)>,
    /// The maximal frequent sets (`MTh`).
    pub maximal: Vec<AttrSet>,
    /// The negative border: infrequent candidates all of whose subsets are
    /// frequent.
    pub negative_border: Vec<AttrSet>,
    /// Candidates evaluated per level (level = cardinality).
    pub candidates_per_level: Vec<usize>,
    /// Lazily built support lookup table (see
    /// [`support_index`](Self::support_index)).
    pub(crate) support_index: OnceLock<HashMap<AttrSet, usize>>,
}

impl FrequentSets {
    /// Number of items of the mined database.
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// The absolute threshold used.
    pub fn min_support(&self) -> usize {
        self.min_support
    }

    /// Rows in the mined database (for confidence/frequency computations).
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// The frequent sets, card-lex sorted, with absolute supports.
    ///
    /// Read-only: [`support_index`](Self::support_index) caches a lookup
    /// table built from this vector on first use, so exposing the field
    /// mutably would allow the cache to go stale.
    pub fn itemsets(&self) -> &[(AttrSet, usize)] {
        &self.itemsets
    }

    /// Support of `x`, or `None` if `x` is not frequent.
    ///
    /// Borrow-based: a binary search over the card-lex-sorted `itemsets`
    /// vector, no cloning. `O(log m)` per lookup with `m = itemsets.len()`.
    pub fn support_of(&self, x: &AttrSet) -> Option<usize> {
        self.itemsets
            .binary_search_by(|(s, _)| s.cmp_card_lex(x))
            .ok()
            .map(|i| self.itemsets[i].1)
    }

    /// Support lookup table — `O(1)` per lookup after a one-time `O(m)`
    /// build that is **cached**: repeated rule-mining passes share one
    /// table instead of re-hashing the whole theory per call.
    ///
    /// The cache keys are clones of the stored itemsets (allocation-free
    /// for universes ≤ 128 bits). The itemset collection is immutable
    /// after mining (see [`itemsets`](Self::itemsets)), so the cached
    /// table can never go stale.
    pub fn support_index(&self) -> &HashMap<AttrSet, usize> {
        self.support_index.get_or_init(|| {
            self.itemsets
                .iter()
                .map(|(s, supp)| (s.clone(), *supp))
                .collect()
        })
    }

    /// Total support-counting operations performed (Theorem 10's count).
    pub fn queries(&self) -> u64 {
        (self.itemsets.len() + self.negative_border.len()) as u64
    }

    /// Assembles a [`FrequentSets`] from a generic levelwise run over `db`,
    /// recomputing each theory member's exact support from the database.
    ///
    /// The fault-tolerant mining path drives the *generic*
    /// [`dualminer_core::levelwise`] engine (which supports retries and
    /// checkpoint/resume but knows nothing about supports) against a
    /// [`crate::FrequencyOracle`], then converts the completed run with
    /// this helper. `run.theory` is card-lex sorted — the invariant
    /// [`support_of`](Self::support_of) binary-searches on — and for a run
    /// mined from `db` at the same threshold the result is bit-identical
    /// to [`apriori`] (asserted by the unit tests).
    pub fn from_levelwise(
        db: &TransactionDb,
        min_support: usize,
        run: &dualminer_core::levelwise::LevelwiseRun,
    ) -> FrequentSets {
        let itemsets: Vec<(AttrSet, usize)> = run
            .theory
            .iter()
            .map(|s| (s.clone(), db.support(s)))
            .collect();
        FrequentSets {
            n_items: db.n_items(),
            min_support,
            n_rows: db.n_rows(),
            itemsets,
            maximal: run.positive_border.clone(),
            negative_border: run.negative_border.clone(),
            candidates_per_level: run.candidates_per_level.clone(),
            support_index: OnceLock::new(),
        }
    }
}

/// Mines all frequent itemsets of `db` at absolute threshold `min_support`.
///
/// # Panics
/// Panics if `min_support` is 0 (see [`crate::FrequencyOracle::new`]).
pub fn apriori(db: &TransactionDb, min_support: usize) -> FrequentSets {
    apriori_par(db, min_support, 1)
}

/// [`apriori`] with each level's support counting spread over up to
/// `threads` scoped worker threads (`0` = available parallelism).
///
/// Work splits by candidate: every candidate's support is still one
/// streaming pass over its parent's and join partner's tid structures
/// (the Eclat/dEclat reuse is intact — level nodes are shared read-only
/// across workers). Chunks are contiguous
/// runs of the sequential candidate order and per-chunk results merge in
/// chunk order, so the returned [`FrequentSets`] — itemsets with supports,
/// maximal family, negative border, per-level candidate counts, and
/// therefore [`FrequentSets::queries`] — is bit-identical to the
/// sequential miner for every thread count.
pub fn apriori_par(db: &TransactionDb, min_support: usize, threads: usize) -> FrequentSets {
    let meter = Meter::unlimited();
    apriori_par_ctl(
        db,
        min_support,
        threads,
        &RunCtl::new(&meter, &NoopObserver),
    )
    .expect_complete()
}

/// [`apriori_par`] under a budget and an observer: the sink-less
/// schedule of [`apriori_par_seg_ctl`], which counts each level in one
/// range. Each candidate support count records one metered query
/// (matching [`FrequentSets::queries`] on a complete run), and on a trip
/// the partial [`FrequentSets`] holds a *genuine prefix* of the
/// sequential enumeration with exact supports.
pub fn apriori_par_ctl(
    db: &TransactionDb,
    min_support: usize,
    threads: usize,
    ctl: &RunCtl<'_>,
) -> Outcome<FrequentSets> {
    apriori_par_seg_ctl(
        db,
        min_support,
        threads,
        ctl,
        None,
        None,
        &EclatCfg::default(),
    )
    .expect("without a checkpoint sink or resume state the miner cannot fail")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FrequencyOracle;
    use dualminer_bitset::Universe;
    use dualminer_core::levelwise::levelwise;

    fn fig1_db() -> TransactionDb {
        TransactionDb::from_index_rows(4, [vec![0, 1, 2], vec![0, 1, 2, 3], vec![1, 3]])
    }

    #[test]
    fn figure1_frequent_sets() {
        let db = fig1_db();
        let u = Universe::letters(4);
        let fs = apriori(&db, 2);
        assert_eq!(u.display_family(fs.maximal.iter()), "{BD, ABC}");
        assert_eq!(u.display_family(fs.negative_border.iter()), "{AD, CD}");
        // Theory: ∅,A,B,C,D,AB,AC,BC,BD,ABC = 10.
        assert_eq!(fs.itemsets.len(), 10);
        assert_eq!(fs.support_of(&u.parse("B").unwrap()), Some(3));
        assert_eq!(fs.support_of(&u.parse("ABC").unwrap()), Some(2));
        assert_eq!(fs.support_of(&u.parse("BD").unwrap()), Some(2));
        assert_eq!(fs.support_of(&u.parse("AD").unwrap()), None);
        let index = fs.support_index();
        assert_eq!(index.len(), fs.itemsets.len());
        assert_eq!(index[&u.parse("B").unwrap()], 3);
    }

    #[test]
    fn support_of_agrees_with_stored_itemsets() {
        let db = fig1_db();
        let fs = apriori(&db, 2);
        for (set, support) in &fs.itemsets {
            assert_eq!(fs.support_of(set), Some(*support), "{set:?}");
        }
        // Infrequent (support 1 < σ): not in the theory, so no lookup hit.
        assert_eq!(fs.support_of(&AttrSet::from_indices(4, [0, 1, 2, 3])), None);
    }

    #[test]
    fn support_index_cannot_go_stale() {
        // Regression: `itemsets` used to be a public field, so callers
        // could mutate it after `support_index()` had cached its lookup
        // table and the two views would silently diverge. The field is
        // now read-only behind `itemsets()`; the cached table is built
        // once and always agrees with the stored itemsets.
        let db = fig1_db();
        let fs = apriori(&db, 2);
        let first: *const HashMap<AttrSet, usize> = fs.support_index();
        for (set, supp) in fs.itemsets() {
            assert_eq!(fs.support_index().get(set), Some(supp));
            assert_eq!(fs.support_of(set), Some(*supp));
        }
        assert_eq!(fs.support_index().len(), fs.itemsets().len());
        // Repeated calls return the same cached table, never a rebuild.
        assert!(std::ptr::eq(first, fs.support_index()));
    }

    #[test]
    fn parallel_is_bit_identical_to_sequential() {
        let db = fig1_db();
        for sigma in 1..=4usize {
            let seq = apriori(&db, sigma);
            for threads in [0, 2, 3, 8] {
                let par = apriori_par(&db, sigma, threads);
                assert_eq!(par.itemsets, seq.itemsets, "σ={sigma} threads={threads}");
                assert_eq!(par.maximal, seq.maximal);
                assert_eq!(par.negative_border, seq.negative_border);
                assert_eq!(par.candidates_per_level, seq.candidates_per_level);
                assert_eq!(par.queries(), seq.queries());
            }
        }
    }

    #[test]
    fn matches_generic_levelwise() {
        let db = fig1_db();
        for sigma in 1..=3usize {
            let fs = apriori(&db, sigma);
            let mut oracle = FrequencyOracle::new(&db, sigma);
            let run = levelwise(&mut oracle);
            let theory: Vec<AttrSet> = fs.itemsets.iter().map(|(s, _)| s.clone()).collect();
            assert_eq!(theory, run.theory, "σ={sigma}");
            assert_eq!(fs.maximal, run.positive_border, "σ={sigma}");
            assert_eq!(fs.negative_border, run.negative_border, "σ={sigma}");
            assert_eq!(
                fs.candidates_per_level, run.candidates_per_level,
                "σ={sigma}"
            );
            assert_eq!(fs.queries(), run.queries, "σ={sigma}");
        }
    }

    #[test]
    fn from_levelwise_matches_apriori() {
        let db = fig1_db();
        for sigma in 1..=4usize {
            let direct = apriori(&db, sigma);
            let mut oracle = FrequencyOracle::new(&db, sigma);
            let run = levelwise(&mut oracle);
            let converted = FrequentSets::from_levelwise(&db, sigma, &run);
            assert_eq!(converted.itemsets, direct.itemsets, "σ={sigma}");
            assert_eq!(converted.maximal, direct.maximal, "σ={sigma}");
            assert_eq!(
                converted.negative_border, direct.negative_border,
                "σ={sigma}"
            );
            assert_eq!(
                converted.candidates_per_level, direct.candidates_per_level,
                "σ={sigma}"
            );
            assert_eq!(converted.queries(), direct.queries(), "σ={sigma}");
            assert_eq!(converted.n_items(), direct.n_items());
            assert_eq!(converted.n_rows(), direct.n_rows());
            assert_eq!(converted.min_support(), direct.min_support());
        }
    }

    #[test]
    fn threshold_above_rows_gives_empty_theory() {
        let db = fig1_db();
        let fs = apriori(&db, 4);
        assert!(fs.itemsets.is_empty());
        assert_eq!(fs.negative_border, vec![AttrSet::empty(4)]);
        assert!(fs.maximal.is_empty());
    }

    #[test]
    fn supports_are_exact() {
        let db = fig1_db();
        let fs = apriori(&db, 1);
        for (set, support) in &fs.itemsets {
            assert_eq!(*support, db.support_horizontal(set), "{set:?}");
        }
    }

    #[test]
    fn empty_database() {
        let db = TransactionDb::new(3, vec![]);
        let fs = apriori(&db, 1);
        assert!(fs.itemsets.is_empty());
        assert_eq!(fs.negative_border, vec![AttrSet::empty(3)]);
    }
}
