//! Borders of theories (Section 3 of the paper).
//!
//! For a downward-closed set family `S` the **border** `Bd(S)` splits into
//! the **positive border** `Bd⁺(S)` — the maximal members of `S` — and the
//! **negative border** `Bd⁻(S)` — the minimal non-members. The positive
//! border of the theory is `MTh` itself, and Theorem 7 computes the
//! negative border as a minimal-transversal problem:
//!
//! > `f⁻¹(Tr(H(S))) = Bd⁻(S)` where `H(S) = {R \ f(φ) : φ ∈ Bd⁺(S)}`.
//!
//! Corollary 4 turns the border into a *verification* procedure: deciding
//! `S = MTh(L, r, q)` needs exactly `|Bd(S)|` evaluations of `q` — the
//! query-complexity floor of Theorem 2.

use std::collections::HashSet;

use dualminer_bitset::{AttrSet, SetTrie};
use dualminer_hypergraph::{maximize_family, transversals_with, Hypergraph, TrAlgorithm};

use crate::oracle::InterestOracle;

/// The maximal members of a family — `Bd⁺` of its downward closure.
///
/// For a theory this is `MTh`; the paper notes `Bd⁺(S)` is computable from
/// `S` *"without looking at the data at all"*.
pub fn positive_border(family: &[AttrSet]) -> Vec<AttrSet> {
    let mut b = maximize_family(family.to_vec());
    b.sort_by(|a, c| a.cmp_card_lex(c));
    b
}

/// The negative border via Theorem 7: complements of the positive border,
/// one minimal-transversal computation, sorted card-lex.
///
/// `maxth` is interpreted as `Bd⁺(S)` (non-maximal members are dropped).
/// An empty `maxth` means the theory is empty, whose negative border is
/// `{∅}`.
pub fn negative_border_via_transversals(
    n: usize,
    maxth: &[AttrSet],
    algo: TrAlgorithm,
) -> Vec<AttrSet> {
    transversals_of_complements(n, &positive_border(maxth), algo)
}

/// Theorem 7 on a family that is already an antichain: `Tr(H(S))` with
/// `H(S) = {R \ m : m ∈ bd_plus}`, in the canonical card-lex order every
/// backend returns.
fn transversals_of_complements(n: usize, bd_plus: &[AttrSet], algo: TrAlgorithm) -> Vec<AttrSet> {
    let h = Hypergraph::from_edges(n, bd_plus.iter().map(AttrSet::complement).collect())
        .expect("positive border lives in the universe");
    transversals_with(&h, algo).edges().to_vec()
}

/// The negative border by direct definition, computed from an explicit
/// theory (the full downward-closed family): all minimal sets whose every
/// immediate subset is in the theory but which are not themselves members.
///
/// Used as the independent cross-check of Theorem 7 in tests and in
/// experiment E1. `O(|Th| · n)` candidate probes, each answered by a
/// [`SetTrie`] descent over the candidate's index vector — no per-probe
/// set materialization or hashing.
pub fn negative_border_definition(n: usize, theory: &[AttrSet]) -> Vec<AttrSet> {
    let mut members = SetTrie::new();
    for t in theory {
        members.insert(t);
    }
    // ∅ is the unique minimal set; if even it is missing, Bd⁻ = {∅}.
    let empty = AttrSet::empty(n);
    if !members.contains(&empty) {
        return vec![empty];
    }
    let mut border: Vec<AttrSet> = Vec::new();
    let mut seen = SetTrie::new();
    for t in theory {
        let base = t.to_vec();
        let mut cand = Vec::with_capacity(base.len() + 1);
        for a in 0..n {
            if t.contains(a) {
                continue;
            }
            // cand = t ∪ {a}, as ascending indices.
            cand.clear();
            let split = base.partition_point(|&v| v < a);
            cand.extend_from_slice(&base[..split]);
            cand.push(a);
            cand.extend_from_slice(&base[split..]);
            if members.contains_ascending(cand.iter().copied())
                || seen.contains_ascending(cand.iter().copied())
            {
                continue;
            }
            let all_subsets_member = (0..cand.len()).all(|drop| {
                members.contains_ascending(
                    cand.iter()
                        .enumerate()
                        .filter_map(|(i, &v)| (i != drop).then_some(v)),
                )
            });
            if all_subsets_member {
                seen.insert_ascending(cand.iter().copied());
                border.push(AttrSet::from_indices(n, cand.iter().copied()));
            }
        }
    }
    border.sort_by(|a, b| a.cmp_card_lex(b));
    border
}

/// The downward closure of a family: every subset of every member.
///
/// Exponential in member size — a test/experiment utility, not an
/// algorithmic building block (the whole point of borders is to avoid
/// materializing this).
pub fn downward_closure(n: usize, family: &[AttrSet]) -> Vec<AttrSet> {
    let mut seen: HashSet<AttrSet> = HashSet::new();
    let mut stack: Vec<AttrSet> = family.to_vec();
    while let Some(s) = stack.pop() {
        if seen.contains(&s) {
            continue;
        }
        for sub in dualminer_bitset::ImmediateSubsets::new(&s) {
            if !seen.contains(&sub) {
                stack.push(sub);
            }
        }
        seen.insert(s);
    }
    if !family.is_empty() {
        seen.insert(AttrSet::empty(n));
    }
    let mut v: Vec<AttrSet> = seen.into_iter().collect();
    v.sort_by(|a, b| a.cmp_card_lex(b));
    v
}

/// Outcome of the Corollary 4 verification procedure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifyOutcome {
    /// Whether `S = MTh(L, r, q)`.
    pub is_maxth: bool,
    /// Oracle evaluations spent — exactly `|Bd⁺(S)| + |Bd⁻(S)|` when the
    /// answer is positive (early exit on the first counterexample may use
    /// fewer).
    pub queries: u64,
    /// The first failing sentence, if any: a positive-border member found
    /// uninteresting, or a negative-border member found interesting.
    pub counterexample: Option<AttrSet>,
    /// `Bd⁻(S)` by Theorem 7, card-lex sorted: the sentences the second
    /// half of the check queries. When `is_maxth` holds this is the
    /// negative border of the theory itself.
    pub negative_border: Vec<AttrSet>,
}

impl VerifyOutcome {
    /// Certifies a negative border computed elsewhere (for instance by
    /// the miner that produced `S`) against the one Theorem 7 gives.
    /// Returns the first set, in card-lex order, that lies in exactly one
    /// of the two; `None` when they agree. `claimed` must be card-lex
    /// sorted, as every border in this workspace is.
    pub fn border_difference<'a>(&'a self, claimed: &'a [AttrSet]) -> Option<&'a AttrSet> {
        let (mut a, mut b) = (self.negative_border.iter(), claimed.iter());
        let (mut x, mut y) = (a.next(), b.next());
        loop {
            match (x, y) {
                (None, None) => return None,
                (Some(s), None) | (None, Some(s)) => return Some(s),
                (Some(s), Some(t)) => match s.cmp_card_lex(t) {
                    std::cmp::Ordering::Equal => (x, y) = (a.next(), b.next()),
                    std::cmp::Ordering::Less => return Some(s),
                    std::cmp::Ordering::Greater => return Some(t),
                },
            }
        }
    }
}

/// Problem 3 / Corollary 4: verify `S = MTh(L, r, q)` using exactly
/// `|Bd(S)|` `Is-interesting` queries.
///
/// `s` must be an antichain (the candidate `MTh` itself); dominated members
/// would make "S = MTh" trivially false, so they are rejected by assertion
/// rather than silently maximized away. `Bd⁻(S)` comes from one
/// dualization with `algo` ([`TrAlgorithm::Auto`] lets the planner pick
/// the backend); every backend yields the same border, so the verdict and
/// the query count do not depend on `algo`.
pub fn verify_maxth<O: InterestOracle>(
    oracle: &mut O,
    s: &[AttrSet],
    algo: TrAlgorithm,
) -> VerifyOutcome {
    let n = oracle.universe_size();
    let bd_plus = positive_border(s);
    assert_eq!(bd_plus.len(), s.len(), "candidate MTh must be an antichain");
    let negative_border = transversals_of_complements(n, &bd_plus, algo);
    // Every claimed-maximal sentence must be interesting, and every
    // minimal sentence just outside must not be.
    let claims = s.iter().map(|m| (m, true));
    let outside = negative_border.iter().map(|t| (t, false));
    let mut queries = 0u64;
    let mut counterexample = None;
    for (sentence, interesting) in claims.chain(outside) {
        queries += 1;
        if oracle.is_interesting(sentence) != interesting {
            counterexample = Some(sentence.clone());
            break;
        }
    }
    VerifyOutcome {
        is_maxth: counterexample.is_none(),
        queries,
        counterexample,
        negative_border,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{CountingOracle, FamilyOracle};
    use dualminer_bitset::Universe;

    fn fig1() -> (Universe, Vec<AttrSet>) {
        let u = Universe::letters(4);
        let maxth = vec![u.parse("ABC").unwrap(), u.parse("BD").unwrap()];
        (u, maxth)
    }

    #[test]
    fn example_8_downward_closure() {
        let (u, maxth) = fig1();
        let closure = downward_closure(4, &maxth);
        // {∅, A, B, C, D?, ...}: paper lists {ABC, AB, AC, BC, BD, A, B, C, D}
        // plus ∅ in our convention; D comes from BD.
        assert_eq!(closure.len(), 10);
        assert!(closure.contains(&u.parse("D").unwrap()));
        assert!(closure.contains(&u.empty_set()));
        assert!(!closure.contains(&u.parse("AD").unwrap()));
    }

    #[test]
    fn example_8_negative_border_via_transversals() {
        let (u, maxth) = fig1();
        let bd_minus = negative_border_via_transversals(4, &maxth, TrAlgorithm::Berge);
        assert_eq!(u.display_family(bd_minus.iter()), "{AD, CD}");
    }

    #[test]
    fn theorem7_identity_on_example_8() {
        let (_, maxth) = fig1();
        let closure = downward_closure(4, &maxth);
        let by_def = negative_border_definition(4, &closure);
        let by_tr = negative_border_via_transversals(4, &maxth, TrAlgorithm::Berge);
        assert_eq!(by_def, by_tr);
    }

    #[test]
    fn positive_border_drops_dominated() {
        let (u, mut family) = fig1();
        family.push(u.parse("AB").unwrap());
        family.push(u.empty_set());
        let bd_plus = positive_border(&family);
        assert_eq!(u.display_family(bd_plus.iter()), "{BD, ABC}");
    }

    #[test]
    fn empty_theory_borders() {
        let bd = negative_border_via_transversals(4, &[], TrAlgorithm::Berge);
        assert_eq!(bd, vec![AttrSet::empty(4)]);
        let by_def = negative_border_definition(4, &[]);
        assert_eq!(by_def, vec![AttrSet::empty(4)]);
    }

    #[test]
    fn full_theory_has_empty_negative_border() {
        let full = AttrSet::full(4);
        let bd = negative_border_via_transversals(4, &[full], TrAlgorithm::Berge);
        assert!(bd.is_empty());
    }

    #[test]
    fn verify_accepts_true_maxth_with_exact_queries() {
        let (_, maxth) = fig1();
        let mut oracle = CountingOracle::new(FamilyOracle::new(4, maxth.clone()));
        let out = verify_maxth(&mut oracle, &maxth, TrAlgorithm::Berge);
        assert!(out.is_maxth);
        // |Bd⁺| + |Bd⁻| = 2 + 2 (Corollary 4's exact count).
        assert_eq!(out.queries, 4);
        assert_eq!(oracle.distinct_queries(), 4);
    }

    #[test]
    fn verify_rejects_wrong_candidates() {
        let (u, maxth) = fig1();
        let mut oracle = CountingOracle::new(FamilyOracle::new(4, maxth.clone()));

        // Too small: claims only ABC — then BD ⊆ ... negative border of
        // {ABC} is {D}, and D *is* interesting (D ⊆ BD).
        let out = verify_maxth(&mut oracle, &[u.parse("ABC").unwrap()], TrAlgorithm::Berge);
        assert!(!out.is_maxth);
        assert_eq!(out.counterexample, Some(u.parse("D").unwrap()));

        // Too big: claims ABCD maximal — not interesting.
        let out = verify_maxth(&mut oracle, &[u.parse("ABCD").unwrap()], TrAlgorithm::Berge);
        assert!(!out.is_maxth);
        assert_eq!(out.counterexample, Some(u.parse("ABCD").unwrap()));
    }

    #[test]
    fn verify_reports_the_theorem7_border_for_every_backend() {
        let (u, maxth) = fig1();
        for algo in [TrAlgorithm::Auto, TrAlgorithm::Berge, TrAlgorithm::MuMmcs] {
            let mut oracle = FamilyOracle::new(4, maxth.clone());
            let out = verify_maxth(&mut oracle, &maxth, algo);
            assert_eq!(u.display_family(out.negative_border.iter()), "{AD, CD}");
            assert_eq!(out.border_difference(&out.negative_border), None);
        }
    }

    #[test]
    fn border_difference_names_the_first_differing_set() {
        let (u, maxth) = fig1();
        let mut oracle = FamilyOracle::new(4, maxth.clone());
        let out = verify_maxth(&mut oracle, &maxth, TrAlgorithm::Auto);
        let p = |s: &str| u.parse(s).unwrap();
        // A set missing from the claim, a stray extra, and a substitute.
        assert_eq!(out.border_difference(&[p("CD")]), Some(&p("AD")));
        assert_eq!(out.border_difference(&[p("AD"), p("CD")]), None);
        assert_eq!(
            out.border_difference(&[p("AD"), p("CD"), p("ABD")]),
            Some(&p("ABD"))
        );
        assert_eq!(out.border_difference(&[p("D")]), Some(&p("D")));
        assert_eq!(out.border_difference(&[p("AD"), p("BC")]), Some(&p("BC")));
    }

    #[test]
    #[should_panic(expected = "antichain")]
    fn verify_rejects_non_antichain() {
        let (u, maxth) = fig1();
        let mut oracle = FamilyOracle::new(4, maxth.clone());
        let mut s = maxth;
        s.push(u.parse("AB").unwrap());
        verify_maxth(&mut oracle, &s, TrAlgorithm::Berge);
    }

    #[test]
    fn negative_border_definition_matches_transversals_randomly() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(19);
        for _ in 0..30 {
            let n = rng.gen_range(3..8);
            let m = rng.gen_range(0..4);
            let family: Vec<AttrSet> = (0..m)
                .map(|_| {
                    let k = rng.gen_range(0..=n);
                    AttrSet::from_indices(n, (0..k).map(|_| rng.gen_range(0..n)))
                })
                .collect();
            let maxth = positive_border(&family);
            let closure = downward_closure(n, &maxth);
            let by_def = negative_border_definition(n, &closure);
            let by_tr = negative_border_via_transversals(n, &maxth, TrAlgorithm::Berge);
            assert_eq!(by_def, by_tr, "n={n} maxth={maxth:?}");
        }
    }
}
