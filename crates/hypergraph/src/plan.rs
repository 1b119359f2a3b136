//! Instance-shape planner: one `dualize()` entry point that inspects the
//! input and picks the transversal backend expected to win.
//!
//! The repo now carries five interchangeable engines, each with a regime
//! where it dominates (DESIGN.md §14):
//!
//! * **Berge** — tiny edge counts and matching-like inputs, where the
//!   per-edge multiplication touches almost nothing.
//! * **Levelwise** (Corollary 15) — co-sparse inputs, every edge of size
//!   ≥ n − O(log n), where the levelwise special case is input-polynomial.
//! * **MU-MMCS** — the general-purpose dense workhorse (including
//!   hub-dominated profiles, where its degree ordering branches on the
//!   hub first and simulates the decomposition with less overhead).
//! * **EGM** — massive skewed families: thousands of edges with a vertex
//!   in ≥ 40% of them, where one split sheds enough edge mass on both
//!   sides to pay for the recombination.
//! * **FK joint generation** — never auto-selected (its quasi-polynomial
//!   guarantee is for *duality checking*; as an enumerator it is dominated
//!   on every measured class) but remains selectable explicitly.
//!
//! The decision uses only O(‖H‖) shape features — edge count, rank,
//! min/max degree, degree skew — so planning is effectively free next to
//! any dualization. Every backend returns the identical canonical
//! hypergraph, so the choice never changes results, only running time.

use dualminer_obs::{Outcome, RunCtl};

use crate::{berge, egm, joint_gen, levelwise_tr, mmcs, mu_mmcs, Hypergraph, TrAlgorithm};

/// Shape features the planner extracts from an instance (all O(‖H‖)).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Shape {
    /// Universe size.
    pub n: usize,
    /// Edge count after minimization.
    pub m: usize,
    /// Largest edge size (the hypergraph's rank); 0 when edgeless.
    pub rank: usize,
    /// Smallest edge size; 0 when edgeless.
    pub min_edge: usize,
    /// Largest vertex degree.
    pub max_degree: usize,
    /// Degeneracy proxy: the largest `d` such that at least `d` vertices
    /// have degree ≥ `d` (an h-index over the degree sequence — cheap, and
    /// tracks how "core-heavy" the instance is).
    pub degeneracy: usize,
}

/// A planner verdict: the concrete backend plus the rule that fired.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlanDecision {
    /// The backend to run (never [`TrAlgorithm::Auto`]).
    pub backend: TrAlgorithm,
    /// Short machine-readable name of the rule that fired (stable; the
    /// stats JSON `planner_choice` value).
    pub rule: &'static str,
    /// The features the decision was based on.
    pub shape: Shape,
}

/// Extracts the planner's shape features from a (minimized) edge family.
pub fn shape_of(h: &Hypergraph) -> Shape {
    let n = h.universe_size();
    let m = h.len();
    let rank = h.max_edge_size().unwrap_or(0);
    let min_edge = h.min_edge_size().unwrap_or(0);
    let mut degrees = h.degrees();
    let max_degree = degrees.iter().copied().max().unwrap_or(0);
    degrees.sort_unstable_by(|a, b| b.cmp(a));
    let degeneracy = degrees
        .iter()
        .enumerate()
        .take_while(|&(i, &d)| d > i)
        .count();
    Shape {
        n,
        m,
        rank,
        min_edge,
        max_degree,
        degeneracy,
    }
}

/// Edge-count threshold below which Berge's multiplication wins outright.
const SMALL_EDGE_COUNT: usize = 12;

/// Minimum edge count before the EGM decomposition is considered. The
/// split must amortize two sub-dualizations plus a re-minimization, and
/// measured break-even against MU-MMCS sits in the thousands-of-edges
/// regime (threshold(14,6) with m = 3003 splits 1.6× faster; small hub
/// families below ~1k edges consistently lose to direct MU-MMCS).
const EGM_MIN_EDGES: usize = 2048;

/// Degree-skew threshold for EGM: the top vertex must sit in at least this
/// fraction of the edges for the `H_v̄` branch to shrink meaningfully.
const EGM_DEGREE_FRACTION: f64 = 0.4;

/// Picks a backend for the instance. The input should already be
/// minimized (the `dualize` wrappers minimize first); the decision is
/// deterministic in the instance alone.
pub fn plan(h: &Hypergraph) -> PlanDecision {
    let shape = shape_of(h);
    let decide = |backend, rule| PlanDecision {
        backend,
        rule,
        shape,
    };
    // Constants and near-empty families: any engine is instant; Berge
    // avoids even building a search state.
    if shape.m == 0 || shape.min_edge == 0 {
        return decide(TrAlgorithm::Berge, "trivial");
    }
    // Corollary 15 regime: all complements of size O(log n). Matches the
    // precondition test the Levelwise arm itself applies, so the special
    // case genuinely runs (no silent Berge fallback).
    let log2n = usize::BITS as usize - shape.n.max(1).leading_zeros() as usize;
    if shape.n - shape.min_edge <= log2n + 2 {
        return decide(TrAlgorithm::LevelwiseLargeEdges, "co-sparse");
    }
    // Few edges: the product of a dozen small families stays tiny and
    // Berge's re-minimization never blows up.
    if shape.m <= SMALL_EDGE_COUNT {
        return decide(TrAlgorithm::Berge, "few-edges");
    }
    // Matching-like: rank ≤ 2 with every vertex in at most one edge means
    // the product is a free cross-product — Berge emits it directly,
    // where a DFS engine would still walk the full 2^m tree node by node.
    if shape.rank <= 2 && shape.max_degree <= 1 {
        return decide(TrAlgorithm::Berge, "matching");
    }
    // Massive skewed families: one split sheds a large fraction of the
    // edge mass on both sides, and at this size that outweighs the
    // recombination cost.
    if shape.m >= EGM_MIN_EDGES
        && shape.max_degree < shape.m
        && (shape.max_degree as f64) >= EGM_DEGREE_FRACTION * shape.m as f64
    {
        return decide(TrAlgorithm::Egm, "mass-skew");
    }
    decide(TrAlgorithm::MuMmcs, "dense-default")
}

/// Aggregate report for one planned dualization, for the stats surfaces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlanReport {
    /// The decision that was executed.
    pub decision: PlanDecision,
    /// MU-MMCS search counters, populated when the executed backend was
    /// MU-MMCS or EGM (EGM aggregates its leaves' counters).
    pub mu: Option<mu_mmcs::MuStats>,
    /// EGM decomposition counters, populated when the backend was EGM.
    pub egm: Option<egm::EgmStats>,
}

impl PlanDecision {
    /// Stable lowercase name of the chosen backend (CLI `--algo` spelling).
    pub fn backend_name(&self) -> &'static str {
        algo_name(self.backend)
    }
}

/// Every strategy, in the order the `--algo` help lists them.
pub const ALGORITHMS: [TrAlgorithm; 7] = [
    TrAlgorithm::Auto,
    TrAlgorithm::Berge,
    TrAlgorithm::FkJointGeneration,
    TrAlgorithm::LevelwiseLargeEdges,
    TrAlgorithm::Mmcs,
    TrAlgorithm::MuMmcs,
    TrAlgorithm::Egm,
];

/// The strategy a CLI `--algo` spelling names: the inverse of
/// [`algo_name`].
pub fn algo_from_name(name: &str) -> Option<TrAlgorithm> {
    ALGORITHMS.into_iter().find(|&a| algo_name(a) == name)
}

/// The CLI `--algo` spelling of each strategy.
pub fn algo_name(algo: TrAlgorithm) -> &'static str {
    match algo {
        TrAlgorithm::Auto => "auto",
        TrAlgorithm::Berge => "berge",
        TrAlgorithm::FkJointGeneration => "fk",
        TrAlgorithm::LevelwiseLargeEdges => "levelwise",
        TrAlgorithm::Mmcs => "mmcs",
        TrAlgorithm::MuMmcs => "mu-mmcs",
        TrAlgorithm::Egm => "egm",
    }
}

/// Computes `Tr(H)` with the planner-selected backend.
///
/// This is the preferred general entry point: identical output to every
/// explicit backend (canonical edge order, same minimal-transversal set),
/// with the engine chosen from the instance's shape. With a thread budget,
/// or under a budget and an observer, call
/// [`crate::transversals_with_threads`] or [`crate::transversals_with_ctl`]
/// with [`TrAlgorithm::Auto`].
pub fn dualize(h: &Hypergraph) -> Hypergraph {
    crate::transversals_with(h, TrAlgorithm::Auto)
}

/// Runs `algo` (resolving [`TrAlgorithm::Auto`] through [`plan`]) and
/// reports what ran: the planner decision (for a forced backend, the rule
/// is `"forced"`) plus engine counters where the backend collects them.
pub fn dualize_ctl_report(
    h: &Hypergraph,
    algo: TrAlgorithm,
    threads: usize,
    ctl: &RunCtl<'_>,
) -> (Outcome<Hypergraph>, PlanReport) {
    let decision = match algo {
        TrAlgorithm::Auto => plan(&h.minimized()),
        forced => PlanDecision {
            backend: forced,
            rule: "forced",
            shape: shape_of(h),
        },
    };
    let mut report = PlanReport {
        decision,
        mu: None,
        egm: None,
    };
    let out = match decision.backend {
        TrAlgorithm::Auto => unreachable!("plan() returns a concrete backend"),
        TrAlgorithm::Berge => {
            berge::transversals_with_order_par_ctl(h, berge::EdgeOrder::LargestFirst, threads, ctl)
        }
        TrAlgorithm::FkJointGeneration => {
            joint_gen::transversals_traced_par_ctl(h, threads, ctl).map(|(tr, _)| tr)
        }
        TrAlgorithm::Mmcs => mmcs::transversals_par_ctl(h, threads, ctl),
        TrAlgorithm::MuMmcs => {
            let (out, mu) = mu_mmcs::transversals_par_ctl_stats(h, threads, ctl);
            report.mu = Some(mu);
            out
        }
        TrAlgorithm::Egm => {
            let (out, eg) = egm::transversals_par_ctl_stats(h, threads, ctl);
            report.mu = Some(eg.leaf);
            report.egm = Some(eg);
            out
        }
        TrAlgorithm::LevelwiseLargeEdges => {
            let n = h.universe_size();
            let max_complement = h.edges().iter().map(|e| n - e.len()).max().unwrap_or(0);
            let log2n = usize::BITS as usize - n.max(1).leading_zeros() as usize;
            if max_complement <= log2n + 2 {
                levelwise_tr::transversals_large_edges_traced_ctl(h, ctl).map(|(tr, _)| tr)
            } else {
                // Precondition violated on an explicit `--algo levelwise`:
                // fall back through the planner rather than pay Berge
                // unconditionally (the historical fallback).
                let fb = plan(&h.minimized());
                let fb = if fb.backend == TrAlgorithm::LevelwiseLargeEdges {
                    TrAlgorithm::Berge
                } else {
                    fb.backend
                };
                return dualize_ctl_report(h, fb, threads, ctl);
            }
        }
    };
    (out, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use dualminer_obs::{Meter, NoopObserver};
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn trivial_and_constants() {
        assert_eq!(plan(&Hypergraph::empty(5)).rule, "trivial");
        let falsum = Hypergraph::from_index_edges(3, [Vec::<usize>::new()]);
        assert_eq!(plan(&falsum).rule, "trivial");
        assert_eq!(dualize(&Hypergraph::empty(5)).len(), 1);
        assert!(dualize(&falsum).is_empty());
    }

    #[test]
    fn rules_fire_on_their_classes() {
        let mut rng = StdRng::seed_from_u64(17);
        let co = generators::co_sparse(16, 2, 8, &mut rng);
        assert_eq!(plan(&co).backend, TrAlgorithm::LevelwiseLargeEdges);

        let matching = generators::matching(40);
        assert_eq!(plan(&matching).backend, TrAlgorithm::Berge);
        assert_eq!(plan(&matching).rule, "matching");

        let hub = generators::hub(24, 1, 30, 3, &mut rng);
        let d = plan(&hub);
        assert!(
            matches!(d.backend, TrAlgorithm::Egm | TrAlgorithm::MuMmcs),
            "{d:?}"
        );

        let dense = generators::random_uniform(20, 40, 3..=5, &mut rng);
        assert_eq!(plan(&dense).backend, TrAlgorithm::MuMmcs);
    }

    #[test]
    fn auto_matches_berge_across_classes() {
        let mut rng = StdRng::seed_from_u64(23);
        let instances = vec![
            generators::matching(16),
            generators::threshold(7, 3),
            generators::cycle(9),
            generators::co_sparse(12, 2, 6, &mut rng),
            generators::hub(16, 2, 20, 3, &mut rng),
            generators::planted_transversal(14, 3, 18, 3, &mut rng),
            generators::random_uniform(12, 16, 2..=4, &mut rng),
        ];
        for h in instances {
            assert_eq!(dualize(&h), berge::transversals(&h), "{h:?}");
            for threads in [2, 8] {
                assert_eq!(
                    crate::transversals_with_threads(&h, TrAlgorithm::Auto, threads),
                    berge::transversals(&h)
                );
            }
        }
    }

    #[test]
    fn forced_levelwise_falls_back_through_planner() {
        // Dense, small edges: levelwise precondition fails; the fallback
        // must agree with Berge and report a concrete executed backend.
        let mut rng = StdRng::seed_from_u64(29);
        let h = generators::random_uniform(16, 20, 2..=4, &mut rng);
        let meter = Meter::unlimited();
        let ctl = RunCtl::new(&meter, &NoopObserver);
        let (out, report) = dualize_ctl_report(&h, TrAlgorithm::LevelwiseLargeEdges, 1, &ctl);
        assert_eq!(out.expect_complete(), berge::transversals(&h));
        assert_ne!(report.decision.backend, TrAlgorithm::LevelwiseLargeEdges);
    }

    #[test]
    fn shape_degeneracy_h_index() {
        // Triangle: 3 vertices of degree 2 → h-index 2.
        let t = Hypergraph::from_index_edges(3, [vec![0, 1], vec![1, 2], vec![0, 2]]);
        assert_eq!(shape_of(&t).degeneracy, 2);
    }
}
