//! Seeded input generators. Every input the benchmark feeds the program
//! is made here from the workload seed; the program only ever sees the
//! generated files or inline text.

use std::fmt::Write as _;

use dualminer_hypergraph::Hypergraph;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// An independent seeded stream for sub-input `tag` of seed `seed`.
pub fn rng(seed: u64, tag: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0xD1B5_4A32_D192_ED03) ^ tag)
}

/// Item names `it0`, `it1`, …, as in the repository's own serve benches.
pub fn item_name(i: usize) -> String {
    format!("it{i}")
}

/// Parameters of the Quest-style basket generator.
#[derive(Clone, Copy, Debug)]
pub struct Quest {
    pub items: usize,
    pub rows: usize,
    /// Average target row size.
    pub row_size: usize,
    /// Pattern-pool size.
    pub patterns: usize,
    /// Average pattern size.
    pub pattern_size: usize,
    /// Probability an item of a picked pattern is dropped.
    pub corruption: f64,
}

impl Quest {
    /// Quest-style baskets (Agrawal & Srikant's generator, as in
    /// `dualminer_mining::gen::quest`): a pool of patterns with geometric
    /// popularity; each row unions picked, corrupted patterns until it
    /// reaches its target size. Pattern and row target sizes are
    /// stratified over `[avg/2, 3·avg/2]` instead of drawn, so every seed
    /// gets the same size profile and the seed only draws which items form
    /// each pattern, which patterns each row picks and what corruption
    /// drops. That keeps the cost of mining one draw in a narrow band
    /// across seeds, so a ten-seed spread measures the program rather than
    /// the draw.
    pub fn rows(&self, rng: &mut StdRng) -> Vec<Vec<usize>> {
        let n = self.items;
        let stratified = |avg: usize, k: usize, of: usize| -> usize {
            let lo = (avg / 2).max(1);
            let hi = (avg + avg / 2).max(lo);
            (lo + (k * (hi - lo + 1)) / of.max(1)).min(n)
        };
        // Pattern k is a window of the seed's item order starting at a
        // fixed offset, so the pool's overlap structure is the same for
        // every seed and only the item labels move.
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(rng);
        let stride = (n / self.patterns.max(1)).max(1) + 1;
        let pool: Vec<Vec<usize>> = (0..self.patterns)
            .map(|k| {
                let size = stratified(self.pattern_size, k, self.patterns);
                (0..size).map(|j| order[(k * stride + j) % n]).collect()
            })
            .collect();
        let weights: Vec<f64> = (0..pool.len()).map(|i| 0.8f64.powi(i as i32)).collect();
        let total: f64 = weights.iter().sum();
        let mut targets: Vec<usize> = (0..self.rows)
            .map(|r| stratified(self.row_size, r, self.rows))
            .collect();
        targets.shuffle(rng);
        targets
            .into_iter()
            .map(|target| {
                let mut row = vec![false; n];
                let mut len = 0;
                let mut guard = 0;
                while len < target && guard < 8 * target + 16 {
                    guard += 1;
                    let mut pick = rng.gen::<f64>() * total;
                    let mut chosen = pool.len() - 1;
                    for (i, w) in weights.iter().enumerate() {
                        if pick < *w {
                            chosen = i;
                            break;
                        }
                        pick -= w;
                    }
                    for &item in &pool[chosen] {
                        if !row[item] && rng.gen::<f64>() >= self.corruption {
                            row[item] = true;
                            len += 1;
                        }
                    }
                }
                (0..n).filter(|&i| row[i]).collect()
            })
            .collect()
    }
}

/// Renders rows as a basket file: one transaction per line, items in a
/// row-specific shuffled order (the parser must not rely on sorted input).
pub fn basket_text(rows: &[Vec<usize>], rng: &mut StdRng) -> String {
    let mut text = String::new();
    let mut row = Vec::new();
    for r in rows {
        row.clear();
        row.extend_from_slice(r);
        row.shuffle(rng);
        for (k, &i) in row.iter().enumerate() {
            if k > 0 {
                text.push(' ');
            }
            text.push_str(&item_name(i));
        }
        text.push('\n');
    }
    text
}

/// Renders a hypergraph as one edge per line over vertex names `v0`, `v1`, ….
pub fn hypergraph_text(h: &Hypergraph) -> String {
    let mut text = String::new();
    for e in h.edges() {
        let line: Vec<String> = e.iter().map(|v| format!("v{v}")).collect();
        let _ = writeln!(text, "{}", line.join(" "));
    }
    text
}

/// An Armstrong relation for a seeded family of minimal keys over
/// `attrs` attributes: one base row plus, per maximal non-superkey `M`, a
/// row agreeing with the base exactly on `M`. Its minimal keys are the
/// chosen family (minimized); the maximal non-superkeys are found by
/// brute force, so `attrs` must stay small.
pub fn armstrong_csv(attrs: usize, keys: usize, rng: &mut StdRng) -> (String, Vec<u32>) {
    assert!(attrs <= 16, "brute force over 2^attrs subsets");
    let mut family: Vec<u32> = Vec::new();
    while family.len() < keys {
        let size = 2 + rng.gen_range(0..2);
        let mut order: Vec<usize> = (0..attrs).collect();
        order.shuffle(rng);
        let key = order[..size].iter().fold(0u32, |m, &a| m | (1 << a));
        if !family.contains(&key) {
            family.push(key);
        }
    }
    // Minimize: drop keys that contain another key.
    let minimal: Vec<u32> = family
        .iter()
        .copied()
        .filter(|&k| !family.iter().any(|&o| o != k && o & k == o))
        .collect();
    let is_superkey = |s: u32| minimal.iter().any(|&k| k & !s == 0);
    let full = (1u32 << attrs) - 1;
    let maximal_non_keys: Vec<u32> = (0..=full)
        .filter(|&s| !is_superkey(s))
        .filter(|&s| (0..attrs).all(|a| s & (1 << a) != 0 || is_superkey(s | (1 << a))))
        .collect();
    let mut csv = String::new();
    let header: Vec<String> = (0..attrs).map(|a| format!("c{a}")).collect();
    let _ = writeln!(csv, "{}", header.join(","));
    let _ = writeln!(csv, "{}", vec!["x0"; attrs].join(","));
    for (r, &m) in maximal_non_keys.iter().enumerate() {
        let cells: Vec<String> = (0..attrs)
            .map(|a| {
                if m & (1 << a) != 0 {
                    "x0".to_string()
                } else {
                    format!("x{}", r + 1)
                }
            })
            .collect();
        let _ = writeln!(csv, "{}", cells.join(","));
    }
    let mut minimal = minimal;
    minimal.sort_unstable();
    (csv, minimal)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_input() {
        let q = Quest {
            items: 12,
            rows: 50,
            row_size: 5,
            patterns: 6,
            pattern_size: 4,
            corruption: 0.2,
        };
        let a = basket_text(&q.rows(&mut rng(7, 0)), &mut rng(8, 0));
        let b = basket_text(&q.rows(&mut rng(7, 0)), &mut rng(8, 0));
        let c = basket_text(&q.rows(&mut rng(9, 0)), &mut rng(8, 0));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(q.rows(&mut rng(1, 0)).iter().all(|r| r.len() >= 2));
    }

    #[test]
    fn armstrong_relation_has_the_chosen_keys() {
        let (csv, keys) = armstrong_csv(6, 3, &mut rng(3, 0));
        assert!(!keys.is_empty());
        // Every key separates every pair of rows; a proper subset of a
        // minimal key does not.
        let rows: Vec<Vec<&str>> = csv
            .lines()
            .skip(1)
            .map(|l| l.split(',').collect())
            .collect();
        let separates = |s: u32| {
            rows.iter().enumerate().all(|(i, a)| {
                rows[i + 1..]
                    .iter()
                    .all(|b| (0..6).any(|c| s & (1 << c) != 0 && a[c] != b[c]))
            })
        };
        for &k in &keys {
            assert!(separates(k));
            for c in 0..6 {
                if k & (1 << c) != 0 {
                    assert!(!separates(k & !(1 << c)));
                }
            }
        }
    }
}
