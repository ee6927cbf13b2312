//! The oracle's pruned searches (dead-job skipping, first-hit exit) against
//! an unpruned copy of the same alternating-path search.
//!
//! `sched_core::naive` shares `MatchingOracle`, so the fast ≡ naive tests
//! cannot see a change in *which* job an augment picks. This reference keeps
//! its own match arrays and scans the whole reachable set on every search,
//! with the smallest-index tie-break; after every step the oracle must hold
//! the same matching, the same total bits and report the same gain bits.

use bmatch::{BipartiteGraph, GainScratch, MatchingOracle, NONE};
use proptest::prelude::*;

/// Unpruned reference: full BFS on every search, no dead marks.
struct FullSearch<'g> {
    g: &'g BipartiteGraph,
    values: Vec<f64>,
    allowed: Vec<bool>,
    retired: Vec<bool>,
    mx: Vec<u32>,
    my: Vec<u32>,
    total: f64,
}

impl<'g> FullSearch<'g> {
    fn new(g: &'g BipartiteGraph, values: Vec<f64>) -> Self {
        Self {
            g,
            values,
            allowed: vec![false; g.nx() as usize],
            retired: vec![false; g.ny() as usize],
            mx: vec![NONE; g.nx() as usize],
            my: vec![NONE; g.ny() as usize],
            total: 0.0,
        }
    }

    fn add_slot(&mut self, v: u32) -> f64 {
        if self.allowed[v as usize] {
            return 0.0;
        }
        self.allowed[v as usize] = true;
        let gain = augment(
            self.g,
            v,
            &mut self.mx,
            &mut self.my,
            &self.values,
            &self.retired,
        );
        self.total += gain;
        gain
    }

    fn retract(&mut self, y: u32) -> f64 {
        if self.retired[y as usize] {
            return 0.0;
        }
        self.retired[y as usize] = true;
        let x = self.my[y as usize];
        if x == NONE {
            return 0.0;
        }
        self.my[y as usize] = NONE;
        self.mx[x as usize] = NONE;
        let lost = self.values[y as usize];
        self.total -= lost;
        let regained = augment(
            self.g,
            x,
            &mut self.mx,
            &mut self.my,
            &self.values,
            &self.retired,
        );
        self.total += regained;
        regained - lost
    }

    /// Cumulative gain after each slot of `slots`, on a throwaway copy.
    fn prefixes(&self, slots: &[u32]) -> Vec<f64> {
        let (mut mx, mut my) = (self.mx.clone(), self.my.clone());
        let mut added = self.allowed.clone();
        let mut gain = 0.0;
        let mut out = Vec::with_capacity(slots.len());
        for &v in slots {
            if !added[v as usize] {
                added[v as usize] = true;
                gain += augment(self.g, v, &mut mx, &mut my, &self.values, &self.retired);
            }
            out.push(gain);
        }
        out
    }

    fn matching(&self) -> Vec<(u32, u32)> {
        (0..self.g.nx())
            .filter(|&x| self.mx[x as usize] != NONE)
            .map(|x| (x, self.mx[x as usize]))
            .collect()
    }
}

/// The oracle's search without pruning: BFS over every live job reachable
/// from `v`, flip the path to the best free job (smallest index on ties).
fn augment(
    g: &BipartiteGraph,
    v: u32,
    mx: &mut [u32],
    my: &mut [u32],
    values: &[f64],
    retired: &[bool],
) -> f64 {
    let mut seen = vec![false; g.ny() as usize];
    let mut prev_slot = vec![NONE; g.ny() as usize];
    let mut queue = vec![v];
    let (mut best_y, mut best_val) = (NONE, 0.0f64);
    let mut head = 0;
    while head < queue.len() {
        let x = queue[head];
        head += 1;
        for &y in g.adj_x(x) {
            if retired[y as usize] || seen[y as usize] {
                continue;
            }
            seen[y as usize] = true;
            prev_slot[y as usize] = x;
            let m = my[y as usize];
            if m == NONE {
                let val = values[y as usize];
                if val > best_val || (val == best_val && best_y != NONE && y < best_y) {
                    best_val = val;
                    best_y = y;
                }
            } else {
                queue.push(m);
            }
        }
    }
    if best_y == NONE {
        return 0.0;
    }
    let mut y = best_y;
    loop {
        let s = prev_slot[y as usize];
        let prev_job = mx[s as usize];
        my[y as usize] = s;
        mx[s as usize] = y;
        if prev_job == NONE {
            break;
        }
        y = prev_job;
    }
    best_val
}

/// One step: `kind` 0..=4 adds a slot, 5..=6 probes `gain_of`, 7..=8 probes
/// `gain_prefixes`, 9 retracts a job.
type Op = (u8, u32, Vec<u32>);

/// `(nx, ny, edges, values, ops)`.
type Case = (u32, u32, Vec<(u32, u32)>, Vec<u32>, Vec<Op>);

fn case_strategy() -> impl Strategy<Value = Case> {
    (1u32..24, 1u32..16).prop_flat_map(|(nx, ny)| {
        (
            Just(nx),
            Just(ny),
            proptest::collection::vec((0..nx, 0..ny), 0..80),
            proptest::collection::vec(1u32..5, ny as usize),
            proptest::collection::vec(
                (0u8..10, 0u32..64, proptest::collection::vec(0..nx, 0..8)),
                1..40,
            ),
        )
    })
}

fn check(g: &BipartiteGraph, values: Vec<f64>, ops: &[Op]) -> Result<(), TestCaseError> {
    let mut oracle = MatchingOracle::new(g, values.clone());
    let mut full = FullSearch::new(g, values);
    let mut scratch = GainScratch::new();
    let mut cum = Vec::new();
    for (step, (kind, a, slots)) in ops.iter().enumerate() {
        match kind {
            0..=4 => {
                let v = a % g.nx();
                prop_assert_eq!(oracle.add_slot(v).to_bits(), full.add_slot(v).to_bits());
            }
            5..=6 => {
                let want = full.prefixes(slots).last().copied().unwrap_or(0.0);
                let got = oracle.gain_of(slots, &mut scratch);
                prop_assert_eq!(got.to_bits(), want.to_bits(), "gain_of at step {}", step);
            }
            7..=8 => {
                oracle.gain_prefixes(slots, &mut scratch, &mut cum);
                let got: Vec<u64> = cum.iter().map(|c| c.to_bits()).collect();
                let want: Vec<u64> = full.prefixes(slots).iter().map(|c| c.to_bits()).collect();
                prop_assert_eq!(got, want, "gain_prefixes at step {}", step);
            }
            _ => {
                let y = a % g.ny();
                prop_assert_eq!(oracle.retract(y).to_bits(), full.retract(y).to_bits());
            }
        }
        prop_assert_eq!(
            oracle.matching().collect::<Vec<_>>(),
            full.matching(),
            "step {}",
            step
        );
        prop_assert_eq!(
            oracle.total().to_bits(),
            full.total.to_bits(),
            "step {}",
            step
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn pruned_search_equals_full_search_uniform_values(
        (nx, ny, edges, values, ops) in case_strategy()
    ) {
        let g = BipartiteGraph::from_edges(nx, ny, &edges);
        check(&g, vec![f64::from(values[0]); ny as usize], &ops)?;
    }

    #[test]
    fn pruned_search_equals_full_search_weighted_values(
        (nx, ny, edges, values, ops) in case_strategy()
    ) {
        let g = BipartiteGraph::from_edges(nx, ny, &edges);
        check(&g, values.into_iter().map(f64::from).collect(), &ops)?;
    }
}
