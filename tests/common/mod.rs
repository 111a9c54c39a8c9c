//! Shared fixtures for the parity suites: an adversarial residue-schedule
//! generator, a scheduler over a borrowed residue view, and the bitwise
//! analysis comparison.
//!
//! The standard suite's schedulers never violate independence, so parity
//! on them alone cannot see a wrong verdict.  [`adversarial`] draws the
//! schedules they never produce: random slots, non-power-of-two and
//! coprime moduli, deliberately violating edges, a nonzero first holiday
//! and a view wider than the conflict graph (extra nodes taint every
//! holiday they attend).

#![allow(dead_code)]

use fhg::core::analysis::{analyze_schedule_reference, ScheduleAnalysis};
use fhg::core::schedulers::residue::ResidueSchedule;
use fhg::core::Scheduler;
use fhg::graph::generators::erdos_renyi;
use fhg::graph::{Graph, HappySet, NodeId};

/// A small deterministic generator (splitmix64).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A uniformly drawn element of `items`.
    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize]
    }
}

/// Moduli the generator draws from: powers of two, odd primes and their
/// products, so palettes mix nested, coprime and partially overlapping
/// periods.  Any three of them have an lcm of at most 420, which keeps the
/// reference sweeps short.
pub const MODULI: [u64; 11] = [1, 2, 3, 4, 5, 6, 7, 10, 12, 14, 15];

pub fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Whether the rows of `u` and `v` ever host on the same holiday.
pub fn co_attend(view: &ResidueSchedule, u: NodeId, v: NodeId) -> bool {
    let g = gcd(view.modulus(u), view.modulus(v));
    view.slot(u) % g == view.slot(v) % g
}

/// One adversarial instance: a conflict graph, a residue schedule over at
/// least as many nodes, and the first holiday.
pub struct Adversarial {
    pub graph: Graph,
    pub view: ResidueSchedule,
    pub start: u64,
}

impl Adversarial {
    /// The instance as a scheduler (for the reference sweep or the
    /// serving tier).
    pub fn scheduler(&self) -> ViewScheduler<'_> {
        ViewScheduler { view: &self.view, start: self.start }
    }
}

/// Draws the adversarial instance of `seed` (see the module docs).
pub fn adversarial(seed: u64) -> Adversarial {
    let mut rng = Rng::new(seed);
    let n = 6 + rng.below(14) as usize;
    let extra = rng.below(3) as usize;
    let palette: Vec<u64> = (0..1 + rng.below(3)).map(|_| rng.pick(&MODULI)).collect();
    let moduli: Vec<u64> = (0..n + extra).map(|_| rng.pick(&palette)).collect();
    let mut slots: Vec<u64> = moduli.iter().map(|&m| rng.below(m)).collect();
    let mut graph = erdos_renyi(n, 0.15, seed);
    // Deliberately violating edges: align v's slot with u's modulo the
    // gcd of their moduli, then join them.
    for _ in 0..rng.below(3) {
        let (u, v) = (rng.below(n as u64) as usize, rng.below(n as u64) as usize);
        if u == v {
            continue;
        }
        let g = gcd(moduli[u], moduli[v]);
        slots[v] = slots[u] % g + g * rng.below(moduli[v] / g);
        graph.add_edge_if_absent(u, v).expect("endpoints are in range");
    }
    let start = rng.below(1000);
    Adversarial { graph, view: ResidueSchedule::new(slots, moduli), start }
}

/// A scheduler over a borrowed residue view whose first holiday is
/// `start`: a reference sweep of `t1 - t0` holidays over
/// `ViewScheduler { view, start: s + t0 }` is exactly the schedule
/// starting at `s` restricted to the window `[t0, t1)`.
pub struct ViewScheduler<'a> {
    pub view: &'a ResidueSchedule,
    pub start: u64,
}

/// The name every [`ViewScheduler`] analysis carries.
pub const VIEW_REF: &str = "view-ref";

impl Scheduler for ViewScheduler<'_> {
    fn node_count(&self) -> usize {
        self.view.node_count()
    }
    fn fill_happy_set(&mut self, t: u64, out: &mut HappySet) {
        self.view.fill(t, out);
    }
    fn first_holiday(&self) -> u64 {
        self.start
    }
    fn name(&self) -> &'static str {
        VIEW_REF
    }
    fn is_periodic(&self) -> bool {
        true
    }
    fn period(&self, p: NodeId) -> Option<u64> {
        Some(self.view.modulus(p))
    }
    fn unhappiness_bound(&self, _p: NodeId) -> Option<u64> {
        None
    }
    fn residue_schedule(&self) -> Option<&ResidueSchedule> {
        Some(self.view)
    }
}

/// The sequential reference analysis of the window `[t0, t1)` of the
/// schedule `view` starting at holiday `start`.
pub fn reference_window(
    graph: &Graph,
    view: &ResidueSchedule,
    start: u64,
    t0: u64,
    t1: u64,
) -> ScheduleAnalysis {
    let mut shifted = ViewScheduler { view, start: start + t0 };
    analyze_schedule_reference(graph, &mut shifted, t1.saturating_sub(t0))
}

/// Asserts two analyses are bitwise-identical, NaN-aware on float fields.
pub fn assert_bitwise_identical(got: &ScheduleAnalysis, reference: &ScheduleAnalysis, ctx: &str) {
    assert_eq!(got.scheduler, reference.scheduler, "{ctx}");
    assert_eq!(got.horizon, reference.horizon, "{ctx}");
    assert_eq!(
        got.all_happy_sets_independent, reference.all_happy_sets_independent,
        "{ctx}: independence verdict"
    );
    assert_eq!(got.never_happy, reference.never_happy, "{ctx}: never_happy");
    assert_eq!(got.total_happiness, reference.total_happiness, "{ctx}: total_happiness");
    assert_eq!(
        got.mean_happy_set_size.to_bits(),
        reference.mean_happy_set_size.to_bits(),
        "{ctx}: mean_happy_set_size"
    );
    assert_eq!(got.per_node.len(), reference.per_node.len(), "{ctx}");
    for (a, b) in got.per_node.iter().zip(&reference.per_node) {
        assert_eq!(a.node, b.node, "{ctx}");
        assert_eq!(a.degree, b.degree, "{ctx}: node {}", a.node);
        assert_eq!(a.happy_count, b.happy_count, "{ctx}: node {} happy_count", a.node);
        assert_eq!(a.max_unhappiness, b.max_unhappiness, "{ctx}: node {} streak", a.node);
        assert_eq!(a.observed_period, b.observed_period, "{ctx}: node {} period", a.node);
        assert_eq!(a.first_happy, b.first_happy, "{ctx}: node {} first_happy", a.node);
        assert_eq!(
            a.mean_gap.to_bits(),
            b.mean_gap.to_bits(),
            "{ctx}: node {} mean_gap (NaN-aware)",
            a.node
        );
    }
    assert_eq!(
        got.jain_fairness().to_bits(),
        reference.jain_fairness().to_bits(),
        "{ctx}: jain_fairness"
    );
    assert_eq!(got.max_unhappiness(), reference.max_unhappiness(), "{ctx}");
    assert_eq!(got.all_periodic(), reference.all_periodic(), "{ctx}");
}
