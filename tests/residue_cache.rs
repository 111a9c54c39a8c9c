//! Verification-cache lockdown: the sharded sweep verifies perfectly
//! periodic schedulers once per residue class, and a corrupted schedule is
//! still caught through the cache path.
//!
//! A counting [`HolidayChecker`] wraps the real graph checker and records
//! every holiday the analysis actually probes.  For a scheduler exposing a
//! `ResidueSchedule` view with cycle `C <= horizon`, the sharded sweep
//! (forced through `analyze_schedule_with_engine`, since such horizons
//! select the closed form, which checks edge congruences and probes no
//! holiday) must probe exactly the holidays `start..start + C` — one per
//! residue class — at every thread count; stateful schedulers must still
//! be probed on every holiday.
//! Both counting granularities are pinned: a checker that only overrides
//! `check` sees every class through the batch default's per-class fallback,
//! and a checker that overrides `check_batch` sees each class in exactly one
//! batch.  Kernel-mode coverage comes from CI running this suite under each
//! `FHG_KERNEL` value.

use std::sync::Mutex;

use fhg::core::analysis::{
    analyze_schedule, analyze_schedule_reference, analyze_schedule_with_checker,
    analyze_schedule_with_engine, AnalysisEngine, GraphChecker, HolidayChecker,
};
use fhg::core::schedulers::residue::ResidueSchedule;
use fhg::core::schedulers::{PeriodicDegreeBound, PhasedGreedy};
use fhg::core::{HappySet, Scheduler};
use fhg::graph::generators::erdos_renyi;
use fhg::graph::{FixedBitSet, Graph, NodeId};
use proptest::prelude::*;
use rayon::ThreadPoolBuilder;

/// The engine whose probes this suite counts: the sharded, residue-cached
/// sweep.
const SWEEP: AnalysisEngine = AnalysisEngine::ShardedSweep;

/// Records every holiday the analysis asks to verify, then delegates to the
/// real checker.
struct CountingChecker {
    inner: GraphChecker,
    probed: Mutex<Vec<u64>>,
}

impl CountingChecker {
    fn new(graph: &Graph) -> Self {
        CountingChecker { inner: GraphChecker::new(graph), probed: Mutex::new(Vec::new()) }
    }

    fn probed_sorted(&self) -> Vec<u64> {
        let mut probed = self.probed.lock().unwrap().clone();
        probed.sort_unstable();
        probed
    }
}

impl HolidayChecker for CountingChecker {
    fn check(&self, t: u64, happy: &FixedBitSet) -> bool {
        self.probed.lock().unwrap().push(t);
        self.inner.check(t, happy)
    }
}

/// Records every class handed through the **batch** path (and asserts the
/// batch width contract), then delegates to the real batched checker.  A
/// class the engines route through per-class `check` would be counted too —
/// the exactly-once assertions below therefore cover both granularities.
struct BatchCountingChecker {
    inner: GraphChecker,
    probed: Mutex<Vec<u64>>,
    batches: Mutex<Vec<usize>>,
}

impl BatchCountingChecker {
    fn new(graph: &Graph) -> Self {
        BatchCountingChecker {
            inner: GraphChecker::new(graph),
            probed: Mutex::new(Vec::new()),
            batches: Mutex::new(Vec::new()),
        }
    }

    fn probed_sorted(&self) -> Vec<u64> {
        let mut probed = self.probed.lock().unwrap().clone();
        probed.sort_unstable();
        probed
    }
}

impl HolidayChecker for BatchCountingChecker {
    fn check(&self, t: u64, happy: &FixedBitSet) -> bool {
        self.probed.lock().unwrap().push(t);
        self.inner.check(t, happy)
    }

    fn check_batch(&self, classes: &[(u64, &FixedBitSet)]) -> bool {
        assert!(classes.len() <= 64, "engines must respect the batch width");
        self.probed.lock().unwrap().extend(classes.iter().map(|&(t, _)| t));
        self.batches.lock().unwrap().push(classes.len());
        self.inner.check_batch(classes)
    }
}

#[test]
fn each_residue_class_is_verified_exactly_once() {
    let graph = erdos_renyi(80, 0.08, 7);
    let mut scheduler = PeriodicDegreeBound::new(&graph);
    let cycle = scheduler.residue_schedule().expect("periodic").cycle();
    let start = scheduler.first_holiday();
    let horizon = 4 * cycle + 13; // comfortably more holidays than classes
    assert!(cycle >= 2 && cycle < horizon, "test graph must have a non-trivial cycle");

    for threads in [1usize, 2, 8] {
        let checker = CountingChecker::new(&graph);
        let pool = ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        let analysis = pool.install(|| {
            analyze_schedule_with_engine(&graph, &mut scheduler, horizon, &checker, SWEEP)
        });
        assert!(analysis.all_happy_sets_independent);
        assert_eq!(
            checker.probed_sorted(),
            (start..start + cycle).collect::<Vec<u64>>(),
            "{threads} threads: exactly one probe per residue class, no repeats"
        );
    }
}

#[test]
fn short_horizons_only_verify_what_they_run() {
    // horizon < cycle: every holiday is a fresh residue class, all probed.
    let graph = erdos_renyi(60, 0.1, 3);
    let mut scheduler = PeriodicDegreeBound::new(&graph);
    let cycle = scheduler.residue_schedule().expect("periodic").cycle();
    assert!(cycle > 4, "need a cycle longer than the horizon under test");
    let start = scheduler.first_holiday();
    let horizon = cycle - 2;
    let checker = CountingChecker::new(&graph);
    analyze_schedule_with_checker(&graph, &mut scheduler, horizon, &checker);
    assert_eq!(checker.probed_sorted(), (start..start + horizon).collect::<Vec<u64>>());
}

#[test]
fn stateful_schedulers_are_verified_on_every_holiday() {
    let graph = erdos_renyi(40, 0.1, 5);
    let mut scheduler = PhasedGreedy::new(&graph);
    assert!(scheduler.residue_schedule().is_none(), "phased greedy is stateful: no view");
    let start = scheduler.first_holiday();
    let horizon = 97u64;
    let checker = CountingChecker::new(&graph);
    analyze_schedule_with_checker(&graph, &mut scheduler, horizon, &checker);
    assert_eq!(
        checker.probed_sorted(),
        (start..start + horizon).collect::<Vec<u64>>(),
        "no residue view means no caching: every holiday probed"
    );
}

/// A deliberately broken "periodic" scheduler: two adjacent nodes share the
/// same slot and modulus, so they host together on every fourth holiday.
struct Corrupted {
    schedule: ResidueSchedule,
}

impl Corrupted {
    fn new() -> Self {
        // Nodes 0 and 1 (adjacent in the path graph below) both host at
        // t ≡ 1 (mod 4); nodes 2 and 3 host at distinct residues.
        Corrupted { schedule: ResidueSchedule::new(vec![1, 1, 2, 3], vec![4, 4, 4, 4]) }
    }
}

impl Scheduler for Corrupted {
    fn node_count(&self) -> usize {
        self.schedule.node_count()
    }
    fn fill_happy_set(&mut self, t: u64, out: &mut HappySet) {
        self.schedule.fill(t, out);
    }
    fn first_holiday(&self) -> u64 {
        0
    }
    fn name(&self) -> &'static str {
        "corrupted-periodic"
    }
    fn is_periodic(&self) -> bool {
        true
    }
    fn period(&self, p: NodeId) -> Option<u64> {
        Some(self.schedule.modulus(p))
    }
    fn unhappiness_bound(&self, _p: NodeId) -> Option<u64> {
        Some(4)
    }
    fn residue_schedule(&self) -> Option<&ResidueSchedule> {
        Some(&self.schedule)
    }
}

#[test]
fn corrupted_happy_sets_are_caught_through_the_cache_path() {
    let graph = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
    for threads in [1usize, 2, 8] {
        let mut scheduler = Corrupted::new();
        let pool = ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        let analysis = pool.install(|| analyze_schedule(&graph, &mut scheduler, 64));
        assert!(
            !analysis.all_happy_sets_independent,
            "{threads} threads: the cached path must catch the conflicting residue class"
        );
        // And the verdict replay agrees with the exhaustive reference.
        let mut reference = Corrupted::new();
        let expected = analyze_schedule_reference(&graph, &mut reference, 64);
        assert!(!expected.all_happy_sets_independent);
    }
}

#[test]
fn cache_probe_count_is_independent_of_the_horizon() {
    // Doubling the horizon must not change the number of probes once every
    // residue class has been seen.
    let graph = erdos_renyi(50, 0.12, 9);
    let cycle = PeriodicDegreeBound::new(&graph).residue_schedule().unwrap().cycle();
    let mut counts = Vec::new();
    for horizon in [2 * cycle, 8 * cycle] {
        let mut scheduler = PeriodicDegreeBound::new(&graph);
        let checker = CountingChecker::new(&graph);
        analyze_schedule_with_engine(&graph, &mut scheduler, horizon, &checker, SWEEP);
        counts.push(checker.probed_sorted().len() as u64);
    }
    assert_eq!(counts[0], cycle);
    assert_eq!(counts[1], cycle, "probe count must not scale with the horizon");
}

#[test]
fn batched_verification_still_probes_each_class_exactly_once() {
    // Same contract as `each_residue_class_is_verified_exactly_once`, but
    // observed through an overridden `check_batch`: every residue class
    // arrives in exactly one batch, none is re-probed per class, at every
    // thread count.
    let graph = erdos_renyi(80, 0.08, 7);
    let mut scheduler = PeriodicDegreeBound::new(&graph);
    let cycle = scheduler.residue_schedule().expect("periodic").cycle();
    let start = scheduler.first_holiday();
    let horizon = 4 * cycle + 13;
    assert!(cycle >= 2 && cycle < horizon, "test graph must have a non-trivial cycle");

    for threads in [1usize, 2, 8] {
        let checker = BatchCountingChecker::new(&graph);
        let pool = ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        let analysis = pool.install(|| {
            analyze_schedule_with_engine(&graph, &mut scheduler, horizon, &checker, SWEEP)
        });
        assert!(analysis.all_happy_sets_independent);
        assert_eq!(
            checker.probed_sorted(),
            (start..start + cycle).collect::<Vec<u64>>(),
            "{threads} threads: exactly one batched probe per residue class"
        );
        let batches = checker.batches.lock().unwrap().clone();
        assert_eq!(
            batches.iter().map(|&len| len as u64).sum::<u64>(),
            cycle,
            "{threads} threads: batch sizes partition the cycle"
        );
        assert!(
            batches.iter().any(|&len| len > 1),
            "{threads} threads: a {cycle}-class cycle must produce real batches"
        );
    }
}

#[test]
fn corrupted_happy_sets_are_caught_through_the_batch_path() {
    // The conflicting residue class (nodes 0 and 1 host together) must fail
    // the analysis when verification flows through `check_batch`.
    let graph = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
    let mut scheduler = Corrupted::new();
    let checker = BatchCountingChecker::new(&graph);
    let analysis = analyze_schedule_with_engine(&graph, &mut scheduler, 64, &checker, SWEEP);
    assert!(
        !analysis.all_happy_sets_independent,
        "the batch path must catch the conflicting residue class"
    );
    assert!(!checker.probed_sorted().is_empty(), "the corrupted class was actually probed");

    // The closed form rejects it too — through the edge congruence, without
    // consulting the checker.
    let checker = BatchCountingChecker::new(&graph);
    let closed = analyze_schedule_with_engine(
        &graph,
        &mut Corrupted::new(),
        64,
        &checker,
        AnalysisEngine::ClosedForm,
    );
    assert!(!closed.all_happy_sets_independent, "the closed form must reject the shared slot");
}

proptest! {
    /// `GraphChecker::check_batch` equals the conjunction of per-set
    /// `check` on every adjacency layout (flat, blocked, CSR — forced via
    /// `with_limits`), including batches holding a corrupted (dependent or
    /// out-of-range) class.  Kernel-mode coverage comes from CI running
    /// this suite under each `FHG_KERNEL` value.
    #[test]
    fn check_batch_matches_per_set_checks_on_every_layout(
        seed in 0u64..40,
        n in 40usize..200,
        picks in proptest::collection::vec((0u64..1 << 16, 1usize..10), 1..20),
    ) {
        let graph = erdos_renyi(n, 0.04, seed);
        let classes: Vec<(u64, FixedBitSet)> = picks
            .iter()
            .enumerate()
            .map(|(i, &(mix, members))| {
                let mut set = FixedBitSet::new(n);
                for k in 0..members {
                    set.insert(((mix as usize).wrapping_mul(k * 31 + i + 1)) % n);
                }
                (i as u64, set)
            })
            .collect();
        let refs: Vec<(u64, &FixedBitSet)> = classes.iter().map(|(t, s)| (*t, s)).collect();
        for (flat, blocked) in [(usize::MAX, usize::MAX), (0, usize::MAX), (0, 0)] {
            let checker = GraphChecker::with_limits(&graph, flat, blocked);
            let expected = refs.iter().all(|&(t, s)| checker.check(t, s));
            prop_assert_eq!(
                checker.check_batch(&refs),
                expected,
                "layout {} disagrees with the per-set conjunction",
                checker.layout()
            );
        }
    }
}
