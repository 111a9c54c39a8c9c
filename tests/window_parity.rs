//! Parity lockdown for the windowed derivation (the start-offset fold) and
//! the serving tier built on it.
//!
//! `CycleProfile::derive_window(t0, t1)` answers an arbitrary `[t0, t1)`
//! window arithmetically from per-node progressions and per-edge violation
//! progressions.  This suite asserts the result is **bitwise-identical** to
//! a sequential reference sweep restricted to the same window
//! (`analyze_schedule_reference` run on a start-shifted view of the
//! schedule), independence verdict included — for every periodic scheduler
//! in the standard suite and for the adversarial generator of
//! `tests/common` (violating edges, arbitrary moduli, shifted starts,
//! views wider than the graph), at 1/2/8 worker threads, over window
//! shapes chosen adversarially: zero-width, sub-cycle, straddling
//! `cycle ± 1`, whole-cycle aligned, multi-cycle, and ragged at both ends.
//! It also pins that `ProfileService::patch` keeps a profile equal to a
//! fresh build under random edge events, healing ones included.
//!
//! Like `tests/analysis_parity.rs`, float fields compare through
//! `to_bits`, and CI runs this suite under the `FHG_THREADS` ×
//! `FHG_KERNEL` matrix.

use proptest::prelude::*;

use fhg::core::analysis::{CycleProfile, GraphChecker};
use fhg::core::dynamic::EventRepair;
use fhg::core::schedulers::residue::{ResidueSchedule, RowChange};
use fhg::core::schedulers::standard_suite;
use fhg::core::serving::{PatchOutcome, ProfileService, Query};
use fhg::graph::generators::Family;
use fhg::graph::{EdgeEvent, EdgeEventKind, Graph};
use rayon::ThreadPoolBuilder;

mod common;
use common::{
    adversarial, assert_bitwise_identical, co_attend, reference_window, Rng, ViewScheduler, MODULI,
    VIEW_REF,
};

/// The adversarial window shapes for a schedule of cycle `C`: zero-width at
/// several anchors, sub-cycle from 0 and from a ragged phase, straddling
/// `C ± 1`, whole-cycle aligned, multi-cycle, and ragged at both ends.
fn window_shapes(cycle: u64, k: u64, jitter: u64) -> Vec<(u64, u64)> {
    let c = cycle;
    let a = 1 + jitter % c.max(1); // a ragged anchor in (0, c]
    vec![
        (0, 0),
        (a, a),
        (k * c + a, k * c + a),
        (7, 3), // inverted: the empty window, never a panic
        (0, 1),
        (0, c / 2 + 1),
        (0, c - 1),
        (0, c),
        (0, c + 1),
        (a, a + 1),
        (a, a + c - 1),
        (a, a + c),
        (a, a + c + 1),
        (c - 1, c + 1),
        (c, 2 * c),
        (c, k * c + a),
        (a, k * c),
        (a, k * c + (a + 1) % c),
        (k * c - 1, (k + 2) * c + 1),
        (c / 3, k * c + 2 * c / 3),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The core property: `derive_window(t0, t1)` (and the totals fast
    /// path) is bitwise-identical to the sequential reference sweep over
    /// the same window, for every periodic suite scheduler, with the
    /// profile built at 1/2/8 worker threads.
    #[test]
    fn derive_window_is_bitwise_identical_to_a_reference_sweep(
        family in prop::sample::select(Family::ALL.to_vec()),
        seed in 0u64..200,
        k in 2u64..5,
        jitter in 0u64..1000,
        threads in prop::sample::select(vec![1usize, 2, 8]),
    ) {
        let graph = family.generate(30, 3.5, seed);
        let pool = ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        let checker = GraphChecker::new(&graph);
        let suite = standard_suite(&graph, seed ^ 0x7171);
        for prod in suite {
            let Some(cycle) = prod.schedule_cycle() else { continue };
            let view = prod.residue_schedule().expect("cycle implies a residue view");
            let start = prod.first_holiday();
            let profile = pool.install(|| {
                CycleProfile::build(view, start, graph.node_count(), &checker)
            });
            for (t0, t1) in window_shapes(cycle, k, jitter) {
                let expected = reference_window(&graph, view, start, t0, t1);
                let got = profile.derive_window(VIEW_REF, &graph, t0, t1);
                let ctx = format!(
                    "{} on {} (seed {seed}, cycle {cycle}, window [{t0}, {t1}), {threads} threads)",
                    prod.name(),
                    family.name()
                );
                assert_bitwise_identical(&got, &expected, &ctx);
                prop_assert_eq!(
                    profile.derive_window_totals(t0, t1),
                    expected.totals(),
                    "{}: totals fast path",
                    ctx
                );
            }
        }
    }
}

/// The serving tier end to end: registered tenants answer the same window
/// shapes through the batch front, bitwise-equal to the reference sweep —
/// and re-registration plus invalidation/rebuild stay bitwise-stable.
#[test]
fn profile_service_serves_reference_identical_windows() {
    let graph = Family::ErdosRenyi.generate(32, 3.5, 19);
    let mut service = ProfileService::new();
    let suite = standard_suite(&graph, 0x2D2D);
    let mut tenants: Vec<(u64, u64, u64)> = Vec::new(); // (tenant, cycle, start)
    for (i, s) in suite.iter().enumerate() {
        let tenant = i as u64;
        if s.schedule_cycle().is_some() {
            service.register(tenant, &graph, s.as_ref()).unwrap();
            tenants.push((tenant, s.schedule_cycle().unwrap(), s.first_holiday()));
        } else {
            assert!(service.register(tenant, &graph, s.as_ref()).is_err());
        }
    }
    assert!(!tenants.is_empty());
    service.build_pending();

    let queries: Vec<Query> = tenants
        .iter()
        .flat_map(|&(tenant, cycle, _)| {
            window_shapes(cycle, 3, 5).into_iter().map(move |window| Query { tenant, window })
        })
        .collect();
    let batch = service.query_batch(&queries);
    let full = service.query_batch_full(&queries);
    for (q, (t, f)) in queries.iter().zip(batch.iter().zip(&full)) {
        let suite_ref = standard_suite(&graph, 0x2D2D);
        let start = suite_ref[q.tenant as usize].first_holiday();
        let view = suite_ref[q.tenant as usize].residue_schedule().unwrap();
        let expected = reference_window(&graph, view, start, q.window.0, q.window.1);
        let t = t.as_ref().unwrap();
        let f = f.as_ref().unwrap();
        assert_eq!(t.totals, expected.totals(), "tenant {} window {:?}", q.tenant, q.window);
        assert_eq!(f.analysis.totals(), expected.totals());
    }

    // Invalidate + rebuild is bitwise-stable.
    let probe = queries[queries.len() / 2];
    let before = service.query_totals(probe.tenant, probe.window.0, probe.window.1).unwrap();
    assert!(service.invalidate(probe.tenant));
    assert_eq!(service.build_pending(), 1);
    let after = service.query_totals(probe.tenant, probe.window.0, probe.window.1).unwrap();
    assert_eq!(before, after);
}

/// Regression: the window verdict depends on the window.  Edge {0, 1} with
/// both endpoints on `t ≡ 0 (mod 4)` collides only there, so `[1, 3)` is
/// independent while `[0, 3)` is not — through `derive_window`, the totals
/// path and the serving tier alike, all equal to the reference sweep of the
/// window, at 1/2/8 threads.  Deleting the edge heals the verdict in place.
#[test]
fn window_verdict_sees_only_the_window() {
    let graph = Graph::from_edges(3, [(0, 1)]).unwrap();
    let view = ResidueSchedule::new(vec![0, 0, 1], vec![4, 4, 2]);
    for threads in [1usize, 2, 8] {
        let pool = ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        pool.install(|| {
            let profile = CycleProfile::new(&view, 0, &graph);
            let mut service = ProfileService::new();
            service.register(7, &graph, &ViewScheduler { view: &view, start: 0 }).unwrap();
            assert_eq!(service.build_pending(), 1);
            for ((t0, t1), independent) in [((1, 3), true), ((0, 3), false)] {
                let expected = reference_window(&graph, &view, 0, t0, t1);
                assert_eq!(expected.all_happy_sets_independent, independent, "[{t0}, {t1})");
                let got = profile.derive_window(VIEW_REF, &graph, t0, t1);
                assert_bitwise_identical(&got, &expected, &format!("[{t0}, {t1}), {threads}t"));
                assert_eq!(profile.derive_window_totals(t0, t1), expected.totals());
                assert_eq!(service.query_totals(7, t0, t1).unwrap(), expected.totals());
            }

            let delete = EdgeEvent { kind: EdgeEventKind::Delete, u: 0, v: 1, holiday: 0 };
            let outcome = service.patch(7, &EventRepair::from_parts(delete, &[])).unwrap();
            assert!(matches!(outcome, PatchOutcome::Patched(_)));
            assert!(service.query_totals(7, 0, 3).unwrap().all_happy_sets_independent);
        });
    }
}

/// The adversarial generator through the windowed derive: every window
/// shape, bitwise-equal to the reference sweep of that window — verdicts of
/// violating schedules included — at 1/2/8 threads.
#[test]
fn derive_window_matches_the_reference_on_adversarial_schedules() {
    for threads in [1usize, 2, 8] {
        let pool = ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        for seed in 0..30u64 {
            let instance = adversarial(seed);
            let (graph, view, start) = (&instance.graph, &instance.view, instance.start);
            let cycle = view.cycle();
            let checker = GraphChecker::new(graph);
            let profile =
                pool.install(|| CycleProfile::build(view, start, graph.node_count(), &checker));
            assert!(profile.content_eq(&CycleProfile::new(view, start, graph)), "seed {seed}");
            for (t0, t1) in window_shapes(cycle, 2 + seed % 3, seed * 7) {
                let expected = reference_window(graph, view, start, t0, t1);
                let ctx = format!("seed {seed}, cycle {cycle}, [{t0}, {t1}), {threads} threads");
                let got = pool.install(|| profile.derive_window(VIEW_REF, graph, t0, t1));
                assert_bitwise_identical(&got, &expected, &ctx);
                assert_eq!(profile.derive_window_totals(t0, t1), expected.totals(), "{ctx}");
            }
        }
    }
}

/// Random edge events through `ProfileService::patch` on adversarial
/// tenants: toggles, recolorings of up to two nodes, and deletions of
/// violating edges (the events that heal a verdict).  After every event the
/// served profile equals a fresh build of the mutated content, at 1/2/8
/// threads.
#[test]
fn patched_adversarial_profiles_equal_a_fresh_build() {
    let mut heals = 0;
    for threads in [1usize, 2, 8] {
        let pool = ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        for seed in 0..16u64 {
            let instance = adversarial(seed);
            let (mut graph, mut view, start) =
                (instance.graph.clone(), instance.view.clone(), instance.start);
            let n = graph.node_count();
            let mut service = ProfileService::new();
            service.register(1, &graph, &instance.scheduler()).unwrap();
            assert_eq!(service.build_pending(), 1);
            let mut rng = Rng::new(seed ^ 0xE7E7);
            for step in 0..24u64 {
                let violating: Vec<(usize, usize)> = graph
                    .edges()
                    .map(|e| (e.u, e.v))
                    .filter(|&(u, v)| co_attend(&view, u, v))
                    .collect();
                let (kind, u, v) = if !violating.is_empty() && rng.below(3) == 0 {
                    heals += 1;
                    let (u, v) = rng.pick(&violating);
                    (EdgeEventKind::Delete, u, v)
                } else {
                    let u = rng.below(n as u64) as usize;
                    let v = (u + 1 + rng.below(n as u64 - 1) as usize) % n;
                    let kind = if graph.has_edge(u, v) {
                        EdgeEventKind::Delete
                    } else {
                        EdgeEventKind::Insert
                    };
                    (kind, u, v)
                };
                match kind {
                    EdgeEventKind::Insert => graph.add_edge(u, v).unwrap(),
                    EdgeEventKind::Delete => graph.remove_edge(u, v).unwrap(),
                }
                let mut changes = Vec::new();
                for _ in 0..rng.below(3) {
                    let p = if rng.below(2) == 0 {
                        rng.pick(&[u, v])
                    } else {
                        rng.below(view.node_count() as u64) as usize
                    };
                    let m = rng.pick(&MODULI);
                    let change = RowChange {
                        node: p,
                        old_slot: view.slot(p),
                        old_modulus: view.modulus(p),
                        new_slot: rng.below(m),
                        new_modulus: m,
                    };
                    view.apply_row(&change);
                    changes.push(change);
                }
                let event = EdgeEvent { kind, u, v, holiday: step };
                let repair = EventRepair::from_parts(event, &changes);
                let outcome = pool.install(|| service.patch(1, &repair)).unwrap();
                assert!(matches!(outcome, PatchOutcome::Patched(_)), "seed {seed} step {step}");
                let fresh = CycleProfile::new(&view, start, &graph);
                assert!(
                    service.profile(1).unwrap().content_eq(&fresh),
                    "seed {seed} step {step}, {threads} threads: patched profile diverged"
                );
            }
        }
    }
    assert!(heals > 0, "the event stream must include healing deletions");
}
