//! Answer checks, run outside the timed regions.  The oracle is
//! `analyze_schedule_reference`: the sequential sweep, every holiday
//! verified, sharing no code path with the closed-form serving engine.

use fhg::core::schedulers::residue::ResidueSchedule;
use fhg::core::{analyze_schedule_reference, AnalysisTotals, ScheduleAnalysis, Scheduler};
use fhg::graph::{HappySet, NodeId};

use crate::workloads::Content;

/// A start-shifted view of a periodic schedule: holiday `t` of this
/// scheduler is holiday `t` of `view`, and it starts at `start`, so a
/// reference sweep of `t1 - t0` holidays from `start = base + t0` is the
/// schedule restricted to the served window `[t0, t1)`.
struct WindowView<'a> {
    view: &'a ResidueSchedule,
    start: u64,
}

impl Scheduler for WindowView<'_> {
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
        "window-ref"
    }
    fn is_periodic(&self) -> bool {
        true
    }
    fn period(&self, _p: NodeId) -> Option<u64> {
        None
    }
    fn unhappiness_bound(&self, _p: NodeId) -> Option<u64> {
        None
    }
}

/// The reference analysis of the served window `(t0, t1)` of a tenant.
pub fn reference_window(content: &Content, (t0, t1): (u64, u64)) -> ScheduleAnalysis {
    let start = content.scheduler().first_holiday() + t0;
    let mut shifted = WindowView { view: content.view(), start };
    analyze_schedule_reference(content.graph(), &mut shifted, t1.saturating_sub(t0))
}

/// Bitwise equality of totals (floats through `to_bits`, so NaN == NaN).
pub fn totals_eq(a: &AnalysisTotals, b: &AnalysisTotals) -> bool {
    a.horizon == b.horizon
        && a.total_happiness == b.total_happiness
        && a.mean_happy_set_size.to_bits() == b.mean_happy_set_size.to_bits()
        && a.max_unhappiness == b.max_unhappiness
        && a.all_periodic == b.all_periodic
        && a.never_happy == b.never_happy
        && a.all_happy_sets_independent == b.all_happy_sets_independent
}

/// Bitwise equality of full analyses, ignoring the scheduler name (the
/// reference runs under the window view's name).
pub fn analysis_eq(a: &ScheduleAnalysis, b: &ScheduleAnalysis) -> bool {
    a.horizon == b.horizon
        && a.all_happy_sets_independent == b.all_happy_sets_independent
        && a.never_happy == b.never_happy
        && a.total_happiness == b.total_happiness
        && a.mean_happy_set_size.to_bits() == b.mean_happy_set_size.to_bits()
        && a.per_node.len() == b.per_node.len()
        && a.per_node.iter().zip(&b.per_node).all(|(x, y)| {
            x.node == y.node
                && x.degree == y.degree
                && x.happy_count == y.happy_count
                && x.max_unhappiness == y.max_unhappiness
                && x.observed_period == y.observed_period
                && x.first_happy == y.first_happy
                && x.mean_gap.to_bits() == y.mean_gap.to_bits()
        })
}

/// Failures found by the checks; every one is printed as it is found.
#[derive(Default)]
pub struct Failures {
    pub count: u64,
}

impl Failures {
    pub fn report(&mut self, op: &str, detail: impl std::fmt::Display) {
        self.count += 1;
        println!("FAILED op={op} {detail}");
    }
}
