//! Closed-form cycle analytics: one arithmetic progression per node, one
//! congruence per edge.
//!
//! Every periodic scheduler emits through a [`ResidueSchedule`], where node
//! `p` attends exactly the holidays `t ≡ slot_p (mod m_p)` (the paper's
//! §4.2 prefix codes and §5 degree exponents).  A [`CycleProfile`]
//! therefore stores no happy sets at all:
//!
//! * **per node**, its progression `(first offset, modulus)` relative to
//!   the schedule's first holiday.  Every [`NodeAnalysis`] field over any
//!   window `[t0, t1)` is O(1) arithmetic on it: the first attendance at or
//!   after `t0`, the count `⌊(L − 1 − first) / m⌋ + 1`, the streaks (the
//!   leading stretch, `m − 1` between attendances, the trailing stretch),
//!   `observed_period = m` once the count reaches two, and `mean_gap` as
//!   the reference computes it (`gap_sum / gap_count` in `f64`);
//! * **per violation**, the progression of holidays on which it fires.
//!   Two adjacent nodes co-attend iff `slot_u ≡ slot_v (mod gcd(m_u, m_v))`
//!   — the paper's prefix-freeness argument — and then exactly on one
//!   residue class modulo `lcm(m_u, m_v)`, found by the Chinese remainder
//!   theorem ([`crt_class`]).  A view node outside the conflict graph
//!   taints every holiday it attends, mirroring the sweep engines.  One
//!   pass over the edges finds them all.
//!
//! The independence verdict of a window is then "does any stored violation
//! progression land in `[t0, t1)`" — a window that misses every conflicting
//! class reports independent, exactly as the reference sweep of that
//! window does.
//!
//! Every `derive*` answer is bitwise-identical to
//! [`super::analyze_schedule_reference`] run over the same window (pinned by
//! `tests/analysis_parity.rs` and `tests/window_parity.rs`, including
//! adversarial schedules with arbitrary moduli, violating edges and shifted
//! starts).  A build costs `O(n + |E|)` whatever the cycle length, a derive
//! `O(n + violations)` whatever the window, and neither allocates beyond
//! the output.
//!
//! # Incremental repair
//!
//! [`CycleProfile::patch`] applies a dynamic edge event in `O(deg)` per
//! moved residue row plus the event's own edge: the moved nodes get their
//! new progressions, and exactly the edges touching them (and the event
//! edge) are re-checked, so a deleted conflicting edge heals the verdict
//! as surely as an inserted one breaks it.

use fhg_graph::{Graph, NodeId};

use super::checker::GraphChecker;
use super::{AnalysisTotals, NodeAnalysis, ScheduleAnalysis};
use crate::schedulers::residue::{gcd, ResidueSchedule, RowChange};

/// The closed-form profile of a perfectly periodic schedule: per-node
/// attendance progressions plus the progressions of every violation,
/// sufficient to derive the analysis of any window arithmetically (see the
/// module docs).
#[derive(Clone, Debug)]
pub struct CycleProfile {
    /// First holiday of the schedule (the scheduler's
    /// [`first_holiday`](crate::scheduler::Scheduler::first_holiday)).
    start: u64,
    /// The schedule's cycle length `C` (the lcm of the moduli, saturating).
    cycle: u64,
    /// Number of conflict-graph nodes tracked; view nodes at or beyond it
    /// count toward happiness and taint the verdict, like the sweeps.
    node_count: usize,
    /// Per view node: `(first, modulus)` — the node attends holidays
    /// `start + first + k·modulus`, `first < modulus`.
    rows: Vec<(u64, u64)>,
    /// Every violation progression, sorted (the canonical order
    /// [`CycleProfile::content_eq`] compares).
    conflicts: Vec<Conflict>,
}

/// One violation: holidays `t ≡ residue (mod modulus)` (absolute holiday
/// numbers) host both endpoints of edge `{u, v}`, or host the out-of-range
/// view node `u = v`.  The modulus is an lcm of two `u64` moduli, so it is
/// held exactly in `u128`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Conflict {
    u: NodeId,
    v: NodeId,
    residue: u128,
    modulus: u128,
}

/// The marker an injected `checker.batch` fault leaves behind: a violation
/// on every holiday that no edge owns, so no later patch clears it — only
/// the background audit and a rebuild do.
const POISON: Conflict = Conflict { u: NodeId::MAX, v: NodeId::MAX, residue: 0, modulus: 1 };

/// What a [`CycleProfile::patch`] did, for observability (bench rows,
/// serving-tier stats).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PatchStats {
    /// Nodes whose attendance progression was replaced (one per row
    /// change).
    pub lanes_patched: usize,
    /// Edge congruences checked: every edge touching a moved node, plus
    /// the event's own edge when neither endpoint moved.
    pub classes_verified: usize,
}

/// Reusable buffer for [`CycleProfile::patch`]: the violations found by the
/// verify step, held until the commit step applies them.  Allocate once
/// next to the cached profile; after warm-up a patch performs zero heap
/// allocations (proved by `tests/zero_alloc.rs`).
#[derive(Debug, Default)]
pub struct PatchScratch {
    found: Vec<Conflict>,
}

impl PatchScratch {
    /// Empty scratch; the first patch that finds a violation sizes it.
    pub fn new() -> Self {
        Self::default()
    }
}

impl CycleProfile {
    /// Largest cycle the serving tier registers: its background audit
    /// re-derives one full cycle through the sequential reference sweep,
    /// so the cycle bounds the audit's cost.  The profile itself has no
    /// cycle budget.
    pub const MAX_CYCLE: u64 = 1 << 22;

    /// Profiles `view` starting at holiday `start` against the conflict
    /// graph held by `checker` (`node_count` is that graph's node count).
    /// Same result as [`CycleProfile::new`] on the graph itself.
    pub fn build(
        view: &ResidueSchedule,
        start: u64,
        node_count: usize,
        checker: &GraphChecker,
    ) -> Self {
        Self::from_edges(view, start, node_count, |f| checker.for_each_edge(f))
    }

    /// Profiles `view` starting at holiday `start` against `graph`: one
    /// progression per view node and one congruence check per edge,
    /// `O(n + |E|)`.
    pub fn new(view: &ResidueSchedule, start: u64, graph: &Graph) -> Self {
        Self::from_edges(view, start, graph.node_count(), |f| {
            for u in graph.nodes() {
                for &v in graph.neighbors(u).iter().filter(|&&v| v > u) {
                    f(u, v);
                }
            }
        })
    }

    fn from_edges(
        view: &ResidueSchedule,
        start: u64,
        node_count: usize,
        edges: impl FnOnce(&mut dyn FnMut(NodeId, NodeId)),
    ) -> Self {
        let rows = (0..view.node_count())
            .map(|p| {
                let m = view.modulus(p);
                (first_offset(start, view.slot(p), m), m)
            })
            .collect();
        let mut conflicts: Vec<Conflict> =
            (node_count..view.node_count()).map(|p| stray(view, p)).collect();
        edges(&mut |u, v| conflicts.extend(edge_conflict(view, u, v)));
        conflicts.sort_unstable();
        CycleProfile { start, cycle: view.cycle(), node_count, rows, conflicts }
    }

    /// The schedule's cycle length.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// First holiday of the schedule.
    pub fn start(&self) -> u64 {
        self.start
    }

    /// Number of nodes the profile tracks.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Whether no holiday of the schedule ever hosts a conflict — the
    /// verdict of every window at least one cycle long.
    pub fn all_classes_independent(&self) -> bool {
        self.conflicts.is_empty()
    }

    /// How many holidays per cycle node `p` attends.
    pub fn count_per_cycle(&self, p: NodeId) -> u64 {
        self.rows.get(p).map_or(0, |&(_, m)| self.cycle / m)
    }

    /// The offsets (within the first cycle, ascending) at which node `p`
    /// attends.
    pub fn attendance_offsets(&self, p: NodeId) -> impl Iterator<Item = u64> + '_ {
        let (first, m) = self.rows.get(p).copied().unwrap_or((self.cycle, 1));
        std::iter::successors(Some(first), move |&o| o.checked_add(m))
            .take_while(move |&o| o < self.cycle)
    }

    /// Whether two profiles describe the same schedule content: start,
    /// cycle, node count, every progression and every violation.  Equal
    /// content implies every `derive*` output is bitwise-identical.
    pub fn content_eq(&self, other: &CycleProfile) -> bool {
        self.start == other.start
            && self.cycle == other.cycle
            && self.node_count == other.node_count
            && self.rows == other.rows
            && self.conflicts == other.conflicts
    }

    /// Repairs this profile in place after a dynamic edge event: `view` is
    /// the schedule's **already-updated** residue view, `graph` the
    /// post-event conflict graph, `changes` the residue rows the event
    /// moved (see `DynamicColorBound::apply_event`) and `edge` the edge the
    /// event inserted or deleted.
    ///
    /// The phases run **verify → validate → commit**.  Verify checks the
    /// congruence of every edge touching a moved node and, when neither
    /// endpoint moved, of the event edge (if it still exists), collecting
    /// the violations into `scratch`; it reads only `view` and `graph`.
    /// The commit then replaces the moved nodes' progressions, drops every
    /// stored violation of a moved node or of the event edge and inserts
    /// the fresh ones — so a deleted conflicting edge heals the verdict.  A
    /// crash before the commit leaves the profile bitwise-untouched; a
    /// crash inside it can leave it half-updated, which the serving tier
    /// handles by quarantining the tenant.
    ///
    /// The patched profile is [`content_eq`](CycleProfile::content_eq) to
    /// a fresh [`CycleProfile::new`] of the post-event view and graph.
    /// Cost: `O(Σ deg(moved) + violations)`, independent of the cycle.
    ///
    /// # Panics
    /// Panics if `view` disagrees with the profile's node count — patches
    /// must come from the scheduler the profile was built from.
    pub fn patch(
        &mut self,
        view: &ResidueSchedule,
        graph: &Graph,
        changes: &[RowChange],
        edge: (NodeId, NodeId),
        scratch: &mut PatchScratch,
    ) -> PatchStats {
        assert_eq!(view.node_count(), self.rows.len(), "patch from a different schedule");
        let moved = |x: NodeId| changes.iter().any(|c| c.node == x);
        let edge = (edge.0.min(edge.1), edge.0.max(edge.1));

        // Verify: each touched edge is checked once — from the first moved
        // endpoint in `changes` order.
        scratch.found.clear();
        let mut checked = 0;
        for (i, change) in changes.iter().enumerate() {
            let p = change.node;
            let earlier = &changes[..i];
            if earlier.iter().any(|c| c.node == p) {
                continue;
            }
            if p >= self.node_count {
                scratch.found.push(stray(view, p));
                continue;
            }
            for &q in graph.neighbors(p) {
                if earlier.iter().all(|c| c.node != q) {
                    checked += 1;
                    scratch.found.extend(edge_conflict(view, p, q));
                }
            }
        }
        if !moved(edge.0) && !moved(edge.1) && graph.has_edge(edge.0, edge.1) {
            checked += 1;
            scratch.found.extend(edge_conflict(view, edge.0, edge.1));
        }
        // Fault-injection site: an `err` action makes the check falsely
        // report a violation, silently poisoning the patched verdict — the
        // corruption the serving tier's background audit exists to catch.
        crate::fail_point!("checker.batch", scratch.found.push(POISON));
        crate::fail_point!("profile.patch.validate");

        for change in changes {
            let p = change.node;
            let m = view.modulus(p);
            self.rows[p] = (first_offset(self.start, view.slot(p), m), m);
        }
        self.cycle = view.cycle();
        crate::fail_point!("profile.patch.commit");
        self.conflicts.retain(|c| !(moved(c.u) || moved(c.v) || (c.u, c.v) == edge));
        self.conflicts.extend_from_slice(&scratch.found);
        self.conflicts.sort_unstable();
        self.conflicts.dedup();

        PatchStats { lanes_patched: changes.len(), classes_verified: checked }
    }

    /// Derives the full [`ScheduleAnalysis`] of `horizon` holidays from the
    /// first one.  Returns `None` when `horizon < cycle` — the closed form
    /// applies to whole-cycle horizons; the windowed
    /// [`CycleProfile::derive_window`] has no such limit.
    pub fn derive(&self, scheduler: &str, graph: &Graph, horizon: u64) -> Option<ScheduleAnalysis> {
        (horizon >= self.cycle).then(|| self.derive_window(scheduler, graph, 0, horizon))
    }

    /// The totals-only form of [`CycleProfile::derive`]: equal to
    /// `derive(..).totals()`, without building the per-node vector.
    pub fn derive_totals(&self, horizon: u64) -> Option<AnalysisTotals> {
        (horizon >= self.cycle).then(|| self.derive_window_totals(0, horizon))
    }

    /// Derives the full [`ScheduleAnalysis`] of the window `[t0, t1)` —
    /// holidays `start + t0` up to (excluding) `start + t1`, offsets
    /// reported relative to the window start.  Total over all windows:
    /// zero-width and inverted windows (`t1 <= t0`) are the empty analysis.
    /// Bitwise-identical to [`super::analyze_schedule_reference`] run over
    /// the same window, independence verdict included.
    pub fn derive_window(
        &self,
        scheduler: &str,
        graph: &Graph,
        t0: u64,
        t1: u64,
    ) -> ScheduleAnalysis {
        let len = t1.saturating_sub(t0);
        let per_node: Vec<NodeAnalysis> = (0..self.node_count)
            .map(|p| {
                let lane = self.lane(p, t0, len);
                let gaps = lane.count.saturating_sub(1);
                NodeAnalysis {
                    node: p,
                    degree: graph.degree(p),
                    happy_count: lane.count,
                    max_unhappiness: lane.max_unhappiness(len),
                    observed_period: (gaps > 0).then_some(lane.modulus),
                    first_happy: (lane.count > 0).then_some(lane.first),
                    mean_gap: if gaps > 0 {
                        (gaps * lane.modulus) as f64 / gaps as f64
                    } else {
                        f64::NAN
                    },
                }
            })
            .collect();
        let never_happy = per_node.iter().filter(|a| a.happy_count == 0).map(|a| a.node).collect();
        let total_happiness = per_node
            .iter()
            .fold(self.stray_happiness(t0, len), |acc, a| acc.saturating_add(a.happy_count));
        ScheduleAnalysis {
            scheduler: scheduler.to_string(),
            horizon: len,
            mean_happy_set_size: mean(total_happiness, len),
            per_node,
            all_happy_sets_independent: self.independent_within(t0, len),
            never_happy,
            total_happiness,
        }
    }

    /// The totals-only windowed form: whole-window aggregates of
    /// `[t0, t1)`, equal to [`CycleProfile::derive_window`]`(..).totals()`.
    /// Total over all windows and allocation-free (the serving tier's hot
    /// path; proved by `tests/zero_alloc.rs`).
    pub fn derive_window_totals(&self, t0: u64, t1: u64) -> AnalysisTotals {
        let len = t1.saturating_sub(t0);
        let mut max_unhappiness = 0u64;
        let mut all_periodic = true;
        let mut never_happy = 0u64;
        let mut total_happiness = self.stray_happiness(t0, len);
        for p in 0..self.node_count {
            let lane = self.lane(p, t0, len);
            max_unhappiness = max_unhappiness.max(lane.max_unhappiness(len));
            all_periodic &= lane.count >= 2;
            never_happy += u64::from(lane.count == 0);
            total_happiness = total_happiness.saturating_add(lane.count);
        }
        AnalysisTotals {
            horizon: len,
            total_happiness,
            mean_happy_set_size: mean(total_happiness, len),
            max_unhappiness,
            all_periodic,
            never_happy,
            all_happy_sets_independent: self.independent_within(t0, len),
        }
    }

    /// Node `p`'s attendance within the `len` holidays from window offset
    /// `t0` (a view shorter than the graph leaves the extra nodes idle).
    fn lane(&self, p: NodeId, t0: u64, len: u64) -> Lane {
        let Some(&(first, modulus)) = self.rows.get(p) else {
            return Lane { first: 0, count: 0, modulus: 1 };
        };
        let first = first_offset(t0, first, modulus);
        let count = if first < len { (len - 1 - first) / modulus + 1 } else { 0 };
        Lane { first, count, modulus }
    }

    /// Happy appearances of the view nodes outside the conflict graph
    /// within the window — they count toward the total like in the sweeps.
    /// Totals saturate at astronomical windows.
    fn stray_happiness(&self, t0: u64, len: u64) -> u64 {
        (self.node_count..self.rows.len())
            .fold(0u64, |acc, p| acc.saturating_add(self.lane(p, t0, len).count))
    }

    /// Whether no violation progression lands on a holiday of the window.
    fn independent_within(&self, t0: u64, len: u64) -> bool {
        let lo = u128::from(self.start) + u128::from(t0);
        let len = u128::from(len);
        self.conflicts.iter().all(|c| first_offset(lo, c.residue, c.modulus) >= len)
    }
}

/// One node's attendance inside a window: `count` holidays, the first at
/// window offset `first`, then every `modulus`.
struct Lane {
    first: u64,
    count: u64,
    modulus: u64,
}

impl Lane {
    /// The longest unhappy stretch of a `len`-holiday window: the leading
    /// stretch, `modulus − 1` between attendances, and the trailing one.
    fn max_unhappiness(&self, len: u64) -> u64 {
        if self.count == 0 {
            return len;
        }
        let last = self.first + (self.count - 1) * self.modulus;
        let inner = if self.count > 1 { self.modulus - 1 } else { 0 };
        self.first.max(inner).max(len - 1 - last)
    }
}

fn mean(total: u64, len: u64) -> f64 {
    if len == 0 {
        0.0
    } else {
        total as f64 / len as f64
    }
}

/// The least `o ≥ 0` with `a + o ≡ r (mod m)`, for `r < m` — the offset,
/// from holiday `a`, of the first holiday of the residue class `r mod m`.
/// Never overflows: no intermediate exceeds `m`.
fn first_offset<T>(a: T, r: T, m: T) -> T
where
    T: Copy + PartialOrd + std::ops::Rem<Output = T> + std::ops::Sub<Output = T>,
    T: std::ops::Add<Output = T>,
{
    let s = a % m;
    if r >= s {
        r - s
    } else {
        r + (m - s)
    }
}

/// The violation a view node outside the conflict graph causes: every
/// holiday it attends.
fn stray(view: &ResidueSchedule, p: NodeId) -> Conflict {
    Conflict { u: p, v: p, residue: u128::from(view.slot(p)), modulus: u128::from(view.modulus(p)) }
}

/// The violation edge `{u, v}` causes, if its endpoints ever co-attend.  A
/// node beyond the view never attends.
fn edge_conflict(view: &ResidueSchedule, u: NodeId, v: NodeId) -> Option<Conflict> {
    let (u, v) = (u.min(v), u.max(v));
    if v >= view.node_count() {
        return None;
    }
    let (residue, modulus) =
        crt_class(view.slot(u), view.modulus(u), view.slot(v), view.modulus(v))?;
    Some(Conflict { u, v, residue, modulus })
}

/// The holidays where two residue rows co-fire, by the Chinese remainder
/// theorem: solves `t ≡ s1 (mod m1)`, `t ≡ s2 (mod m2)` (`s1 < m1`,
/// `s2 < m2`), returning the progression `(t0, lcm(m1, m2))` of common
/// holidays with `t0 < lcm`, or `None` when the congruences are
/// incompatible (`s1 ≢ s2 (mod gcd)`) — the rows never co-fire.  Exact for
/// all `u64` moduli: the lcm and every product are held in `u128`.
fn crt_class(s1: u64, m1: u64, s2: u64, m2: u64) -> Option<(u128, u128)> {
    let g = gcd(m1, m2);
    if s1 % g != s2 % g {
        return None;
    }
    // Extended Euclid: x with m1·x ≡ g (mod m2), so x inverts m1/g modulo
    // p = m2/g.  Every Bézout coefficient is bounded by p, so nothing
    // overflows i128.
    let (mut r0, mut r1) = (i128::from(m1), i128::from(m2));
    let (mut x0, mut x1) = (1i128, 0i128);
    while r1 != 0 {
        let q = r0 / r1;
        (r0, r1) = (r1, r0 - q * r1);
        (x0, x1) = (x1, x0 - q * x1);
    }
    let p = i128::from(m2 / g);
    // t = s1 + m1·k with (m1/g)·k ≡ (s2 − s1)/g (mod p).  Both factors are
    // reduced into [0, p) with p < 2^64, so the casts are exact and their
    // product fits u128.
    let d = ((i128::from(s2) - i128::from(s1)) / i128::from(g)).rem_euclid(p) as u128;
    let k = d * x0.rem_euclid(p) as u128 % p as u128;
    // k < p, so s1 + m1·k < m1·p = lcm: already canonical.
    Some((u128::from(s1) + u128::from(m1) * k, u128::from(m1) * p as u128))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fhg_graph::generators::erdos_renyi;

    #[test]
    fn crt_class_matches_brute_force() {
        for m1 in 1u64..=12 {
            for m2 in 1u64..=12 {
                for s1 in 0..m1 {
                    for s2 in 0..m2 {
                        let got = crt_class(s1, m1, s2, m2);
                        let lcm = m1 / gcd(m1, m2) * m2;
                        let brute: Vec<u128> = (0..2 * lcm)
                            .filter(|t| t % m1 == s1 && t % m2 == s2)
                            .map(u128::from)
                            .collect();
                        match got {
                            None => assert!(
                                brute.is_empty(),
                                "({s1} mod {m1}, {s2} mod {m2}): CRT says never, brute {brute:?}"
                            ),
                            Some((t0, l)) => {
                                assert_eq!(l, u128::from(lcm));
                                assert!(t0 < l, "first solution must be canonical");
                                assert_eq!(
                                    brute,
                                    vec![t0, t0 + l],
                                    "({s1} mod {m1}, {s2} mod {m2})"
                                );
                            }
                        }
                    }
                }
            }
        }

        // Moduli far beyond any cycle: coprime pairs near 2^32 and 2^63
        // (whose lcm overflows u64), the largest u64 pair, and a
        // non-coprime pair whose reduced modulus exceeds 2^63.5.
        let big = [
            ((1u64 << 32) - 5, (1u64 << 32) + 15),
            ((1u64 << 63) - 25, (1u64 << 63) + 29),
            (u64::MAX, u64::MAX - 1),
            (3 << 62, (1 << 63) + 3),
        ];
        for (m1, m2) in big {
            let g = gcd(m1, m2);
            let lcm = u128::from(m1 / g) * u128::from(m2);
            for (s1, s2) in [(0, 0), (m1 - 1, m2 - 1), (m1 / 3, m2 / 7), (12345, 67890)] {
                match crt_class(s1, m1, s2, m2) {
                    None => assert_ne!(s1 % g, s2 % g, "({s1} mod {m1}, {s2} mod {m2})"),
                    Some((t0, l)) => {
                        assert_eq!(l, lcm, "({m1}, {m2}): exact lcm");
                        assert!(t0 < l);
                        assert_eq!(t0 % u128::from(m1), u128::from(s1), "({s1} mod {m1})");
                        assert_eq!(t0 % u128::from(m2), u128::from(s2), "({s2} mod {m2})");
                    }
                }
            }
        }
    }

    #[test]
    fn profile_exposes_each_nodes_progression() {
        let g = erdos_renyi(20, 0.2, 9);
        let view = ResidueSchedule::new(vec![0, 1, 2, 3, 4, 5], vec![2, 3, 4, 6, 12, 12]);
        let profile = CycleProfile::new(&view, 7, &g);
        assert_eq!(profile.cycle(), 12);
        for p in 0..6 {
            let offsets: Vec<u64> = profile.attendance_offsets(p).collect();
            assert_eq!(offsets.len() as u64, profile.count_per_cycle(p));
            let m = view.modulus(p);
            assert!(offsets.iter().all(|&o| (7 + o) % m == view.slot(p)), "node {p}");
            assert!(offsets.windows(2).all(|w| w[1] - w[0] == m), "node {p}");
        }
        // Graph nodes the view does not cover never attend.
        assert_eq!(profile.count_per_cycle(19), 0);
        assert_eq!(profile.attendance_offsets(19).count(), 0);
    }

    #[test]
    fn derive_refuses_sub_cycle_horizons_and_windows_do_not() {
        let g = erdos_renyi(24, 0.15, 3);
        let view = ResidueSchedule::new((0..24).map(|p| p % 4).collect(), vec![4; 24]);
        let profile = CycleProfile::new(&view, 0, &g);
        assert!(profile.derive("x", &g, 0).is_none());
        assert!(profile.derive_totals(3).is_none());
        assert!(profile.derive("x", &g, 4).is_some());
        for (t0, t1) in [(0, 0), (5, 5), (9, 2)] {
            let empty = profile.derive_window("w", &g, t0, t1);
            assert_eq!(empty.horizon, 0);
            assert!(empty.all_happy_sets_independent, "an empty window hosts nothing");
            assert_eq!(profile.derive_window_totals(t0, t1), empty.totals());
        }
    }

    #[test]
    fn totals_saturate_instead_of_overflowing_at_the_u64_boundary() {
        // Four nodes hosting every other holiday: the whole-window total
        // overflows u64 near u64::MAX and must saturate, while every
        // per-node field stays exact.
        let graph = Graph::new(4);
        let view = ResidueSchedule::new(vec![0, 1, 0, 1], vec![2, 2, 2, 2]);
        let profile = CycleProfile::new(&view, 0, &graph);
        let horizon = u64::MAX;
        let analysis = profile.derive("sat", &graph, horizon).expect("horizon >= cycle");
        assert_eq!(analysis.total_happiness, u64::MAX, "total must saturate, not wrap");
        let n0 = &analysis.per_node[0];
        assert_eq!(n0.happy_count, horizon / 2 + 1, "per-node counts stay exact");
        assert_eq!(n0.observed_period, Some(2));
        let totals = profile.derive_totals(horizon).expect("horizon >= cycle");
        assert_eq!(totals, analysis.totals());
    }

    #[test]
    fn build_through_a_checker_equals_new_on_every_layout() {
        let g = erdos_renyi(40, 0.15, 5);
        let view = ResidueSchedule::new((0..42).map(|p| p % 3).collect(), vec![3; 42]);
        let reference = CycleProfile::new(&view, 2, &g);
        assert!(!reference.all_classes_independent());
        for (flat, blocked) in [(usize::MAX, usize::MAX), (0, usize::MAX), (0, 0)] {
            let checker = GraphChecker::with_limits(&g, flat, blocked);
            let built = CycleProfile::build(&view, 2, g.node_count(), &checker);
            assert!(built.content_eq(&reference), "layout {}", checker.layout());
        }
    }

    #[test]
    fn the_verdict_follows_the_window() {
        // Edge {0, 1} collides only on t ≡ 0 (mod 4); node 3 is outside
        // the graph and attends t ≡ 1 (mod 8).
        let graph = Graph::from_edges(3, [(0, 1)]).unwrap();
        let view = ResidueSchedule::new(vec![0, 0, 1, 1], vec![4, 4, 2, 8]);
        let profile = CycleProfile::new(&view, 0, &graph);
        assert!(!profile.all_classes_independent());
        let independent = |t0, t1| profile.derive_window_totals(t0, t1).all_happy_sets_independent;
        assert!(independent(2, 4), "no conflict in [2, 4)");
        assert!(!independent(0, 1), "edge conflict at 0");
        assert!(!independent(1, 2), "stray node at 1");
        assert!(independent(10, 12));
        assert!(!independent(9, 10));
    }

    #[test]
    fn patch_tracks_row_changes_and_edge_events_like_a_rebuild() {
        // Start from a clean 6-node path schedule and push events that
        // create, keep and heal violations, including cycle changes.
        let mut graph = fhg_graph::generators::structured::path(6);
        let mut view = ResidueSchedule::new(vec![0, 1, 0, 1, 0, 1], vec![2; 6]);
        let mut profile = CycleProfile::new(&view, 3, &graph);
        let mut scratch = PatchScratch::new();
        assert!(profile.all_classes_independent());

        type Step = (Option<(NodeId, NodeId)>, &'static [(NodeId, u64, u64)]);
        let steps: &[Step] = &[
            (Some((0, 2)), &[]),                     // insert a conflicting edge
            (None, &[(2, 1, 4)]),                    // moving node 2 heals it
            (Some((1, 3)), &[(3, 0, 3)]),            // insert + recolor, cycle 12
            (Some((0, 2)), &[]),                     // delete an edge
            (None, &[(0, 1, 2), (1, 1, 2)]),         // two moves, shared edge
            (Some((0, 1)), &[(0, 0, 2), (0, 0, 4)]), // a node moved twice
        ];
        for (i, &(toggle, moves)) in steps.iter().enumerate() {
            let edge = toggle.unwrap_or((4, 5));
            if let Some((u, v)) = toggle {
                if graph.has_edge(u, v) {
                    graph.remove_edge(u, v).unwrap();
                } else {
                    graph.add_edge(u, v).unwrap();
                }
            }
            let changes: Vec<RowChange> = moves
                .iter()
                .map(|&(p, slot, m)| {
                    let change = RowChange {
                        node: p,
                        old_slot: view.slot(p),
                        old_modulus: view.modulus(p),
                        new_slot: slot,
                        new_modulus: m,
                    };
                    view.set_row(p, slot, m);
                    change
                })
                .collect();
            let stats = profile.patch(&view, &graph, &changes, edge, &mut scratch);
            assert_eq!(stats.lanes_patched, changes.len());
            let rebuilt = CycleProfile::new(&view, 3, &graph);
            assert!(profile.content_eq(&rebuilt), "step {i}: patched profile diverged");
        }
    }

    #[test]
    fn patch_counts_exactly_the_edges_it_checks() {
        let mut graph = Graph::new(2);
        let view = ResidueSchedule::new(vec![0, 0], vec![2, 3]);
        let mut profile = CycleProfile::new(&view, 0, &graph);
        let mut scratch = PatchScratch::new();
        graph.add_edge(0, 1).unwrap();
        let stats = profile.patch(&view, &graph, &[], (1, 0), &mut scratch);
        assert_eq!(stats, PatchStats { lanes_patched: 0, classes_verified: 1 });
        assert!(!profile.all_classes_independent(), "0 mod 2 and 0 mod 3 meet at 0 mod 6");
        graph.remove_edge(0, 1).unwrap();
        let stats = profile.patch(&view, &graph, &[], (0, 1), &mut scratch);
        assert_eq!(stats.classes_verified, 0, "a deleted edge needs no check");
        assert!(profile.all_classes_independent(), "the deletion heals the verdict");
    }
}
