//! The sweeping engines: per-holiday accumulation, horizon sharding, and the
//! exact segment merge — now on a struct-of-arrays accumulator bank.
//!
//! # Two accumulator planes
//!
//! This module owns the arithmetic core every engine shares, in two
//! deliberately distinct representations:
//!
//! * [`NodeAccum`] — the **array-of-structs reference**: one struct per
//!   node, scalar branchy arithmetic.  [`NodeAccum::record`] absorbs one
//!   happy appearance, [`merge_node`] folds a segment summary into a
//!   running accumulator, and [`finalize`] assembles the scalar per-node
//!   statistics.  The Sequential engine (stateful schedulers, and through
//!   it [`super::analyze_schedule_reference`]) runs on this plane, which
//!   keeps the differential baseline genuinely independent of the column
//!   kernels — and makes `NodeAccum` the executable *specification* the
//!   bank below is property-tested against.
//!
//! * [`AccumBank`] — the **struct-of-arrays production plane**: every
//!   statistic is a contiguous `u64` column (`count`, `first`, `last`,
//!   `gap_sum`, `gap_count`, `first_gap`, `max_streak`, and the
//!   `uniform` word-mask column, `u64::MAX` while every observed gap
//!   equals the first).  The segment-merge algebra runs as element-wise
//!   column passes on the `fhg_graph::kernels` arithmetic family (per-node
//!   conditionals become word masks: comparisons, masked select/merge,
//!   element-wise max, scaled folds — runtime-dispatched to the AVX2 wide
//!   loops like every other hot kernel), and the u64→f64 finalise rides
//!   the explicit-NaN ratio kernel.
//!
//! # The merge algebra, column-wise
//!
//! [`AccumBank::merge_from`] folds segment bank `s` (the next contiguous
//! stretch of the horizon) into the running bank `g` with exactly the
//! arithmetic [`merge_node`] performs, expressed over whole columns:
//!
//! 1. masks: `A = [s.count ≠ 0]` (active), `E = A & [g.last = NONE]`
//!    (take-first), `B = A & [g.last ≠ NONE]` (boundary);
//! 2. the boundary gap column `gap = (s.first − g.last) & B` feeds the
//!    streak max (`gap − 1`), the gap sums/counts (`+1` under `B`), and
//!    the first-gap candidate (set where `first_gap = NONE`, break
//!    uniformity where it differs);
//! 3. the take-first lanes adopt `s.first` and account the leading
//!    unhappy stretch;
//! 4. the segment interior folds unmasked — an inactive segment's columns
//!    hold exact zero/sentinel values, so its adds and maxes are no-ops;
//! 5. endpoints blend under `A`.
//!
//! Because every step reproduces the scalar rule bit for bit (property
//! tests below pin `merge_from` against [`merge_node`] per node), any
//! partition of the horizon into contiguous segments — one shard per
//! worker thread here — merges back to a result bitwise-identical to the
//! sequential sweep (locked down end-to-end by
//! `tests/analysis_parity.rs`).
//!
//! [`BankSweep`] is the per-worker driver: a contiguous offset range,
//! private scratch ([`HappySet`]) and a private [`AccumBank`], so the
//! per-holiday loop performs zero heap allocations.  [`finalize_bank`]
//! assembles the merged global bank into the public [`ScheduleAnalysis`]
//! (trailing stretch, observed period and the float statistics derived
//! column-wise).

use std::ops::Range;

use fhg_graph::{kernels, Graph, HappySet};

use super::checker::HolidayChecker;
use super::{NodeAnalysis, ScheduleAnalysis};

/// Sentinel for "no offset/gap recorded yet" in the packed accumulators
/// (horizons never reach `u64::MAX`).
pub(super) const NONE: u64 = u64::MAX;

/// The `uniform` column's word-mask value for "every gap observed so far
/// equals the first" (`0` once broken) — a mask, so the column composes
/// directly with the kernel blends.
pub(super) const UNIFORM: u64 = u64::MAX;

/// Per-node accumulator of one horizon segment — the array-of-structs
/// reference plane (see the module docs): the Sequential engine runs on it
/// and the [`AccumBank`] column algebra is property-tested against it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct NodeAccum {
    /// Offset of the first happy holiday in the segment (`NONE` if none).
    pub(super) first: u64,
    /// Offset of the last happy holiday in the segment (`NONE` if none).
    pub(super) last: u64,
    /// Happy appearances in the segment.
    pub(super) happy: u64,
    /// Sum of the gaps between consecutive happy holidays in the segment.
    pub(super) gap_sum: u64,
    /// Number of such gaps.
    pub(super) gap_count: u64,
    /// The first gap observed (the candidate period); `NONE` if no gaps.
    pub(super) first_gap: u64,
    /// Largest `gap - 1` streak between happy holidays inside the segment.
    pub(super) max_streak: u64,
    /// Whether every gap observed so far equals `first_gap`.
    pub(super) uniform: bool,
}

impl NodeAccum {
    pub(super) fn empty() -> Self {
        NodeAccum {
            first: NONE,
            last: NONE,
            happy: 0,
            gap_sum: 0,
            gap_count: 0,
            first_gap: NONE,
            max_streak: 0,
            uniform: true,
        }
    }

    /// Absorbs one happy appearance at `offset` — the sequential step shared
    /// by the reference sweep and the bank's property tests.  Offsets must
    /// arrive in strictly increasing order within one accumulator.
    #[inline]
    pub(super) fn record(&mut self, offset: u64) {
        self.happy += 1;
        if self.last == NONE {
            self.first = offset;
        } else {
            let gap = offset - self.last;
            self.max_streak = self.max_streak.max(gap - 1);
            self.gap_sum += gap;
            self.gap_count += 1;
            apply_gap_candidate(self, gap);
        }
        self.last = offset;
    }
}

/// Folds segment `s` (the next contiguous stretch of the horizon) into the
/// running accumulator `g`.  This is exactly the arithmetic the sequential
/// sweep performs, applied to segment summaries: the boundary gap between
/// `g`'s last happy offset and `s`'s first one is processed first, then `s`'s
/// internal gaps are absorbed in order — so the merged result is
/// bitwise-identical to a single sequential pass regardless of where the
/// horizon was cut.
pub(super) fn merge_node(g: &mut NodeAccum, s: &NodeAccum) {
    if s.happy == 0 {
        return;
    }
    if g.last == NONE {
        g.first = s.first;
        // The leading unhappy stretch before the very first happy holiday.
        g.max_streak = g.max_streak.max(s.first);
    } else {
        let gap = s.first - g.last;
        g.max_streak = g.max_streak.max(gap - 1);
        g.gap_sum += gap;
        g.gap_count += 1;
        apply_gap_candidate(g, gap);
    }
    g.max_streak = g.max_streak.max(s.max_streak);
    g.gap_sum += s.gap_sum;
    g.gap_count += s.gap_count;
    if s.gap_count > 0 {
        apply_gap_candidate(g, s.first_gap);
        if !s.uniform {
            g.uniform = false;
        }
    }
    g.happy += s.happy;
    g.last = s.last;
}

pub(super) fn apply_gap_candidate(g: &mut NodeAccum, gap: u64) {
    if g.first_gap == NONE {
        g.first_gap = gap;
    } else if g.first_gap != gap {
        g.uniform = false;
    }
}

/// The struct-of-arrays accumulator bank: one contiguous `u64` column per
/// statistic, same semantics per lane as one [`NodeAccum`] (the `uniform`
/// column stores the [`UNIFORM`] word mask instead of a bool).  See the
/// module docs for the column layout and merge algebra.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct AccumBank {
    pub(super) count: Vec<u64>,
    pub(super) first: Vec<u64>,
    pub(super) last: Vec<u64>,
    pub(super) gap_sum: Vec<u64>,
    pub(super) gap_count: Vec<u64>,
    pub(super) first_gap: Vec<u64>,
    pub(super) max_streak: Vec<u64>,
    pub(super) uniform: Vec<u64>,
}

impl AccumBank {
    /// An all-empty bank for `n` nodes.
    pub(crate) fn new(n: usize) -> Self {
        let mut bank = AccumBank {
            count: Vec::new(),
            first: Vec::new(),
            last: Vec::new(),
            gap_sum: Vec::new(),
            gap_count: Vec::new(),
            first_gap: Vec::new(),
            max_streak: Vec::new(),
            uniform: Vec::new(),
        };
        bank.reset(n);
        bank
    }

    /// Number of node lanes.
    pub(crate) fn len(&self) -> usize {
        self.count.len()
    }

    /// Resets every lane to the empty accumulator, resizing to `n` lanes.
    pub(crate) fn reset(&mut self, n: usize) {
        for (col, empty) in [
            (&mut self.count, 0),
            (&mut self.first, NONE),
            (&mut self.last, NONE),
            (&mut self.gap_sum, 0),
            (&mut self.gap_count, 0),
            (&mut self.first_gap, NONE),
            (&mut self.max_streak, 0),
            (&mut self.uniform, UNIFORM),
        ] {
            col.clear();
            col.resize(n, empty);
        }
    }

    /// Absorbs one happy appearance of node `p` at `offset` — the scalar
    /// step of [`NodeAccum::record`], transposed onto the columns.  Offsets
    /// must arrive in strictly increasing order within one lane.
    #[inline]
    pub(super) fn record(&mut self, p: usize, offset: u64) {
        self.count[p] += 1;
        let last = self.last[p];
        if last == NONE {
            self.first[p] = offset;
        } else {
            let gap = offset - last;
            self.max_streak[p] = self.max_streak[p].max(gap - 1);
            self.gap_sum[p] += gap;
            self.gap_count[p] += 1;
            let fg = self.first_gap[p];
            if fg == NONE {
                self.first_gap[p] = gap;
            } else if fg != gap {
                self.uniform[p] = 0;
            }
        }
        self.last[p] = offset;
    }

    /// One lane as a [`NodeAccum`] — the bridge the property tests compare
    /// through.
    #[cfg(test)]
    pub(super) fn node(&self, p: usize) -> NodeAccum {
        NodeAccum {
            first: self.first[p],
            last: self.last[p],
            happy: self.count[p],
            gap_sum: self.gap_sum[p],
            gap_count: self.gap_count[p],
            first_gap: self.first_gap[p],
            max_streak: self.max_streak[p],
            uniform: self.uniform[p] != 0,
        }
    }

    /// Folds segment bank `s` into the running bank `self` — the
    /// column-wise transposition of [`merge_node`] (see the module docs for
    /// the step-by-step algebra), **global semantics**: lanes seeing their
    /// first attendance also account the leading unhappy stretch before it,
    /// exactly like merging into the empty global accumulator.
    /// Bitwise-identical to applying [`merge_node`] lane by lane, which the
    /// property tests pin.
    ///
    /// # Panics
    /// Panics if the lane counts differ.
    pub(crate) fn merge_from(&mut self, s: &AccumBank, cols: &mut ColumnScratch) {
        let n = self.len();
        assert_eq!(n, s.len(), "bank lane count mismatch");
        cols.ensure(n);
        let ColumnScratch {
            m0: active, m1: take_first, m2: boundary, v0: gap, v1: t1, v2: t2, ..
        } = cols;

        // Masks from the pre-merge state: A (segment active), E (g empty,
        // take s's first), B (boundary gap between g.last and s.first).
        kernels::mask_ne_scalar(active, &s.count, 0);
        kernels::mask_eq_scalar(take_first, &self.last, NONE);
        kernels::and_assign(take_first, active);
        kernels::mask_ne_scalar(boundary, &self.last, NONE);
        kernels::and_assign(boundary, active);

        // Boundary gap column, zeroed outside B (live lanes have
        // s.first > g.last, so the subtraction never wraps there).
        kernels::wrapping_sub_into(gap, &s.first, &self.last);
        kernels::and_assign(gap, boundary);

        // Boundary streak: max_streak = max(max_streak, (gap - 1) & B).
        t1.copy_from_slice(gap);
        kernels::wrapping_scale_offset(t1, 1, u64::MAX);
        kernels::and_assign(t1, boundary);
        kernels::max_assign(&mut self.max_streak, t1);

        // Take-first lanes: adopt s.first and account the leading unhappy
        // stretch before it.
        t1.copy_from_slice(&s.first);
        kernels::and_assign(t1, take_first);
        kernels::max_assign(&mut self.max_streak, t1);
        kernels::blend_assign(&mut self.first, take_first, &s.first);

        // Boundary gap into the sums: gap is already zeroed outside B, the
        // count gets +1 exactly under B.
        kernels::saturating_add_scaled(&mut self.gap_sum, gap, 1);
        t1.fill(0);
        kernels::blend_scalar_assign(t1, boundary, 1);
        kernels::saturating_add_scaled(&mut self.gap_count, t1, 1);

        // Boundary first-gap candidate, on the pre-blend first_gap: set it
        // where it was NONE, break uniformity where it differs from gap.
        kernels::mask_eq_scalar(t1, &self.first_gap, NONE);
        kernels::mask_ne_scalar(t2, &self.first_gap, NONE);
        kernels::and_assign(t2, boundary);
        // take_first is dead from here on; reuse its column as a third temp.
        let t3 = take_first;
        kernels::mask_ne_into(t3, &self.first_gap, gap);
        kernels::and_assign(t2, t3);
        kernels::andnot_assign(&mut self.uniform, t2);
        kernels::and_assign(t1, boundary);
        kernels::blend_assign(&mut self.first_gap, t1, gap);

        // Segment interior: an inactive segment's columns hold exact
        // zero/sentinel values, so these folds need no masking.
        kernels::max_assign(&mut self.max_streak, &s.max_streak);
        kernels::saturating_add_scaled(&mut self.gap_sum, &s.gap_sum, 1);
        kernels::saturating_add_scaled(&mut self.gap_count, &s.gap_count, 1);
        kernels::saturating_add_scaled(&mut self.count, &s.count, 1);

        // Segment first-gap candidate under sgc = [s.gap_count != 0], on
        // the post-boundary first_gap (matching the scalar order), plus the
        // segment's own broken-uniformity verdict.
        let sgc = boundary;
        kernels::mask_ne_scalar(sgc, &s.gap_count, 0);
        kernels::mask_eq_scalar(t1, &self.first_gap, NONE);
        kernels::and_assign(t1, sgc);
        kernels::mask_ne_scalar(t2, &self.first_gap, NONE);
        kernels::and_assign(t2, sgc);
        kernels::mask_ne_into(t3, &self.first_gap, &s.first_gap);
        kernels::and_assign(t2, t3);
        kernels::andnot_assign(&mut self.uniform, t2);
        kernels::blend_assign(&mut self.first_gap, t1, &s.first_gap);
        kernels::mask_eq_scalar(t3, &s.uniform, 0);
        kernels::and_assign(t3, sgc);
        kernels::andnot_assign(&mut self.uniform, t3);

        // Endpoints.
        kernels::blend_assign(&mut self.last, active, &s.last);
    }
}

/// Reusable mask/temporary columns for the bank algebra — allocated once
/// per analysis, never per holiday.
#[derive(Debug, Default)]
pub(crate) struct ColumnScratch {
    pub(super) m0: Vec<u64>,
    pub(super) m1: Vec<u64>,
    pub(super) m2: Vec<u64>,
    pub(super) v0: Vec<u64>,
    pub(super) v1: Vec<u64>,
    pub(super) v2: Vec<u64>,
    /// The one float column (the `mean_gap` finalise output).
    pub(super) f0: Vec<f64>,
}

impl ColumnScratch {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Sizes every column to `n` lanes (contents unspecified — every user
    /// fully overwrites the lanes it reads).
    pub(crate) fn ensure(&mut self, n: usize) {
        for col in
            [&mut self.m0, &mut self.m1, &mut self.m2, &mut self.v0, &mut self.v1, &mut self.v2]
        {
            col.resize(n, 0);
        }
        self.f0.resize(n, 0.0);
    }
}

/// One worker's slice of the horizon on the production (bank) plane: a
/// contiguous offset range, private scratch, and the per-node column bank.
pub(super) struct BankSweep {
    /// Offsets (from the start of the horizon) this shard covers.
    pub(super) offsets: Range<u64>,
    /// Offsets below this bound get an independence check; at or above it the
    /// cached per-residue verdict is replayed (equal to the horizon when no
    /// cache applies).
    pub(super) verify_below: u64,
    pub(super) bank: AccumBank,
    pub(super) happy: HappySet,
    /// Buffered classes awaiting batched verification — only offsets below
    /// `verify_below` pass through it; replayed offsets keep using `happy`.
    pub(super) batch: super::checker::ClassBatch,
    pub(super) all_independent: bool,
    pub(super) total_happiness: u64,
}

impl BankSweep {
    pub(super) fn new(n: usize, capacity: usize, offsets: Range<u64>, verify_below: u64) -> Self {
        BankSweep {
            offsets,
            verify_below,
            bank: AccumBank::new(n),
            happy: HappySet::new(capacity),
            batch: super::checker::ClassBatch::new(capacity),
            all_independent: true,
            total_happiness: 0,
        }
    }

    /// Sweeps the shard's offsets: emit, verify (below `verify_below`,
    /// buffered through the [`super::checker::ClassBatch`] and flushed via
    /// [`HolidayChecker::check_batch`] up to 64 classes at a time), and
    /// count.  Zero heap allocations per holiday: `fill` reuses the shard's
    /// scratch buffers and every column was sized up front.
    pub(super) fn sweep<C: HolidayChecker + ?Sized>(
        &mut self,
        start: u64,
        n: usize,
        checker: &C,
        mut fill: impl FnMut(u64, &mut HappySet),
    ) {
        for offset in self.offsets.clone() {
            let t = start + offset;
            if offset < self.verify_below {
                // Verified offsets emit straight into a batch slot so the
                // set survives until the flush; accumulation reads the
                // same slot (disjoint field captures keep it borrowed
                // immutably while the columns update).
                let happy = self.batch.slot(t);
                fill(t, happy);
                self.total_happiness += happy.len() as u64;
                happy.for_each(|p| {
                    if p >= n {
                        self.all_independent = false;
                    } else {
                        self.bank.record(p, offset);
                    }
                });
                if self.batch.commit() {
                    let ok = self.batch.flush(self.all_independent, checker);
                    self.all_independent &= ok;
                }
            } else {
                // Replayed offsets (the residue cache already holds their
                // verdict) bypass verification entirely.
                fill(t, &mut self.happy);
                self.total_happiness += self.happy.len() as u64;
                self.happy.for_each(|p| {
                    if p >= n {
                        self.all_independent = false;
                    } else {
                        self.bank.record(p, offset);
                    }
                });
            }
        }
        let ok = self.batch.flush(self.all_independent, checker);
        self.all_independent &= ok;
    }
}

/// The Sequential engine's driver — the same sweep loop on the
/// array-of-structs reference plane, deliberately independent of the column
/// kernels (see the module docs).
pub(super) struct ReferenceSweep {
    pub(super) offsets: Range<u64>,
    pub(super) verify_below: u64,
    pub(super) accum: Vec<NodeAccum>,
    pub(super) happy: HappySet,
    pub(super) all_independent: bool,
    pub(super) total_happiness: u64,
}

impl ReferenceSweep {
    pub(super) fn new(n: usize, capacity: usize, offsets: Range<u64>, verify_below: u64) -> Self {
        ReferenceSweep {
            offsets,
            verify_below,
            accum: vec![NodeAccum::empty(); n],
            happy: HappySet::new(capacity),
            all_independent: true,
            total_happiness: 0,
        }
    }

    /// Sweeps the range: emit, verify (below `verify_below`), and count,
    /// with zero heap allocations per holiday.
    pub(super) fn sweep<C: HolidayChecker + ?Sized>(
        &mut self,
        start: u64,
        n: usize,
        checker: &C,
        mut fill: impl FnMut(u64, &mut HappySet),
    ) {
        for offset in self.offsets.clone() {
            let t = start + offset;
            fill(t, &mut self.happy);
            if self.all_independent
                && offset < self.verify_below
                && !checker.check(t, self.happy.as_bitset())
            {
                self.all_independent = false;
            }
            self.total_happiness += self.happy.len() as u64;
            self.happy.for_each(|p| {
                if p >= n {
                    self.all_independent = false;
                } else {
                    self.accum[p].record(offset);
                }
            });
        }
    }
}

/// Splits `horizon` offsets into at most `parts` contiguous, non-empty
/// ranges (earlier ranges get the remainder, matching an even split).
pub(super) fn split_offsets(horizon: u64, parts: usize) -> Vec<Range<u64>> {
    if horizon == 0 || parts == 0 {
        return Vec::new();
    }
    let parts = (parts as u64).min(horizon);
    let base = horizon / parts;
    let remainder = horizon % parts;
    let mut ranges = Vec::with_capacity(parts as usize);
    let mut lo = 0u64;
    for i in 0..parts {
        let len = base + u64::from(i < remainder);
        ranges.push(lo..lo + len);
        lo += len;
    }
    ranges
}

/// Merges the bank shards (in horizon order) into one global bank plus the
/// scalar verdicts, through the exact column merge.
pub(super) fn merge_bank_shards(
    n: usize,
    shards: &[BankSweep],
    cols: &mut ColumnScratch,
) -> (AccumBank, bool, u64) {
    let mut global = AccumBank::new(n);
    let mut all_independent = true;
    let mut total_happiness = 0u64;
    for shard in shards {
        all_independent &= shard.all_independent;
        total_happiness += shard.total_happiness;
        global.merge_from(&shard.bank, cols);
    }
    (global, all_independent, total_happiness)
}

/// Merges reference-plane shard summaries (the Sequential engine runs one)
/// into one global accumulator bank plus the scalar verdicts.
pub(super) fn merge_shards(n: usize, shards: Vec<ReferenceSweep>) -> (Vec<NodeAccum>, bool, u64) {
    let mut global = vec![NodeAccum::empty(); n];
    let mut all_independent = true;
    let mut total_happiness = 0u64;
    for shard in &shards {
        all_independent &= shard.all_independent;
        total_happiness += shard.total_happiness;
        for (g, s) in global.iter_mut().zip(&shard.accum) {
            merge_node(g, s);
        }
    }
    (global, all_independent, total_happiness)
}

/// Assembles merged global accumulators into the final [`ScheduleAnalysis`]
/// on the reference plane — the trailing unhappy stretch, the observed
/// period and the float statistics derived with scalar arithmetic.  The
/// bank plane's [`finalize_bank`] must stay bitwise-identical to this.
pub(super) fn finalize(
    scheduler: String,
    horizon: u64,
    graph: &Graph,
    global: Vec<NodeAccum>,
    all_independent: bool,
    total_happiness: u64,
) -> ScheduleAnalysis {
    let per_node: Vec<NodeAnalysis> = global
        .iter()
        .enumerate()
        .map(|(p, a)| {
            // Account for the trailing unhappy stretch.
            let trailing = if a.last == NONE { horizon } else { horizon - 1 - a.last };
            let max_unhappiness = a.max_streak.max(trailing);
            let observed_period = (a.uniform && a.first_gap != NONE).then_some(a.first_gap);
            let mean_gap =
                if a.gap_count > 0 { a.gap_sum as f64 / a.gap_count as f64 } else { f64::NAN };
            NodeAnalysis {
                node: p,
                degree: graph.degree(p),
                happy_count: a.happy,
                max_unhappiness,
                observed_period,
                first_happy: (a.first != NONE).then_some(a.first),
                mean_gap,
            }
        })
        .collect();

    let never_happy = per_node.iter().filter(|n| n.happy_count == 0).map(|n| n.node).collect();
    ScheduleAnalysis {
        scheduler,
        horizon,
        mean_happy_set_size: if horizon == 0 {
            0.0
        } else {
            total_happiness as f64 / horizon as f64
        },
        per_node,
        all_happy_sets_independent: all_independent,
        never_happy,
        total_happiness,
    }
}

/// Assembles a merged global bank into the final [`ScheduleAnalysis`]:
/// `mean_gap` through the u64→f64 ratio kernel (with its explicit-NaN
/// contract), then one streaming pass over the columns assembles the
/// per-node structs, folding the trailing unhappy stretch inline.
/// Bitwise-identical to [`finalize`] by construction (pinned by the
/// property tests and the parity suite).
pub(super) fn finalize_bank(
    scheduler: String,
    horizon: u64,
    graph: &Graph,
    bank: &mut AccumBank,
    all_independent: bool,
    total_happiness: u64,
    cols: &mut ColumnScratch,
) -> ScheduleAnalysis {
    let n = bank.len();
    cols.ensure(n);
    let mean_gap = &mut cols.f0;
    kernels::ratio_to_f64(mean_gap, &bank.gap_sum, &bank.gap_count);

    // Re-slices prove the common length to LLVM, so the assembly loop
    // indexes every column without bounds checks.
    let count = &bank.count[..n];
    let first = &bank.first[..n];
    let last = &bank.last[..n];
    let first_gap = &bank.first_gap[..n];
    let streak = &bank.max_streak[..n];
    let uniform = &bank.uniform[..n];
    let mean_gap = &mean_gap[..n];
    let per_node: Vec<NodeAnalysis> = (0..n)
        .map(|p| {
            // Account for the trailing unhappy stretch.
            let trailing = if last[p] == NONE { horizon } else { horizon - 1 - last[p] };
            NodeAnalysis {
                node: p,
                degree: graph.degree(p),
                happy_count: count[p],
                max_unhappiness: streak[p].max(trailing),
                observed_period: (uniform[p] != 0 && first_gap[p] != NONE).then_some(first_gap[p]),
                first_happy: (first[p] != NONE).then_some(first[p]),
                mean_gap: mean_gap[p],
            }
        })
        .collect();

    // Never-happy straight off the count column (one 8-byte lane per node
    // instead of re-walking the 72-byte analysis structs).
    let never_happy = count.iter().enumerate().filter(|(_, &c)| c == 0).map(|(p, _)| p).collect();
    ScheduleAnalysis {
        scheduler,
        horizon,
        mean_happy_set_size: if horizon == 0 {
            0.0
        } else {
            total_happiness as f64 / horizon as f64
        },
        per_node,
        all_happy_sets_independent: all_independent,
        never_happy,
        total_happiness,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_offsets_covers_the_horizon_exactly() {
        for (horizon, parts) in [(10u64, 3usize), (7, 8), (1, 1), (64, 4), (5, 5)] {
            let ranges = split_offsets(horizon, parts);
            assert!(ranges.len() <= parts);
            assert!(ranges.iter().all(|r| !r.is_empty()), "no empty shards");
            let mut expected = 0u64;
            for r in &ranges {
                assert_eq!(r.start, expected, "contiguous coverage");
                expected = r.end;
            }
            assert_eq!(expected, horizon);
        }
        assert!(split_offsets(0, 4).is_empty());
        assert!(split_offsets(9, 0).is_empty());
    }

    #[test]
    fn record_matches_a_hand_computed_sequence() {
        let mut a = NodeAccum::empty();
        for offset in [2u64, 4, 6, 11] {
            a.record(offset);
        }
        assert_eq!(a.first, 2);
        assert_eq!(a.last, 11);
        assert_eq!(a.happy, 4);
        assert_eq!(a.gap_sum, 9);
        assert_eq!(a.gap_count, 3);
        assert_eq!(a.first_gap, 2);
        assert_eq!(a.max_streak, 4, "the 6 -> 11 gap leaves a streak of 4");
        assert!(!a.uniform, "gap 5 breaks the candidate period 2");
    }

    #[test]
    fn merging_split_segments_equals_one_sequential_pass() {
        let offsets = [1u64, 3, 5, 12, 13, 20];
        let mut sequential = NodeAccum::empty();
        for &o in &offsets {
            sequential.record(o);
        }
        let mut whole = NodeAccum::empty();
        merge_node(&mut whole, &sequential);
        // Every split point must reproduce the same merged accumulator.
        for cut in 0..=offsets.len() {
            let (lo, hi) = offsets.split_at(cut);
            let mut a = NodeAccum::empty();
            let mut b = NodeAccum::empty();
            lo.iter().for_each(|&o| a.record(o));
            hi.iter().for_each(|&o| b.record(o));
            let mut merged = NodeAccum::empty();
            merge_node(&mut merged, &a);
            merge_node(&mut merged, &b);
            assert_eq!(merged, whole, "cut at {cut}");
        }
    }

    /// Deterministic per-lane offset scripts exercising every merge branch:
    /// empty lanes, single attendances, uniform and broken-uniformity gap
    /// structures on either side of the cut.
    fn lane_scripts() -> Vec<Vec<u64>> {
        vec![
            vec![],
            vec![0],
            vec![5],
            vec![0, 1, 2, 3],
            vec![2, 4, 6, 8],
            vec![1, 4, 5, 9],
            vec![0, 7],
            vec![3, 3 + 64],
            vec![10, 11, 30],
        ]
    }

    #[test]
    fn bank_record_matches_node_accum_per_lane() {
        let scripts = lane_scripts();
        let mut bank = AccumBank::new(scripts.len());
        let mut reference: Vec<NodeAccum> = scripts.iter().map(|_| NodeAccum::empty()).collect();
        // Interleave offset-major, as the sweep does.
        for offset in 0..40u64 {
            for (p, script) in scripts.iter().enumerate() {
                if script.contains(&offset) {
                    bank.record(p, offset);
                    reference[p].record(offset);
                }
            }
        }
        for (p, expected) in reference.iter().enumerate() {
            assert_eq!(&bank.node(p), expected, "lane {p}");
        }
    }

    #[test]
    fn bank_merge_is_bitwise_identical_to_merge_node_at_every_cut() {
        let scripts = lane_scripts();
        let n = scripts.len();
        for cut in 0..=40u64 {
            // Reference: per-node scalar merge of the two segment summaries.
            let mut expected: Vec<NodeAccum> = Vec::new();
            for script in &scripts {
                let mut lo = NodeAccum::empty();
                let mut hi = NodeAccum::empty();
                for &o in script {
                    if o < cut {
                        lo.record(o);
                    } else {
                        hi.record(o);
                    }
                }
                let mut merged = NodeAccum::empty();
                merge_node(&mut merged, &lo);
                merge_node(&mut merged, &hi);
                expected.push(merged);
            }
            // Bank plane: the same segments as column banks, merged twice
            // into an empty global (exactly what the sharded engine does).
            let mut lo_bank = AccumBank::new(n);
            let mut hi_bank = AccumBank::new(n);
            for (p, script) in scripts.iter().enumerate() {
                for &o in script {
                    if o < cut {
                        lo_bank.record(p, o);
                    } else {
                        hi_bank.record(p, o);
                    }
                }
            }
            let mut global = AccumBank::new(n);
            let mut cols = ColumnScratch::new();
            global.merge_from(&lo_bank, &mut cols);
            global.merge_from(&hi_bank, &mut cols);
            for (p, e) in expected.iter().enumerate() {
                assert_eq!(&global.node(p), e, "cut {cut}, lane {p}");
            }
        }
    }

    #[test]
    fn finalize_bank_is_bitwise_identical_to_finalize() {
        use fhg_graph::generators::structured::path;
        let scripts = lane_scripts();
        let n = scripts.len();
        let graph = path(n);
        for horizon in [0u64, 1, 12, 31, 40, 100] {
            let mut accums: Vec<NodeAccum> = Vec::new();
            let mut bank = AccumBank::new(n);
            for (p, script) in scripts.iter().enumerate() {
                let mut seg = NodeAccum::empty();
                for &o in script.iter().filter(|&&o| o < horizon) {
                    seg.record(o);
                    bank.record(p, o);
                }
                // Route through the empty-global merge so the leading
                // stretch is accounted on both planes.
                let mut g = NodeAccum::empty();
                merge_node(&mut g, &seg);
                accums.push(g);
            }
            let mut global = AccumBank::new(n);
            let mut cols = ColumnScratch::new();
            global.merge_from(&bank, &mut cols);

            let expected = finalize("x".to_string(), horizon, &graph, accums, true, 7);
            let got =
                finalize_bank("x".to_string(), horizon, &graph, &mut global, true, 7, &mut cols);
            assert_eq!(got.per_node.len(), expected.per_node.len());
            for (a, b) in got.per_node.iter().zip(&expected.per_node) {
                assert_eq!(a.node, b.node);
                assert_eq!(a.happy_count, b.happy_count, "h {horizon} node {}", a.node);
                assert_eq!(a.max_unhappiness, b.max_unhappiness, "h {horizon} node {}", a.node);
                assert_eq!(a.observed_period, b.observed_period, "h {horizon} node {}", a.node);
                assert_eq!(a.first_happy, b.first_happy, "h {horizon} node {}", a.node);
                assert_eq!(
                    a.mean_gap.to_bits(),
                    b.mean_gap.to_bits(),
                    "h {horizon} node {} (NaN-aware)",
                    a.node
                );
            }
            assert_eq!(got.never_happy, expected.never_happy);
            assert_eq!(got.mean_happy_set_size.to_bits(), expected.mean_happy_set_size.to_bits());
        }
    }
}
