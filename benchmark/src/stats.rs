//! Small measurement helpers: the workload LCG, order statistics and the
//! process's peak resident memory.

/// The 64-bit LCG every workload draws from (Knuth's MMIX constants, top
/// 48 bits returned).  Streams are keyed by `(seed, stream)`, so each phase
/// draws the same inputs for the same `--seed` however long other phases
/// ran.
pub struct Lcg(u64);

impl Lcg {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut lcg = Lcg(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        lcg.next();
        lcg
    }

    pub fn next(&mut self) -> u64 {
        self.0 =
            self.0.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 16
    }

    /// Uniform in `0..n` (`n >= 1`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// The median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The mean of the middle half of `values` (the interquartile mean): the
/// quarter at each end is dropped, so a stall moves it no more than it
/// moves the median, while a phase whose slices fall into two modes moves
/// it by the share of slices in each mode rather than flipping it from
/// one mode to the other.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "interquartile mean of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 4;
    let middle = &sorted[cut..sorted.len() - cut];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// Nearest-rank percentile `p` (in `0..=1`) of ascending `sorted`: the
/// smallest sample with at least `p` of the samples at or below it, so
/// `len - ceil(p * len)` samples lie beyond it.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_leaves_the_stated_tail() {
        let sorted: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&sorted, 0.5), 500);
        assert_eq!(percentile(&sorted, 0.99), 990);
        assert_eq!(sorted.len() - 990, 10);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn interquartile_mean_drops_a_quarter_at_each_end() {
        assert_eq!(interquartile_mean(&[100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -50.0]), 3.5);
        assert_eq!(interquartile_mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(interquartile_mean(&[7.0]), 7.0);
    }

    #[test]
    fn median_handles_both_parities() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn lcg_streams_repeat_per_seed() {
        let draw = |stream| {
            let mut lcg = Lcg::new(7, stream);
            (0..4).map(|_| lcg.next()).collect::<Vec<u64>>()
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
    }
}
