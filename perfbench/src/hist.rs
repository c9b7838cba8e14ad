//! Latency histograms and the small statistics the report needs.

/// Samples below this many nanoseconds are counted in one bucket per
/// nanosecond; slower samples are kept raw. Memory stays fixed however
/// many operations a run makes, which keeps `peak_rss_mb` independent of
/// throughput.
const EXACT_NS: usize = 1 << 17;

/// A latency histogram in nanoseconds. The bucket array is allocated on
/// the first sample.
#[derive(Clone, Debug, Default)]
pub struct Hist {
    exact: Vec<u32>,
    over: Vec<u64>,
    n: u64,
}

impl Hist {
    /// Records one sample.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        if self.exact.is_empty() {
            self.exact = vec![0; EXACT_NS];
        }
        match self.exact.get_mut(ns as usize) {
            Some(c) => *c += 1,
            None => self.over.push(ns),
        }
        self.n += 1;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Forgets every sample, keeping the bucket array.
    pub fn clear(&mut self) {
        self.exact.fill(0);
        self.over.clear();
        self.n = 0;
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Hist) {
        if other.n == 0 {
            return;
        }
        if self.exact.is_empty() {
            self.exact = vec![0; EXACT_NS];
        }
        for (a, b) in self.exact.iter_mut().zip(&other.exact) {
            *a += b;
        }
        self.over.extend_from_slice(&other.over);
        self.n += other.n;
    }

    /// The `q`-quantile in nanoseconds (0 when empty). Below `EXACT_NS`
    /// each nanosecond bucket counts as samples spread evenly over
    /// `[ns - 0.5, ns + 0.5)`, so the quantile moves with the distribution
    /// by less than a nanosecond instead of sticking to one integer (a
    /// 100 ns read would otherwise read the same on every run). Above it,
    /// the nearest-rank raw sample.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let target = (q * self.n as f64).clamp(0.0, self.n as f64);
        let mut seen = 0u64;
        for (ns, &c) in self.exact.iter().enumerate() {
            let next = seen + u64::from(c);
            if c > 0 && next as f64 >= target {
                let frac = (target - seen as f64) / f64::from(c);
                return ns as f64 - 0.5 + frac.max(0.0);
            }
            seen = next;
        }
        let rank = ((target.ceil() as u64).clamp(1, self.n) - seen).max(1);
        let mut over = self.over.clone();
        over.sort_unstable();
        over[(rank - 1) as usize] as f64
    }

    /// [`quantile`](Self::quantile) in microseconds.
    pub fn quantile_us(&self, q: f64) -> f64 {
        self.quantile(q) / 1e3
    }

    /// The mean of the fastest `share` of the samples, in nanoseconds (0
    /// when empty); see [`share_mean`].
    pub fn fast_mean(&self, share: f64) -> f64 {
        let exact = self.exact.iter().enumerate().filter(|(_, &c)| c > 0);
        let mut over = self.over.clone();
        over.sort_unstable();
        share_mean(
            exact
                .map(|(ns, &c)| (ns as f64, f64::from(c)))
                .chain(over.iter().map(|&v| (v as f64, 1.0))),
            share * self.n as f64,
        )
    }
}

/// Samples per window of a [`Windows`] series. A window's p90 has two
/// samples above it, and the fastest share ([`crate::FAST`]) of a run's
/// windows still holds hundreds of samples. Windows this short lie wholly
/// inside the host's quiet stretches often enough that every run has its
/// fastest share there: in eight 40 s runs of each workload, windows of 100
/// recoveries spread the runs' recovery p90 by 12–22%, windows of 20 by
/// 6–13%.
pub const WINDOW: usize = 20;

/// Latencies of one kind, cut into windows of [`WINDOW`] consecutive
/// samples. Each window's p50 and p90 go into a histogram of their own, so
/// a run can be read at its fastest windows and memory stays fixed.
#[derive(Clone, Debug, Default)]
pub struct Windows {
    buf: Vec<u64>,
    p50: Hist,
    p90: Hist,
}

impl Windows {
    /// Records one sample, closing the window when it is full.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.buf.push(ns);
        if self.buf.len() == WINDOW {
            self.buf.sort_unstable();
            let at = |q: f64| {
                let k = q * (WINDOW - 1) as f64;
                let (lo, hi) = (self.buf[k as usize], self.buf[k.ceil() as usize]);
                (lo as f64 + (hi - lo) as f64 * k.fract()).round() as u64
            };
            let (p50, p90) = (at(0.5), at(0.9));
            self.p50.record(p50);
            self.p90.record(p90);
            self.buf.clear();
        }
    }

    /// Closed windows.
    pub fn count(&self) -> u64 {
        self.p50.count()
    }

    /// Forgets every window, and the open one's samples.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.p50.clear();
        self.p90.clear();
    }

    /// Adds every closed window of `other`; its open window is dropped.
    pub fn merge(&mut self, other: &Windows) {
        self.p50.merge(&other.p50);
        self.p90.merge(&other.p90);
    }

    /// The mean p50 and the mean p90 of the fastest `share` of closed
    /// windows, each ranked by itself, in microseconds (0 with no closed
    /// window).
    pub fn fast_us(&self, share: f64) -> (f64, f64) {
        (self.p50.fast_mean(share) / 1e3, self.p90.fast_mean(share) / 1e3)
    }
}

/// The mean of the first `want` of `values`, given in order as (value,
/// count) pairs; the last value taken counts by the part of it that fits
/// (0 when empty). A fractional share makes the mean move smoothly as the
/// values do, where a quantile would jump between neighbouring values.
fn share_mean(values: impl Iterator<Item = (f64, f64)>, want: f64) -> f64 {
    let want = want.max(1.0);
    let (mut sum, mut taken) = (0.0, 0.0);
    for (value, count) in values {
        let t = count.min(want - taken);
        sum += value * t;
        taken += t;
        if taken >= want {
            break;
        }
    }
    if taken > 0.0 {
        sum / taken
    } else {
        0.0
    }
}

/// The mean of the largest `share` of `xs` (0 when empty); see
/// [`share_mean`].
pub fn top_mean(xs: &[f64], share: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| b.total_cmp(a));
    share_mean(v.iter().map(|&x| (x, 1.0)), share * v.len() as f64)
}

/// The median of `xs` (mean of the middle two for an even count; 0 when
/// empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_inside_a_bucket_and_take_raw_samples_above() {
        let mut h = Hist::default();
        for ns in [10, 20, 30, 40, 1_000_000] {
            h.record(ns);
        }
        // Rank 2.5 of 5 lies halfway into the 30 ns bucket.
        assert_eq!(h.quantile(0.5), 30.0);
        assert_eq!(h.quantile(0.8), 40.5);
        assert_eq!(h.quantile(0.9), 1_000_000.0);
        let mut g = Hist::default();
        g.merge(&h);
        g.record(5);
        assert_eq!(g.count(), 6);
        assert_eq!(g.quantile(0.0), 4.5);
        // Four samples in one bucket: the median sits at its middle, and
        // a fifth, slower sample moves it.
        let mut b = Hist::default();
        (0..4).for_each(|_| b.record(100));
        assert_eq!(b.quantile(0.5), 100.0);
        b.record(101);
        assert_eq!(b.quantile(0.5), 100.125);
    }

    #[test]
    fn windows_keep_each_full_window_and_drop_the_open_one() {
        let mut w = Windows::default();
        for i in 0..(2 * WINDOW as u64 + 7) {
            // Window one holds 10, 20, ..., 200 ns, window two the same
            // 1000 ns slower.
            let ns = 10 * (i % WINDOW as u64 + 1);
            w.record(if i < WINDOW as u64 { ns } else { ns + 1000 });
        }
        assert_eq!(w.count(), 2);
        // Window one: p50 halfway between 100 and 110 ns, p90 at rank
        // 17.1 of 0..=19, between 180 and 190 ns.
        assert_eq!(w.fast_us(0.5), (105e-3, 181e-3));
        assert_eq!(w.fast_us(1.0), (605e-3, 681e-3));
        let mut all = Windows::default();
        all.merge(&w);
        assert_eq!(all.count(), 2);
        w.clear();
        assert_eq!(w.count(), 0);
    }

    #[test]
    fn share_means_weigh_the_last_value_by_the_part_inside_the_share() {
        let mut h = Hist::default();
        for ns in [40, 20, 1_000_000, 10, 30] {
            h.record(ns);
        }
        assert_eq!(h.fast_mean(0.4), 15.0);
        assert_eq!(h.fast_mean(0.5), 18.0);
        assert_eq!(h.fast_mean(1.0), 200_020.0);
        // Less than one sample's share still takes the fastest sample.
        assert_eq!(h.fast_mean(0.0), 10.0);
        assert_eq!(Hist::default().fast_mean(0.5), 0.0);
        assert_eq!(top_mean(&[1.0, 4.0, 2.0, 3.0], 0.5), 3.5);
        assert_eq!(top_mean(&[1.0, 4.0, 2.0, 3.0], 0.1), 4.0);
        assert_eq!(top_mean(&[], 0.5), 0.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
