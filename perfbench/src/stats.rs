//! Order statistics over samples.

/// Median and quartiles, computed as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method) so the
/// spreads printed here match the ones the acceptance rule computes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

/// Summarise `values` (NaNs are dropped). `None` when nothing is left.
pub fn summary(values: &[f64]) -> Option<Summary> {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| !x.is_nan()).collect();
    if v.is_empty() {
        return None;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let median = if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    };
    let (q1, q3) = if n == 1 {
        (v[0], v[0])
    } else {
        // Python clamps the index to 1..n-1 and then interpolates (or
        // extrapolates) with the unclamped fraction.
        let quartile = |i: usize| {
            let pos = (i * (n + 1)) as f64 / 4.0;
            let j = (pos.floor() as usize).clamp(1, n - 1);
            let frac = pos - j as f64;
            v[j - 1] + (v[j] - v[j - 1]) * frac
        };
        (quartile(1), quartile(3))
    };
    Some(Summary { n, q1, median, q3 })
}

/// The median of `values`, 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    summary(values).map_or(0.0, |s| s.median)
}

/// A latency tail: p99 when at least ten samples lie beyond it, otherwise
/// the highest percentile that still has ten samples beyond it. Returns
/// the value, the percentile used and the sample count.
pub fn tail(values: &[f64]) -> (f64, f64, usize) {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (0.0, 0.0, 0);
    }
    // Rank r (0-based) leaves n - 1 - r samples above it.
    let p99_rank = ((n as f64) * 0.99).ceil() as usize;
    let rank = p99_rank.saturating_sub(1).min(n.saturating_sub(11));
    let pct = 100.0 * (rank + 1) as f64 / n as f64;
    (v[rank], pct, n)
}

/// The `q` quantile (0..=1) by nearest rank, 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((v.len() as f64) * q).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// What [`calibrate`] takes at the reference speed, in nanoseconds: its
/// typical time on the 2-core machine the bounds were set on, where one
/// copy took 12 ms and a copy on each core 30 ms (the cores share a
/// physical core).
pub fn calibration_ref_ns(cores: usize) -> f64 {
    if cores <= 1 {
        12e6
    } else {
        30e6
    }
}

/// Time a fixed CPU kernel of the benchmark's own (hashing, allocation,
/// sorting, formatting) and return its wall nanoseconds.
///
/// A shared machine's speed drifts: on the reference machine this kernel
/// took anywhere from 10 to 15 ms within minutes, and the workloads moved
/// with it. Timing it around every round lets each round's times be
/// scaled to one reference speed, so two runs of the same code agree
/// although the machine changed speed between them. It uses no code of
/// the repository, so a change to the program cannot move it.
///
/// `cores` copies run at once, one per core the workload keeps busy, so a
/// neighbour taking a core the workload needs shows too; the mean time is
/// returned.
pub fn calibrate(cores: usize) -> u64 {
    let times: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cores.max(1) as u64)
            .map(|c| s.spawn(move || calibration_kernel(c)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("calibration thread panicked"))
            .collect()
    });
    times.iter().sum::<u64>() / times.len() as u64
}

fn calibration_kernel(salt: u64) -> u64 {
    use std::collections::HashMap;
    let t = std::time::Instant::now();
    let mut acc = 0u64;
    for round in 0..4u64 {
        let mut map: HashMap<String, u64> = HashMap::new();
        let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ round ^ salt;
        let mut v = Vec::with_capacity(20_000);
        for i in 0..20_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            v.push(x);
            *map.entry(format!("k{}", x % 4096)).or_default() += i;
        }
        v.sort_unstable();
        acc = acc
            .wrapping_add(v[v.len() / 2])
            .wrapping_add(map.len() as u64);
    }
    std::hint::black_box(acc);
    t.elapsed().as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summary(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let s = summary(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summary(&[2.0, 1.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        let (value, pct, n) = tail(&v);
        assert_eq!((value, n), (1980.0, 2000));
        assert!((pct - 99.0).abs() < 1e-9);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (value, _, _) = tail(&v);
        assert_eq!(value, 90.0, "ten samples (91..=100) lie beyond");
    }
}
