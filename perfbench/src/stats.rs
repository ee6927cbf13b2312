//! Order statistics and the FIFO service-rate search shared by the
//! workloads.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Nearest-rank percentile (`q` in `[0, 1]`) of an ascending slice; `0.0`
/// for an empty sample.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    // The epsilon keeps exact products (0.99 · 1000) from ceiling up a rank
    // on floating-point jitter.
    let rank = (q * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `v` ascending (total order; the samples are finite).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median of an unsorted sample.
pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 0.5)
}

/// The median of each operation's samples, where `samples[i]` holds every
/// timing of operation `i`, one per pass over the pool. A burst of machine
/// noise lands in a few passes of an operation, not in its median; the
/// percentiles, throughput and rate search of the in-process workloads are
/// taken over these typical times.
pub fn per_op_medians(samples: &[Vec<f64>]) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| !s.is_empty())
        .map(|s| median(s))
        .collect()
}

/// Closed-loop operations per second of a pass made of typical operations:
/// their count over the sum of their times.
pub fn typical_rate(typical_s: &[f64]) -> f64 {
    typical_s.len() as f64 / typical_s.iter().sum::<f64>()
}

/// A geometric ladder of absolute offered rates: `base · step^k` for
/// `k = 0..rungs`.
pub fn ladder(base: f64, step: f64, rungs: usize) -> Vec<f64> {
    (0..rungs).map(|k| base * step.powi(k as i32)).collect()
}

/// Arrivals simulated per ladder rung by [`fifo_slo_rate`], and the fixed
/// seed of their Poisson process: the arrivals are part of the method, so
/// the result depends on the measured service times alone.
const FIFO_ARRIVALS: usize = 100_000;
const FIFO_SEED: u64 = 0x5EED_F1F0;

/// p99 response time of one FIFO server fed Poisson arrivals at `rate`,
/// serving them with `service_s` cycled in order.
fn fifo_p99(service_s: &[f64], rate: f64) -> f64 {
    let mut rng = StdRng::seed_from_u64(FIFO_SEED);
    let (mut arrival, mut free_at) = (0.0f64, 0.0f64);
    let response: Vec<f64> = (0..FIFO_ARRIVALS)
        .map(|i| {
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            arrival += -u.ln() / rate;
            free_at = arrival.max(free_at) + service_s[i % service_s.len()];
            free_at - arrival
        })
        .collect();
    percentile(&sorted(response), 0.99)
}

/// The highest ladder rate at which one FIFO server, fed Poisson arrivals
/// at that rate and serving them with the measured service times (cycled in
/// measurement order), keeps the p99 response time within `limit_s` at a
/// utilisation below one, so the backlog cannot grow. Binary search: the
/// p99 grows with the rate. Returns `0.0` when no rung qualifies.
pub fn fifo_slo_rate(service_s: &[f64], ladder: &[f64], limit_s: f64) -> f64 {
    if service_s.is_empty() {
        return 0.0;
    }
    let mean = service_s.iter().sum::<f64>() / service_s.len() as f64;
    let meets = |rate: f64| rate * mean < 1.0 && fifo_p99(service_s, rate) <= limit_s;
    // Rungs below `lo` meet the limit, rungs from `hi` do not.
    let (mut lo, mut hi) = (0, ladder.len());
    while lo < hi {
        let mid = (lo + hi) / 2;
        if meets(ladder[mid]) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    if lo == 0 {
        0.0
    } else {
        ladder[lo - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&[3.0], 0.99), 3.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn fifo_rate_respects_capacity_and_limit() {
        let ladder = ladder(10.0, 1.1, 40);
        // 1 ms service: capacity 1000/s, so no rung at or above it passes.
        let rate = fifo_slo_rate(&[0.001], &ladder, 0.05);
        assert!(rate > 0.0 && rate < 1000.0, "{rate}");
        // A tighter limit can only lower the rate.
        assert!(fifo_slo_rate(&[0.001], &ladder, 0.002) <= rate);
    }
}
