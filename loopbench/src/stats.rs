//! Sample statistics and server `stats` deltas.

use std::time::Instant;

use serde_json::Value;

/// Nearest-rank percentile of `xs` (`p` in 0..=100). `xs` need not be
/// sorted; an empty slice gives 0.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Arithmetic mean (0 for an empty slice).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Mean of `xs` without its `trim` lowest and `trim` highest values.
pub fn trimmed_mean(xs: &[f64], trim: usize) -> f64 {
    if xs.len() <= 2 * trim {
        return median(xs);
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    mean(&v[trim..v.len() - trim])
}

/// The tail percentile of a run, robust to the rare multi-millisecond
/// stalls of a shared machine: the samples, in completion order, are cut
/// into consecutive blocks of at least `block` samples, and the result
/// is the median of the blocks' own `p`-th percentiles. Returns it with
/// the block count, or `None` with fewer than `block` samples.
pub fn block_percentile(
    lat: &[f64],
    done: &[Instant],
    block: usize,
    p: f64,
) -> Option<(f64, usize)> {
    if lat.len() < block || block == 0 {
        return None;
    }
    let mut order: Vec<usize> = (0..lat.len()).collect();
    order.sort_by_key(|&i| done[i]);
    let blocks = lat.len() / block;
    let per: Vec<f64> = (0..blocks)
        .map(|b| {
            // The last block takes the remainder.
            let end = if b + 1 == blocks {
                lat.len()
            } else {
                (b + 1) * block
            };
            let xs: Vec<f64> = order[b * block..end].iter().map(|&i| lat[i]).collect();
            percentile(&xs, p)
        })
        .collect();
    Some((median(&per), blocks))
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// A number at `path` (dot-separated) in a `stats` response, 0 when
/// absent.
pub fn num(v: &Value, path: &str) -> f64 {
    let mut cur = v;
    for k in path.split('.') {
        cur = &cur[k];
    }
    cur.as_f64().unwrap_or(0.0)
}

/// `after − before` at `path`.
pub fn delta(before: &Value, after: &Value, path: &str) -> f64 {
    num(after, path) - num(before, path)
}

/// The pow2 histogram at `path` (bucket `i` counts values up to
/// `2^i − 1` µs), as `after − before`.
fn hist_delta(before: &Value, after: &Value, path: &str) -> Vec<f64> {
    let get = |v: &Value| -> Vec<f64> {
        let mut cur = v;
        for k in path.split('.') {
            cur = &cur[k];
        }
        cur.as_array()
            .map(|a| a.iter().map(|x| x.as_f64().unwrap_or(0.0)).collect())
            .unwrap_or_default()
    };
    let (b, a) = (get(before), get(after));
    a.iter()
        .enumerate()
        .map(|(i, x)| x - b.get(i).copied().unwrap_or(0.0))
        .collect()
}

/// Percentile of a pow2 histogram delta, read as the bucket's upper
/// bound the way the server reports its own `p50_us`/`p99_us`.
pub fn hist_percentile(before: &Value, after: &Value, path: &str, p: f64) -> f64 {
    let h = hist_delta(before, after, path);
    let total: f64 = h.iter().sum();
    if total == 0.0 {
        return 0.0;
    }
    let want = (p / 100.0 * total).ceil().max(1.0);
    let mut acc = 0.0;
    for (i, c) in h.iter().enumerate() {
        acc += c;
        if acc >= want {
            return if i == 0 {
                0.0
            } else {
                ((1u64 << i) - 1) as f64
            };
        }
    }
    ((1u64 << (h.len() - 1)) - 1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
