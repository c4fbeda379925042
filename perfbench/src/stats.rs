//! Order statistics and the output digest.

/// The median of `values`, the mean of the two middle values for an even
/// count. `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some((sorted[(n - 1) / 2] + sorted[n / 2]) / 2.0)
}

/// Arithmetic mean (`None` if empty).
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// 64-bit FNV-1a over `bytes`, as 16 lowercase hex digits. The benchmark's
/// output check: two runs agree exactly when their canonical result bytes
/// hash equal.
pub fn digest(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_takes_the_middle_value_or_the_mean_of_the_middle_two() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn digest_matches_the_published_fnv1a_vectors() {
        assert_eq!(digest(b""), "cbf29ce484222325");
        assert_eq!(digest(b"a"), "af63dc4c8601ec8c");
        assert_eq!(digest(b"foobar"), "85944171f73967e8");
    }
}
