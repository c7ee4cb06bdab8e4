//! Small helpers shared by the weight-search baselines.

use rand::rngs::StdRng;
use rand::Rng;
use spef_topology::Network;

/// Fisher–Yates shuffle (the offline `rand` has no `SliceRandom` for this
/// version's API surface), shared by the Fortz–Thorup and robust weight
/// searches so their seeded scan orders come from one implementation.
pub(crate) fn shuffle(order: &mut [usize], rng: &mut StdRng) {
    for i in (1..order.len()).rev() {
        let j = rng.random_range(0..=i);
        order.swap(i, j);
    }
}

/// The Fortz–Thorup start point: InvCap weights scaled so the largest
/// link weighs 1, rounded to integers in `1..=max_weight`.
pub(crate) fn rounded_invcap(network: &Network, max_weight: u32) -> Vec<f64> {
    let max_cap = network
        .capacities()
        .iter()
        .cloned()
        .fold(f64::MIN_POSITIVE, f64::max);
    network
        .capacities()
        .iter()
        .map(|c| (max_cap / c).round().clamp(1.0, max_weight as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn shuffle_is_a_permutation_and_seed_deterministic() {
        let mut a: Vec<usize> = (0..50).collect();
        let mut b: Vec<usize> = (0..50).collect();
        shuffle(&mut a, &mut StdRng::seed_from_u64(9));
        shuffle(&mut b, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(a, sorted, "50 elements seeded at 9 should move");
    }
}
