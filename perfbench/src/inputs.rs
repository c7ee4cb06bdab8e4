//! Seeded input generation shared by the workloads: a small deterministic
//! RNG, seed derivation, traffic-matrix snapshots, the bridge-circuit
//! filter and a digest that shows two runs used the same inputs.

use spef_graph::EdgeId;
use spef_topology::{Network, TrafficMatrix};

/// SplitMix64: tiny, seedable and identical on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The Fortz–Thorup seed of every workload's first traffic matrix (later
/// ones take the next seeds). The matrices are part of the workload's
/// definition, the same on every run: the run seed drives the variation
/// around them (per-pair noise, the query mix, the simulator's draws), so
/// runs on different seeds measure the same workload. With this seed
/// CERNET2 at load 0.08 routes with an MLU near 0.98.
pub const MATRIX_SEED: u64 = 1;

/// A seed for one named stream of the workload, derived from the run seed.
pub fn derive(seed: u64, stream: &str, index: u64) -> u64 {
    let mut d = Digest::new();
    d.u64(seed);
    d.bytes(stream.as_bytes());
    d.u64(index);
    Rng::new(d.finish()).next_u64()
}

/// FNV-1a over everything a workload feeds the library.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn traffic(&mut self, tm: &TrafficMatrix) {
        for (s, t, d) in tm.pairs() {
            self.u64(s.index() as u64);
            self.u64(t.index() as u64);
            self.f64(d);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// A Fortz–Thorup matrix scaled to `load` (total demand ÷ total capacity).
pub fn fortz_thorup(net: &Network, seed: u64, load: f64) -> TrafficMatrix {
    TrafficMatrix::fortz_thorup(net, seed).scaled_to_network_load(net, load)
}

/// Per-pair multiplicative noise that drifts from one snapshot to the
/// next: every factor starts uniform in `[1 - band, 1 + band]` and then
/// moves by a uniform step of at most `step` per snapshot, reflected at the
/// band's edges. Consecutive snapshots therefore differ by a few percent
/// per pair, as a measured demand stream does, instead of by a fresh draw.
pub struct PairNoise {
    factors: Vec<f64>,
    band: f64,
    step: f64,
}

impl PairNoise {
    /// Fresh factors for the positive pairs of `base`.
    pub fn new(base: &TrafficMatrix, band: f64, step: f64, rng: &mut Rng) -> PairNoise {
        let factors = base
            .pairs()
            .map(|_| 1.0 + band * (2.0 * rng.unit() - 1.0))
            .collect();
        PairNoise {
            factors,
            band,
            step,
        }
    }

    /// Moves every factor one step.
    pub fn drift(&mut self, rng: &mut Rng) {
        let (lo, hi) = (1.0 - self.band, 1.0 + self.band);
        for f in &mut self.factors {
            let x = *f + self.step * (2.0 * rng.unit() - 1.0);
            *f = if x > hi {
                2.0 * hi - x
            } else if x < lo {
                2.0 * lo - x
            } else {
                x
            };
        }
    }

    /// `base` times `scale`, each pair times its factor. `base` must be the
    /// matrix the noise was made for.
    pub fn apply(&self, base: &TrafficMatrix, scale: f64) -> TrafficMatrix {
        let mut tm = TrafficMatrix::new(base.node_count());
        for ((s, t, d), f) in base.pairs().zip(&self.factors) {
            tm.set(s, t, d * scale * f);
        }
        tm
    }
}

/// Relative L1 distance of a demand change, `Σ|new − old| ÷ Σ|old|` over
/// all pairs: the measure the Frank–Wolfe warm start gates on.
pub fn rel_l1(old: &TrafficMatrix, new: &TrafficMatrix) -> f64 {
    let mut change: f64 = old.pairs().map(|(s, t, d)| (new.get(s, t) - d).abs()).sum();
    change += new
        .pairs()
        .filter(|&(s, t, _)| old.get(s, t) == 0.0)
        .map(|(_, _, d)| d)
        .sum::<f64>();
    let base: f64 = old.pairs().map(|(_, _, d)| d).sum();
    change / base
}

/// Fisher–Yates shuffle driven by `rng`.
pub fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// The duplex circuits whose failure keeps the network strongly
/// connected; bridge circuits are dropped, since no routing survives them.
pub fn non_bridge_circuits(net: &Network) -> Vec<Vec<EdgeId>> {
    net.duplex_circuits()
        .into_iter()
        .filter(|c| net.without_links(c).is_ok())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use spef_topology::standard;

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        let net = standard::abilene();
        let make = |seed| {
            let base = fortz_thorup(&net, derive(seed, "base", 0), 0.08);
            let mut rng = Rng::new(derive(seed, "noise", 0));
            let tm = PairNoise::new(&base, 0.05, 0.01, &mut rng).apply(&base, 1.1);
            let mut d = Digest::new();
            d.traffic(&tm);
            d.finish()
        };
        assert_eq!(make(7), make(7));
        assert_ne!(make(7), make(8));
    }

    #[test]
    fn drifting_noise_stays_in_its_band_and_moves_by_at_most_a_step() {
        let net = standard::abilene();
        let base = fortz_thorup(&net, 3, 0.08);
        let mut rng = Rng::new(1);
        let mut noise = PairNoise::new(&base, 0.05, 0.01, &mut rng);
        let mut prev = noise.apply(&base, 2.0);
        for _ in 0..200 {
            noise.drift(&mut rng);
            let tm = noise.apply(&base, 2.0);
            for (s, t, d) in base.pairs() {
                let ratio = tm.get(s, t) / (2.0 * d);
                assert!((0.95..=1.05).contains(&ratio), "{ratio}");
                let moved = (tm.get(s, t) - prev.get(s, t)).abs() / (2.0 * d);
                assert!(moved <= 0.01 + 1e-12, "{moved}");
            }
            prev = tm;
        }
    }

    #[test]
    fn rel_l1_is_the_relative_size_of_the_change() {
        let net = standard::abilene();
        let base = fortz_thorup(&net, 3, 0.08);
        let noise = PairNoise::new(&base, 0.0, 0.0, &mut Rng::new(1));
        assert_eq!(rel_l1(&base, &noise.apply(&base, 1.0)), 0.0);
        let up = noise.apply(&base, 1.03);
        assert!((rel_l1(&base, &up) - 0.03).abs() < 1e-12);
        assert!(rel_l1(&base, &fortz_thorup(&net, 4, 0.08)) > 0.05);
    }

    #[test]
    fn shuffle_permutes() {
        let mut v: Vec<usize> = (0..50).collect();
        shuffle(&mut v, &mut Rng::new(9));
        assert_ne!(v, (0..50).collect::<Vec<_>>());
        v.sort_unstable();
        assert_eq!(v, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn bridge_filter_keeps_only_survivable_circuits() {
        let net = standard::abilene();
        let kept = non_bridge_circuits(&net);
        assert!(!kept.is_empty());
        assert!(kept.len() <= net.duplex_circuits().len());
        for c in &kept {
            assert!(net.without_links(c).is_ok());
        }
    }
}
