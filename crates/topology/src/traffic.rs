use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use spef_graph::NodeId;

use crate::Network;

/// A traffic matrix: expected demand `d_st` for every ordered node pair.
///
/// This is the `D` of the paper's `TE(V, G, c, D)` — the per-destination
/// demand vectors `d^t` are views of this matrix.
///
/// # Example
///
/// ```
/// use spef_topology::TrafficMatrix;
///
/// let mut tm = TrafficMatrix::new(3);
/// tm.set(0.into(), 2.into(), 1.5);
/// assert_eq!(tm.get(0.into(), 2.into()), 1.5);
/// assert_eq!(tm.total_demand(), 1.5);
/// assert_eq!(tm.pairs().count(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrafficMatrix {
    n: usize,
    /// Dense row-major demands: `demands[s * n + t]`.
    demands: Vec<f64>,
}

impl TrafficMatrix {
    /// Creates an all-zero matrix over `n` nodes.
    pub fn new(n: usize) -> Self {
        TrafficMatrix {
            n,
            demands: vec![0.0; n * n],
        }
    }

    /// Number of nodes the matrix is defined over.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Sets the demand from `s` to `t`.
    ///
    /// # Panics
    ///
    /// Panics if `s == t`, either id is out of range, or `demand` is
    /// negative or not finite.
    pub fn set(&mut self, s: NodeId, t: NodeId, demand: f64) {
        assert_ne!(s, t, "self-demand is not meaningful");
        assert!(
            demand.is_finite() && demand >= 0.0,
            "demand must be finite and non-negative, got {demand}"
        );
        self.demands[s.index() * self.n + t.index()] = demand;
    }

    /// Demand from `s` to `t` (zero when unset).
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn get(&self, s: NodeId, t: NodeId) -> f64 {
        self.demands[s.index() * self.n + t.index()]
    }

    /// Iterates over the `(source, destination, demand)` triples with
    /// strictly positive demand.
    pub fn pairs(&self) -> impl Iterator<Item = (NodeId, NodeId, f64)> + '_ {
        self.demands
            .iter()
            .enumerate()
            .filter(|&(_i, &d)| d > 0.0)
            .map(|(i, &d)| (NodeId::new(i / self.n), NodeId::new(i % self.n), d))
    }

    /// Destinations that receive positive demand — the commodity set `D` of
    /// the multi-commodity flow formulation.
    pub fn destinations(&self) -> Vec<NodeId> {
        let mut dests: Vec<NodeId> = (0..self.n)
            .filter(|&t| (0..self.n).any(|s| self.demands[s * self.n + t] > 0.0))
            .map(NodeId::new)
            .collect();
        dests.sort();
        dests
    }

    /// The per-source demand vector `d^t` toward destination `t`
    /// (`d^t_s = d_st`, zero at `t` itself).
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn demands_to(&self, t: NodeId) -> Vec<f64> {
        let mut out = Vec::new();
        self.demands_to_into(t, &mut out);
        out
    }

    /// All demands as one row-major slice: entry `s * node_count() + t`
    /// is the demand from `s` to `t`.
    pub fn as_row_major(&self) -> &[f64] {
        &self.demands
    }

    /// Writes the per-source demand vector `d^t` into `out` (resized to
    /// `node_count`), the allocation-free variant solver loops use.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn demands_to_into(&self, t: NodeId, out: &mut Vec<f64>) {
        assert!(t.index() < self.n, "destination {t} out of range");
        out.resize(self.n, 0.0);
        for (s, slot) in out.iter_mut().enumerate() {
            *slot = if s == t.index() {
                0.0
            } else {
                self.demands[s * self.n + t.index()]
            };
        }
    }

    /// Sum of all demands.
    pub fn total_demand(&self) -> f64 {
        self.demands.iter().sum()
    }

    /// The paper's *network load*: total demand over total capacity.
    ///
    /// # Panics
    ///
    /// Panics if the matrix and network sizes disagree.
    pub fn network_load(&self, network: &Network) -> f64 {
        assert_eq!(self.n, network.node_count(), "size mismatch");
        self.total_demand() / network.total_capacity()
    }

    /// Returns a copy with every demand multiplied by `factor`.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn scaled(&self, factor: f64) -> TrafficMatrix {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "scale factor must be finite and non-negative"
        );
        TrafficMatrix {
            n: self.n,
            demands: self.demands.iter().map(|d| d * factor).collect(),
        }
    }

    /// Returns a copy uniformly rescaled so that
    /// [`network_load`](Self::network_load) equals `load` — how the paper
    /// creates "different congestion levels" from one base matrix.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is all-zero or sizes disagree.
    pub fn scaled_to_network_load(&self, network: &Network, load: f64) -> TrafficMatrix {
        let current = self.network_load(network);
        assert!(current > 0.0, "cannot rescale an all-zero traffic matrix");
        self.scaled(load / current)
    }

    /// Number of ordered pairs with positive demand.
    pub fn pair_count(&self) -> usize {
        self.demands.iter().filter(|&&d| d > 0.0).count()
    }

    /// Generates demands with the Fortz–Thorup model used for the paper's
    /// Abilene and synthetic test cases: for each ordered pair `(s, t)`,
    ///
    /// `d_st = O_s · D_t · C_st · e^(−δ(s,t) / 2Δ)`
    ///
    /// with `O, D, C ~ U[0,1]` i.i.d., `δ` the Euclidean node distance and
    /// `Δ` the network diameter. The absolute scale is arbitrary; combine
    /// with [`scaled_to_network_load`](Self::scaled_to_network_load).
    pub fn fortz_thorup(network: &Network, seed: u64) -> TrafficMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = network.node_count();
        let o: Vec<f64> = (0..n).map(|_| rng.random_range(0.0..1.0)).collect();
        let d: Vec<f64> = (0..n).map(|_| rng.random_range(0.0..1.0)).collect();
        let delta_max = network.max_distance().max(f64::MIN_POSITIVE);
        let mut tm = TrafficMatrix::new(n);
        for (s, o_s) in o.iter().enumerate() {
            for (t, d_t) in d.iter().enumerate() {
                if s == t {
                    continue;
                }
                let c: f64 = rng.random_range(0.0..1.0);
                let dist = network.euclidean_distance(NodeId::new(s), NodeId::new(t));
                let demand = o_s * d_t * c * (-dist / (2.0 * delta_max)).exp();
                tm.set(NodeId::new(s), NodeId::new(t), demand);
            }
        }
        tm
    }

    /// Generates demands with a gravity model,
    /// `d_st ∝ m_s · m_t`, with log-normal node masses
    /// `m_i = exp(σ·z_i), z_i ~ N(0,1)`.
    ///
    /// This stands in for the paper's CERNET2 demands, which were fitted
    /// from proprietary NetFlow samples with a gravity model; the log-normal
    /// masses reproduce the heavy-tailed skew of real PoP loads. The
    /// absolute scale is arbitrary.
    pub fn gravity(network: &Network, sigma: f64, seed: u64) -> TrafficMatrix {
        assert!(sigma >= 0.0 && sigma.is_finite(), "sigma must be finite");
        let mut rng = StdRng::seed_from_u64(seed);
        let n = network.node_count();
        let masses: Vec<f64> = (0..n)
            .map(|_| (sigma * standard_normal(&mut rng)).exp())
            .collect();
        let total: f64 = masses.iter().sum();
        let mut tm = TrafficMatrix::new(n);
        for s in 0..n {
            for t in 0..n {
                if s != t {
                    tm.set(
                        NodeId::new(s),
                        NodeId::new(t),
                        masses[s] * masses[t] / total,
                    );
                }
            }
        }
        tm
    }
}

/// One standard-normal sample via Box–Muller (the offline `rand` crate has
/// no normal distribution).
fn standard_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.random_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::standard;

    #[test]
    fn set_get_roundtrip() {
        let mut tm = TrafficMatrix::new(4);
        tm.set(1.into(), 3.into(), 2.5);
        assert_eq!(tm.get(1.into(), 3.into()), 2.5);
        assert_eq!(tm.get(3.into(), 1.into()), 0.0);
    }

    #[test]
    #[should_panic(expected = "self-demand")]
    fn self_demand_panics() {
        let mut tm = TrafficMatrix::new(2);
        tm.set(0.into(), 0.into(), 1.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_demand_panics() {
        let mut tm = TrafficMatrix::new(2);
        tm.set(0.into(), 1.into(), -1.0);
    }

    #[test]
    fn destinations_and_demand_vectors() {
        let mut tm = TrafficMatrix::new(4);
        tm.set(0.into(), 2.into(), 1.0);
        tm.set(1.into(), 2.into(), 2.0);
        tm.set(2.into(), 3.into(), 0.9);
        assert_eq!(tm.destinations(), vec![NodeId::new(2), NodeId::new(3)]);
        assert_eq!(tm.demands_to(2.into()), vec![1.0, 2.0, 0.0, 0.0]);
        assert_eq!(tm.demands_to(3.into()), vec![0.0, 0.0, 0.9, 0.0]);
        assert_eq!(tm.pair_count(), 3);
    }

    #[test]
    fn scaling_and_network_load() {
        let net = standard::fig1();
        let mut tm = TrafficMatrix::new(4);
        tm.set(0.into(), 2.into(), 1.0);
        tm.set(2.into(), 3.into(), 0.9);
        // Fig. 1 has 6 unit-capacity links (4 reported + 2 returns).
        assert!((tm.network_load(&net) - 1.9 / 6.0).abs() < 1e-12);
        let rescaled = tm.scaled_to_network_load(&net, 0.25);
        assert!((rescaled.network_load(&net) - 0.25).abs() < 1e-12);
        let doubled = tm.scaled(2.0);
        assert_eq!(doubled.get(0.into(), 2.into()), 2.0);
    }

    #[test]
    fn fortz_thorup_is_deterministic_and_positive() {
        let net = standard::abilene();
        let a = TrafficMatrix::fortz_thorup(&net, 7);
        let b = TrafficMatrix::fortz_thorup(&net, 7);
        assert_eq!(a, b);
        let c = TrafficMatrix::fortz_thorup(&net, 8);
        assert_ne!(a, c);
        // All off-diagonal pairs get some (possibly tiny) demand.
        assert_eq!(a.pair_count(), 11 * 10);
        assert!(a.total_demand() > 0.0);
    }

    #[test]
    fn fortz_thorup_decays_with_distance() {
        // Demands toward far-away nodes are damped by exp(-d/2Δ) on
        // average; check the aggregate effect over many seeds.
        let net = standard::abilene();
        let mut near = 0.0;
        let mut far = 0.0;
        let (mut near_n, mut far_n) = (0, 0);
        for seed in 0..50 {
            let tm = TrafficMatrix::fortz_thorup(&net, seed);
            let dmax = net.max_distance();
            for (s, t, d) in tm.pairs() {
                if net.euclidean_distance(s, t) < 0.3 * dmax {
                    near += d;
                    near_n += 1;
                } else if net.euclidean_distance(s, t) > 0.7 * dmax {
                    far += d;
                    far_n += 1;
                }
            }
        }
        assert!(near / near_n as f64 > far / far_n as f64);
    }

    #[test]
    fn gravity_is_deterministic_and_skewed() {
        let net = standard::cernet2();
        let a = TrafficMatrix::gravity(&net, 1.0, 3);
        let b = TrafficMatrix::gravity(&net, 1.0, 3);
        assert_eq!(a, b);
        // With sigma > 0 the demand distribution is skewed: the max pair
        // demand well exceeds the mean.
        let demands: Vec<f64> = a.pairs().map(|(_, _, d)| d).collect();
        let mean = demands.iter().sum::<f64>() / demands.len() as f64;
        let max = demands.iter().cloned().fold(0.0, f64::max);
        assert!(max > 3.0 * mean);
    }

    #[test]
    fn gravity_sigma_zero_is_uniform() {
        let net = standard::fig1();
        let tm = TrafficMatrix::gravity(&net, 0.0, 1);
        let demands: Vec<f64> = tm.pairs().map(|(_, _, d)| d).collect();
        for d in &demands {
            assert!((d - demands[0]).abs() < 1e-12);
        }
    }
}
