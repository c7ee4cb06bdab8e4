//! A fixed reference kernel that gauges how fast the machine runs at the
//! moment, independently of the library under test.
//!
//! The kernel is plain Rust in this crate, in two parts: Dijkstra with a
//! binary heap over a large fixed random graph followed by a streaming
//! floating-point pass over 256 KiB, which spills out of the first-level
//! caches as packet simulation and the larger routing instances do; and
//! repeated Dijkstra runs over a small graph that stays in them, as the
//! solves on small topologies do. Contention from other programs slows
//! the two by different amounts, so a sample is the geometric mean of
//! their times. A change to the library cannot make either faster or
//! slower.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

use crate::inputs::Rng;

const LARGE_NODES: usize = 3000;
const SMALL_NODES: usize = 64;
const SMALL_RUNS: usize = 60;
const DEGREE: usize = 4;
const FLOATS: usize = 1 << 15;

#[derive(PartialEq)]
struct Entry(f64, u32);

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        other.0.total_cmp(&self.0).then(other.1.cmp(&self.1))
    }
}

/// A random directed graph in CSR form, kept strongly connected by a ring.
struct Csr {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    weights: Vec<f64>,
}

impl Csr {
    fn random(nodes: usize, rng: &mut Rng) -> Csr {
        let mut offsets = Vec::with_capacity(nodes + 1);
        let mut targets = Vec::with_capacity(nodes * DEGREE);
        let mut weights = Vec::with_capacity(nodes * DEGREE);
        for u in 0..nodes {
            offsets.push(targets.len() as u32);
            targets.push(((u + 1) % nodes) as u32);
            weights.push(1.0 + 20.0 * rng.unit());
            for _ in 1..DEGREE {
                targets.push(rng.below(nodes) as u32);
                weights.push(1.0 + 20.0 * rng.unit());
            }
        }
        offsets.push(targets.len() as u32);
        Csr {
            offsets,
            targets,
            weights,
        }
    }

    /// Distances from `source` into `dist`.
    fn dijkstra(&self, source: usize, dist: &mut [f64], heap: &mut BinaryHeap<Entry>) {
        dist.fill(f64::INFINITY);
        dist[source] = 0.0;
        heap.push(Entry(0.0, source as u32));
        while let Some(Entry(d, u)) = heap.pop() {
            let u = u as usize;
            if d > dist[u] {
                continue;
            }
            for e in self.offsets[u] as usize..self.offsets[u + 1] as usize {
                let v = self.targets[e] as usize;
                let nd = d + self.weights[e];
                if nd < dist[v] {
                    dist[v] = nd;
                    heap.push(Entry(nd, v as u32));
                }
            }
        }
    }
}

pub struct Reference {
    large: Csr,
    small: Csr,
    dist: Vec<f64>,
    heap: BinaryHeap<Entry>,
    values: Vec<f64>,
    source: usize,
}

impl Reference {
    pub fn new() -> Reference {
        let mut rng = Rng::new(0x5EED);
        Reference {
            large: Csr::random(LARGE_NODES, &mut rng),
            small: Csr::random(SMALL_NODES, &mut rng),
            dist: vec![f64::INFINITY; LARGE_NODES],
            heap: BinaryHeap::with_capacity(LARGE_NODES * DEGREE),
            values: (0..FLOATS).map(|i| 1.0 + i as f64 * 1e-6).collect(),
            source: 0,
        }
    }

    /// The cache-spilling part; returns a checksum so the work is not
    /// optimised away.
    fn large_part(&mut self) -> f64 {
        self.large
            .dijkstra(self.source, &mut self.dist, &mut self.heap);
        self.source = (self.source + 1) % LARGE_NODES;
        let mut sum = 0.0;
        for (i, x) in self.values.iter_mut().enumerate() {
            *x = 0.5 * (*x + self.dist[i % LARGE_NODES] / (1.0 + *x));
            sum += *x;
        }
        sum
    }

    /// The cache-resident part; returns a checksum.
    fn small_part(&mut self) -> f64 {
        let mut sum = 0.0;
        for run in 0..SMALL_RUNS {
            let dist = &mut self.dist[..SMALL_NODES];
            self.small.dijkstra(run % SMALL_NODES, dist, &mut self.heap);
            sum += dist.iter().sum::<f64>();
        }
        sum
    }

    /// Runs the kernel once and returns the geometric mean of its two
    /// parts' times.
    pub fn time(&mut self) -> Duration {
        let start = Instant::now();
        let large = self.large_part();
        let middle = Instant::now();
        let small = self.small_part();
        let end = Instant::now();
        std::hint::black_box(large + small);
        let product = (middle - start).as_secs_f64() * (end - middle).as_secs_f64();
        Duration::from_secs_f64(product.sqrt())
    }
}
