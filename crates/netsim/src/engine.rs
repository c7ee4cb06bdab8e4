use std::collections::VecDeque;
use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spef_core::{FibSet, ForwardingTable};
use spef_graph::{EdgeId, NodeId};
use spef_topology::{Network, TrafficMatrix};

use crate::sched::{EventQueue, Nanos, SchedulerKind, SchedulerStats};

/// Errors returned by [`simulate`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// A packet reached a router whose forwarding table has no entry for
    /// its destination.
    MissingRoute {
        /// The stuck router.
        node: NodeId,
        /// The packet's destination.
        destination: NodeId,
    },
    /// A configuration value was out of its documented domain, or the
    /// network/traffic/FIB sizes disagree.
    InvalidConfig(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::MissingRoute { node, destination } => {
                write!(f, "no route at {node} toward {destination}")
            }
            SimError::InvalidConfig(msg) => write!(f, "invalid simulation config: {msg}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Simulated seconds (the paper uses 400 s).
    pub duration: f64,
    /// Seconds at the start excluded from load/delay statistics.
    pub warmup: f64,
    /// Packet size in bits (default 12 000 = 1500 bytes).
    pub packet_size_bits: u64,
    /// Multiplier converting [`Network`] capacity units to bits/s
    /// (e.g. `1e6` when capacity `5` means 5 Mb/s, `1e9` for Gb/s).
    pub capacity_to_bps: f64,
    /// Multiplier converting [`TrafficMatrix`] demand units to bits/s.
    pub demand_to_bps: f64,
    /// Per-link propagation delay in seconds.
    pub propagation_delay: f64,
    /// Drop-tail buffer size per link, in packets.
    pub buffer_packets: usize,
    /// RNG seed (arrivals + forwarding choices).
    pub seed: u64,
    /// Event scheduler. [`SchedulerKind::Calendar`] (the default) and
    /// [`SchedulerKind::BinaryHeap`] pop events in the identical
    /// `(time, seq)` order, so the choice cannot change any [`SimReport`]
    /// field — only the wall-clock cost.
    pub scheduler: SchedulerKind,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            duration: 400.0,
            warmup: 0.0,
            packet_size_bits: 12_000,
            capacity_to_bps: 1e6,
            demand_to_bps: 1e6,
            propagation_delay: 1e-3,
            buffer_packets: 100,
            seed: 0xCAFE,
            scheduler: SchedulerKind::Calendar,
        }
    }
}

/// Aggregate simulation results.
///
/// Every field is a pure function of the inputs and the seed —
/// bit-identical across runs, machines, and scheduler kinds. Scheduler
/// internals (bucket counts, occupancy) are deliberately kept out of this
/// struct; read them from [`SimWorkspace::scheduler_stats`] instead.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Mean load per link in bits/s, averaged over
    /// `duration − warmup` (the y-axis of Fig. 11). Derived from an exact
    /// integer bit count per link, converted to float once.
    pub mean_link_load_bps: Vec<f64>,
    /// Packets handed to the network by all sources.
    pub generated_packets: u64,
    /// Packets that reached their destination.
    pub delivered_packets: u64,
    /// Packets dropped at full buffers.
    pub dropped_packets: u64,
    /// Mean end-to-end delay of delivered packets, seconds.
    pub mean_delay: f64,
    /// 99th-percentile end-to-end delay, seconds (0 when nothing was
    /// delivered). Reported at the simulator's 1 µs delay resolution:
    /// the value is within 1 µs above the exact order statistic.
    pub p99_delay: f64,
    /// Number of links that carried any traffic.
    pub links_used: usize,
    /// High-water mark of simultaneously live packets (allocated packet
    /// slots). Bounded by buffer occupancy and in-flight packets, not by
    /// run length — the witness that packet storage is recycled.
    pub peak_packet_slots: u64,
}

impl SimReport {
    /// Mean link load expressed back in [`Network`] capacity units
    /// (bits/s divided by [`SimConfig::capacity_to_bps`]).
    pub fn mean_link_load_units(&self, config: &SimConfig) -> Vec<f64> {
        self.mean_link_load_bps
            .iter()
            .map(|l| l / config.capacity_to_bps)
            .collect()
    }
}

const NANOS_PER_SEC: f64 = 1e9;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// A new packet of demand pair `pair` enters at its source.
    SourceArrival { pair: usize },
    /// A packet arrives at `node` (after a link traversal or at origin).
    NodeArrival { node: NodeId, packet: PacketId },
    /// Link `edge` finished serialising its head packet.
    LinkDone { edge: EdgeId },
}

type PacketId = u32;

/// Sentinel destination slot for packets whose destination the FIB does
/// not cover (detected the first time such a packet must be forwarded,
/// matching the legacy per-hop lookup failure).
const NO_SLOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Packet {
    destination: NodeId,
    /// The destination's dense [`FibSet`] slot, resolved once per demand
    /// pair at setup — per-hop forwarding never touches the dest-index
    /// table again.
    dest_slot: u32,
    created_at: Nanos,
}

struct LinkState {
    queue: VecDeque<PacketId>,
    busy: bool,
    /// Bits whose transmission *completed* inside the measurement window.
    /// Packet sizes are integral bits, so the accumulator is exact — the
    /// float conversion happens once, in the report.
    measured_bits: u64,
}

impl LinkState {
    fn new() -> LinkState {
        LinkState {
            queue: VecDeque::new(),
            busy: false,
            measured_bits: 0,
        }
    }

    fn reset(&mut self) {
        self.queue.clear();
        self.busy = false;
        self.measured_bits = 0;
    }
}

/// Slot storage with free-list recycling, shared by packets and events:
/// released ids are reused by later inserts, so memory is bounded by the
/// peak number of simultaneously *live* values instead of every value
/// ever created over the run.
struct Arena<T> {
    slots: Vec<T>,
    free: Vec<u32>,
}

impl<T: Copy> Arena<T> {
    fn new() -> Arena<T> {
        Arena {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    fn reset(&mut self) {
        self.slots.clear();
        self.free.clear();
    }

    fn insert(&mut self, value: T) -> u32 {
        match self.free.pop() {
            Some(id) => {
                self.slots[id as usize] = value;
                id
            }
            None => {
                self.slots.push(value);
                (self.slots.len() - 1) as u32
            }
        }
    }

    fn get(&self, id: u32) -> T {
        self.slots[id as usize]
    }

    /// Returns `id`'s slot to the free list. The caller must ensure no
    /// event or queue still references it.
    fn release(&mut self, id: u32) {
        self.free.push(id);
    }

    /// Reads and releases `id`'s slot (for values consumed exactly once,
    /// like scheduled events).
    fn take(&mut self, id: u32) -> T {
        let value = self.get(id);
        self.release(id);
        value
    }

    /// High-water mark of allocated slots.
    fn peak_slots(&self) -> usize {
        self.slots.len()
    }
}

/// Packet storage: the per-link queues and in-flight events hold bare
/// [`PacketId`]s into this arena.
type PacketArena = Arena<Packet>;

/// Event payload storage: the scheduler orders bare `(time, seq,
/// EventId)` entries while the payloads live inline here.
type EventArena = Arena<Event>;

/// Resolution of the end-to-end delay histogram.
const DELAY_BUCKET_NS: u64 = 1_000;

/// Fixed-resolution (1 µs) delay accumulator.
///
/// Replaces the per-packet delay log: memory is bounded by the largest
/// observed delay (one counter per microsecond of range), not by the number
/// of delivered packets. The mean is exact — delays are summed at full
/// nanosecond precision in 128-bit — and quantiles are exact to the bucket
/// width: the reported p99 is the upper edge of the bucket holding the
/// order statistic, at most 1 µs above the exact value.
struct DelayHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum_ns: u128,
}

impl DelayHistogram {
    fn new() -> Self {
        DelayHistogram {
            buckets: Vec::new(),
            count: 0,
            sum_ns: 0,
        }
    }

    fn reset(&mut self) {
        self.buckets.clear();
        self.count = 0;
        self.sum_ns = 0;
    }

    fn record(&mut self, delay_ns: Nanos) {
        let idx = (delay_ns / DELAY_BUCKET_NS) as usize;
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum_ns += u128::from(delay_ns);
    }

    fn mean_seconds(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64 / NANOS_PER_SEC
        }
    }

    /// Upper edge of the bucket holding the same order statistic the sorted
    /// per-packet log used (`delays[min(len − 1, len·99/100)]`).
    fn p99_seconds(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (self.count - 1).min(self.count / 100 * 99 + self.count % 100 * 99 / 100);
        let mut cumulative = 0u64;
        for (b, &c) in self.buckets.iter().enumerate() {
            cumulative += c;
            if cumulative > rank {
                return ((b as u64 + 1) * DELAY_BUCKET_NS) as f64 / NANOS_PER_SEC;
            }
        }
        unreachable!("rank {rank} below recorded count {}", self.count)
    }
}

/// Reusable simulation state: the event queue (calendar buckets or heap),
/// event/packet arenas, per-link state, and the delay histogram. Repeated
/// [`simulate_with`] calls on a warm workspace are allocation-free in
/// steady state — every structure is cleared, not dropped, between runs —
/// which is what the fig11 SPEF/PEFT pair and the `sim` sweep lanes lean
/// on.
pub struct SimWorkspace {
    queue: EventQueue,
    events: EventArena,
    packets: PacketArena,
    links: Vec<LinkState>,
    pairs: Vec<(NodeId, NodeId, f64)>,
    /// Per-pair destination slot in the FIB ([`NO_SLOT`] when uncovered),
    /// resolved once per run and stamped into each generated packet.
    pair_slots: Vec<u32>,
    rates: Vec<f64>,
    tx_ns: Vec<Nanos>,
    delays: DelayHistogram,
    stats: SchedulerStats,
}

impl SimWorkspace {
    /// Creates an empty workspace (capacities grow on first use).
    pub fn new() -> SimWorkspace {
        SimWorkspace {
            queue: EventQueue::new(),
            events: EventArena::new(),
            packets: PacketArena::new(),
            links: Vec::new(),
            pairs: Vec::new(),
            pair_slots: Vec::new(),
            rates: Vec::new(),
            tx_ns: Vec::new(),
            delays: DelayHistogram::new(),
            stats: SchedulerStats::default(),
        }
    }

    /// Scheduler counters of the most recent [`simulate_with`] run on this
    /// workspace: calendar geometry, peak bucket occupancy, overflow
    /// high-water mark, event-slot high-water mark. Observational only —
    /// none of it feeds back into [`SimReport`].
    pub fn scheduler_stats(&self) -> &SchedulerStats {
        &self.stats
    }
}

impl Default for SimWorkspace {
    fn default() -> Self {
        SimWorkspace::new()
    }
}

/// Runs the simulation on a fresh workspace.
///
/// Callers running many simulations (sweeps, protocol comparisons) should
/// allocate one [`SimWorkspace`] and use [`simulate_with`] instead.
///
/// # Errors
///
/// * [`SimError::InvalidConfig`] for non-positive duration/rates, a
///   warmup ≥ duration, or size mismatches,
/// * [`SimError::MissingRoute`] if a packet strands at a router with no
///   forwarding entry (the FIB does not cover its destination from there).
pub fn simulate(
    network: &Network,
    traffic: &TrafficMatrix,
    fib: &ForwardingTable,
    config: &SimConfig,
) -> Result<SimReport, SimError> {
    simulate_with(network, traffic, fib, config, &mut SimWorkspace::new())
}

/// Runs the simulation, reusing `ws` across calls (allocation-free in
/// steady state). Results are identical to [`simulate`]'s — the workspace
/// carries no state between runs besides buffer capacity.
///
/// # Errors
///
/// Same contract as [`simulate`].
pub fn simulate_with(
    network: &Network,
    traffic: &TrafficMatrix,
    fib: &ForwardingTable,
    config: &SimConfig,
    ws: &mut SimWorkspace,
) -> Result<SimReport, SimError> {
    validate(network, traffic, config)?;
    let g = network.graph();
    let m = g.edge_count();
    // The flat forwarding plane: slot-based row lookups, cum-prob sampling.
    let fib: &FibSet = fib.fib();

    let mut rng = StdRng::seed_from_u64(config.seed);
    ws.pairs.clear();
    ws.pairs.extend(traffic.pairs());
    // Resolve each pair's destination slot once; per-hop forwarding below
    // goes straight from the packet's slot to its CSR row.
    ws.pair_slots.clear();
    ws.pair_slots.extend(
        ws.pairs
            .iter()
            .map(|&(_, dst, _)| fib.dest_slot(dst).unwrap_or(NO_SLOT)),
    );
    // Poisson rates in packets/s.
    ws.rates.clear();
    ws.rates.extend(
        ws.pairs
            .iter()
            .map(|&(_, _, d)| d * config.demand_to_bps / config.packet_size_bits as f64),
    );
    if let Some(i) = ws.rates.iter().position(|&r| r <= 0.0 || !r.is_finite()) {
        return Err(SimError::InvalidConfig(format!(
            "demand pair {i} has non-positive packet rate"
        )));
    }

    let duration_ns = (config.duration * NANOS_PER_SEC) as Nanos;
    let warmup_ns = (config.warmup * NANOS_PER_SEC) as Nanos;
    ws.tx_ns.clear();
    ws.tx_ns.extend(network.capacities().iter().map(|c| {
        let bps = c * config.capacity_to_bps;
        ((config.packet_size_bits as f64 / bps) * NANOS_PER_SEC).ceil() as Nanos
    }));
    let prop_ns = (config.propagation_delay * NANOS_PER_SEC) as Nanos;

    // Initial calendar geometry hint: the mean spacing between events is
    // bounded below by the aggregate packet rate times a few events per
    // hop; the queue retunes itself if the estimate is off.
    let total_rate: f64 = ws.rates.iter().sum();
    let width_hint = (NANOS_PER_SEC / (4.0 * total_rate)).ceil().max(1.0) as Nanos;
    ws.queue
        .reset(config.scheduler, width_hint, ws.pairs.len() + m);
    ws.events.reset();
    ws.packets.reset();
    for link in ws.links.iter_mut() {
        link.reset();
    }
    if ws.links.len() < m {
        ws.links.resize_with(m, LinkState::new);
    }
    ws.delays.reset();

    let SimWorkspace {
        queue,
        events,
        packets,
        links,
        pairs,
        pair_slots,
        rates,
        tx_ns,
        delays,
        ..
    } = ws;

    // Prime one arrival per pair.
    for (i, &rate) in rates.iter().enumerate() {
        let dt = exp_sample(&mut rng, rate);
        schedule(queue, events, dt, Event::SourceArrival { pair: i });
    }

    let mut generated = 0u64;
    let mut delivered = 0u64;
    let mut dropped = 0u64;

    while let Some((now, _, eid)) = queue.pop() {
        let event = events.take(eid);
        if now > duration_ns {
            break;
        }
        match event {
            Event::SourceArrival { pair } => {
                let (src, dst, _) = pairs[pair];
                let id = packets.insert(Packet {
                    destination: dst,
                    dest_slot: pair_slots[pair],
                    created_at: now,
                });
                generated += 1;
                schedule(
                    queue,
                    events,
                    now,
                    Event::NodeArrival {
                        node: src,
                        packet: id,
                    },
                );
                // Schedule the next arrival of this pair.
                let next = now + exp_sample(&mut rng, rates[pair]);
                if next <= duration_ns {
                    schedule(queue, events, next, Event::SourceArrival { pair });
                }
            }
            Event::NodeArrival { node, packet } => {
                let info = packets.get(packet);
                let dst = info.destination;
                if node == dst {
                    delivered += 1;
                    if now >= warmup_ns {
                        delays.record(now - info.created_at);
                    }
                    packets.release(packet);
                    continue;
                }
                // Two index ops into the CSR arena; an uncovered
                // destination or an empty row strands the packet exactly
                // like the legacy per-hop table miss.
                let row = (info.dest_slot != NO_SLOT)
                    .then(|| fib.row(info.dest_slot, node))
                    .filter(|r| !r.is_empty())
                    .ok_or(SimError::MissingRoute {
                        node,
                        destination: dst,
                    })?;
                // Same uniform draw as the legacy accumulation walk; the
                // precomputed cumulative probabilities make the selection a
                // binary search with an identical result.
                let x: f64 = rng.random_range(0.0..1.0);
                let edge = row.select(x);
                let link = &mut links[edge.index()];
                if link.queue.len() >= config.buffer_packets {
                    dropped += 1;
                    packets.release(packet);
                    continue;
                }
                link.queue.push_back(packet);
                if !link.busy {
                    link.busy = true;
                    schedule(
                        queue,
                        events,
                        now + tx_ns[edge.index()],
                        Event::LinkDone { edge },
                    );
                }
            }
            Event::LinkDone { edge } => {
                let link = &mut links[edge.index()];
                let packet = link
                    .queue
                    .pop_front()
                    .expect("LinkDone implies a queued packet");
                if now >= warmup_ns {
                    link.measured_bits += config.packet_size_bits;
                }
                // Deliver to the link head after propagation.
                let head = g.target(edge);
                schedule(
                    queue,
                    events,
                    now + prop_ns,
                    Event::NodeArrival { node: head, packet },
                );
                // Start the next packet, if any.
                if !link.queue.is_empty() {
                    schedule(
                        queue,
                        events,
                        now + tx_ns[edge.index()],
                        Event::LinkDone { edge },
                    );
                } else {
                    link.busy = false;
                }
            }
        }
    }

    ws.stats = ws.queue.stats();
    ws.stats.peak_event_slots = ws.events.peak_slots();

    let window = (duration_ns - warmup_ns) as f64 / NANOS_PER_SEC;
    let mean_link_load_bps: Vec<f64> = ws.links[..m]
        .iter()
        .map(|l| l.measured_bits as f64 / window)
        .collect();
    let links_used = mean_link_load_bps.iter().filter(|&&l| l > 0.0).count();

    Ok(SimReport {
        mean_link_load_bps,
        generated_packets: generated,
        delivered_packets: delivered,
        dropped_packets: dropped,
        mean_delay: ws.delays.mean_seconds(),
        p99_delay: ws.delays.p99_seconds(),
        links_used,
        peak_packet_slots: ws.packets.peak_slots() as u64,
    })
}

/// Inserts the payload into the arena and queues its `(time, seq, id)`
/// entry.
#[inline]
fn schedule(queue: &mut EventQueue, events: &mut EventArena, t: Nanos, event: Event) {
    let id = events.insert(event);
    queue.push(t, id);
}

fn validate(
    network: &Network,
    traffic: &TrafficMatrix,
    config: &SimConfig,
) -> Result<(), SimError> {
    if traffic.node_count() != network.node_count() {
        return Err(SimError::InvalidConfig(format!(
            "traffic matrix covers {} nodes, network has {}",
            traffic.node_count(),
            network.node_count()
        )));
    }
    if !config.duration.is_finite() || config.duration <= 0.0 {
        return Err(SimError::InvalidConfig(
            "duration must be positive and finite".into(),
        ));
    }
    // A negative or NaN warmup would saturate to zero nanoseconds and run
    // the simulation without the warmup its caller asked for.
    if !config.warmup.is_finite() || config.warmup < 0.0 {
        return Err(SimError::InvalidConfig(
            "warmup must be non-negative and finite".into(),
        ));
    }
    if config.warmup >= config.duration {
        return Err(SimError::InvalidConfig(
            "warmup must be shorter than duration".into(),
        ));
    }
    if config.packet_size_bits == 0 {
        return Err(SimError::InvalidConfig("packet size must be > 0".into()));
    }
    for &(v, name) in &[
        (config.capacity_to_bps, "capacity_to_bps"),
        (config.demand_to_bps, "demand_to_bps"),
    ] {
        if !v.is_finite() || v <= 0.0 {
            return Err(SimError::InvalidConfig(format!("{name} must be positive")));
        }
    }
    if !config.propagation_delay.is_finite() || config.propagation_delay < 0.0 {
        return Err(SimError::InvalidConfig(
            "propagation delay must be non-negative and finite".into(),
        ));
    }
    if traffic.pair_count() == 0 {
        return Err(SimError::InvalidConfig("traffic matrix is empty".into()));
    }
    Ok(())
}

/// Exponential inter-arrival sample in nanoseconds.
fn exp_sample(rng: &mut StdRng, rate_per_sec: f64) -> Nanos {
    let u: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
    let secs = -u.ln() / rate_per_sec;
    (secs * NANOS_PER_SEC).ceil().max(1.0) as Nanos
}

#[cfg(test)]
mod tests {
    use super::*;
    use spef_core::{Objective, SpefConfig, TeInstance, TeSolver};
    use spef_topology::standard;

    /// A 3-node chain with a single demand: loads are exactly predictable.
    fn chain_setup() -> (Network, TrafficMatrix, ForwardingTable) {
        let mut b = Network::builder("chain");
        let a = b.add_node("a", (0.0, 0.0));
        let c = b.add_node("b", (1.0, 0.0));
        let d = b.add_node("c", (2.0, 0.0));
        b.add_duplex_link(a, c, 10.0);
        b.add_duplex_link(c, d, 10.0);
        let net = b.build().unwrap();
        let mut tm = TrafficMatrix::new(3);
        tm.set(0.into(), 2.into(), 2.0); // 2 Mb/s over 10 Mb/s links
        let obj = Objective::proportional(net.link_count());
        let routing = SpefConfig::default()
            .solve(TeInstance::new(&net, &tm, &obj))
            .unwrap();
        (net, tm, routing.forwarding_table().clone())
    }

    #[test]
    fn chain_load_matches_offered_rate() {
        let (net, tm, fib) = chain_setup();
        let cfg = SimConfig {
            duration: 30.0,
            warmup: 2.0,
            seed: 1,
            ..SimConfig::default()
        };
        let report = simulate(&net, &tm, &fib, &cfg).unwrap();
        // Edges 0 (a→b) and 2 (b→c) carry ~2 Mb/s; reverse edges nothing.
        assert!(
            (report.mean_link_load_bps[0] - 2e6).abs() < 0.1e6,
            "a→b load {}",
            report.mean_link_load_bps[0]
        );
        assert!(
            (report.mean_link_load_bps[2] - 2e6).abs() < 0.1e6,
            "b→c load {}",
            report.mean_link_load_bps[2]
        );
        assert_eq!(report.mean_link_load_bps[1], 0.0);
        assert_eq!(report.dropped_packets, 0);
        assert!(report.delivered_packets > 4000);
        assert!(report.mean_delay > 0.0);
        assert!(report.p99_delay >= report.mean_delay);
        assert_eq!(report.links_used, 2);
    }

    #[test]
    fn heap_and_calendar_reports_are_bit_identical() {
        // The schedulers must agree on every field, bit for bit, including
        // under drops (overload) and multi-path splitting. The proptest
        // suite in tests/scheduler_equivalence.rs widens this to random
        // topologies; this is the fast in-crate smoke version.
        let (net, tm, fib) = chain_setup();
        for seed in [1u64, 7, 42] {
            let base = SimConfig {
                duration: 20.0,
                warmup: 1.0,
                seed,
                ..SimConfig::default()
            };
            let heap = simulate(
                &net,
                &tm,
                &fib,
                &SimConfig {
                    scheduler: SchedulerKind::BinaryHeap,
                    ..base.clone()
                },
            )
            .unwrap();
            let calendar = simulate(
                &net,
                &tm,
                &fib,
                &SimConfig {
                    scheduler: SchedulerKind::Calendar,
                    ..base
                },
            )
            .unwrap();
            assert_eq!(heap, calendar, "seed {seed}");
        }
    }

    #[test]
    fn workspace_reuse_matches_fresh_runs_and_reports_stats() {
        let (net, tm, fib) = chain_setup();
        let cfg = SimConfig {
            duration: 10.0,
            seed: 5,
            ..SimConfig::default()
        };
        let fresh = simulate(&net, &tm, &fib, &cfg).unwrap();
        let mut ws = SimWorkspace::new();
        for _ in 0..3 {
            let warm = simulate_with(&net, &tm, &fib, &cfg, &mut ws).unwrap();
            assert_eq!(warm, fresh, "workspace reuse must not change results");
        }
        let stats = ws.scheduler_stats();
        assert_eq!(stats.kind, SchedulerKind::Calendar);
        assert!(stats.bucket_count > 0);
        assert!(stats.bucket_width_ns > 0);
        assert!(stats.max_bucket_occupancy > 0);
        assert!(stats.peak_events > 0);
        assert!(stats.peak_event_slots >= stats.peak_events);

        // The heap path reports its own (bucket-free) stats.
        let heap_cfg = SimConfig {
            scheduler: SchedulerKind::BinaryHeap,
            ..cfg
        };
        let warm = simulate_with(&net, &tm, &fib, &heap_cfg, &mut ws).unwrap();
        assert_eq!(warm, fresh);
        assert_eq!(ws.scheduler_stats().kind, SchedulerKind::BinaryHeap);
        assert_eq!(ws.scheduler_stats().bucket_count, 0);
        assert!(ws.scheduler_stats().peak_events > 0);
    }

    #[test]
    fn long_run_link_bits_are_exact_integers() {
        // The per-link accumulator is integral: over any horizon the
        // reported mean load × window must reconstruct an exact multiple
        // of the packet size (the old f64 accumulator could drift once
        // sums grew large; u64 cannot). 500 simulated seconds ≈ 10^5
        // packets over the chain.
        let (net, tm, fib) = chain_setup();
        let cfg = SimConfig {
            duration: 500.0,
            warmup: 0.0,
            seed: 13,
            ..SimConfig::default()
        };
        let report = simulate(&net, &tm, &fib, &cfg).unwrap();
        let window = cfg.duration;
        for (e, &load) in report.mean_link_load_bps.iter().enumerate() {
            let bits = load * window;
            let packets = bits / cfg.packet_size_bits as f64;
            assert!(
                (packets - packets.round()).abs() < 1e-6,
                "link {e}: {bits} bits is not an integral packet count"
            );
        }
        // The busy links saw ~83k packets each; drift-free accumulation
        // keeps the totals consistent with the delivery counter.
        let total_bits: f64 = report.mean_link_load_bps.iter().sum::<f64>() * window;
        let hops = total_bits / cfg.packet_size_bits as f64;
        assert!(
            hops >= 2.0 * report.delivered_packets as f64,
            "chain delivery crosses two links: {hops} hop-transmissions vs {} delivered",
            report.delivered_packets
        );
    }

    #[test]
    fn load_units_use_capacity_conversion() {
        // Regression: `mean_link_load_units` documents *capacity* units but
        // divided by `demand_to_bps`. With asymmetric conversions the two
        // answers differ by 2×.
        let (net, tm, fib) = chain_setup();
        let cfg = SimConfig {
            duration: 30.0,
            warmup: 2.0,
            capacity_to_bps: 2e6, // capacity 10 units = 20 Mb/s links
            demand_to_bps: 1e6,   // demand 2 units = 2 Mb/s offered
            seed: 9,
            ..SimConfig::default()
        };
        let report = simulate(&net, &tm, &fib, &cfg).unwrap();
        // ~2 Mb/s measured on the first hop = 1.0 capacity units (2e6/2e6);
        // dividing by demand_to_bps would report ~2.0.
        let units = report.mean_link_load_units(&cfg);
        assert!(
            (units[0] - 1.0).abs() < 0.1,
            "first hop in capacity units: {}",
            units[0]
        );
        assert!(
            (units[0] - report.mean_link_load_bps[0] / cfg.capacity_to_bps).abs() < 1e-12,
            "units must be bps over capacity_to_bps"
        );
    }

    #[test]
    fn packet_slots_bounded_by_live_packets_not_duration() {
        // Memory regression: packet slots are recycled, so a 10×-longer run
        // must not use ~10× the slots (the old Vec grew per generated
        // packet, i.e. linearly in duration).
        let (net, tm, fib) = chain_setup();
        let run = |duration: f64| {
            let cfg = SimConfig {
                duration,
                seed: 11,
                ..SimConfig::default()
            };
            simulate(&net, &tm, &fib, &cfg).unwrap()
        };
        let short = run(4.0);
        let long = run(40.0);
        assert!(long.generated_packets > 8 * short.generated_packets);
        assert!(
            long.peak_packet_slots < long.generated_packets / 20,
            "slots {} vs generated {}: packet storage is not being recycled",
            long.peak_packet_slots,
            long.generated_packets
        );
        // Peak live packets is a stationary property of the load, not of
        // the horizon; allow generous slack for the longer run's extremes.
        assert!(
            long.peak_packet_slots <= 4 * short.peak_packet_slots.max(4),
            "peak slots grew with duration: {} -> {}",
            short.peak_packet_slots,
            long.peak_packet_slots
        );
    }

    #[test]
    fn event_slots_bounded_by_live_events_not_duration() {
        // Same recycling witness for the event arena: slots are returned
        // on every pop, so the high-water mark tracks concurrency.
        let (net, tm, fib) = chain_setup();
        let run = |duration: f64| {
            let cfg = SimConfig {
                duration,
                seed: 11,
                ..SimConfig::default()
            };
            let mut ws = SimWorkspace::new();
            let report = simulate_with(&net, &tm, &fib, &cfg, &mut ws).unwrap();
            (report, ws.scheduler_stats().peak_event_slots)
        };
        let (short_report, short_slots) = run(4.0);
        let (long_report, long_slots) = run(40.0);
        assert!(long_report.generated_packets > 8 * short_report.generated_packets);
        assert!(
            long_slots <= 4 * short_slots.max(8),
            "peak event slots grew with duration: {short_slots} -> {long_slots}"
        );
    }

    #[test]
    fn delay_histogram_mean_exact_and_p99_within_1us() {
        // Pin the histogram against the exact sorted-vector reference on a
        // pseudo-random sample with a heavy tail.
        let mut hist = DelayHistogram::new();
        let mut reference: Vec<Nanos> = Vec::new();
        let mut state = 0x2545F4914F6CDD1Du64;
        for _ in 0..10_000 {
            // xorshift* samples, mixed scales from sub-µs to ~50 ms.
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let r = state.wrapping_mul(0x2545F4914F6CDD1D);
            let d = match r % 10 {
                0..=5 => r % 2_000_000,           // 0–2 ms bulk
                6..=8 => r % 10_000_000,          // 0–10 ms middle
                _ => 10_000_000 + r % 40_000_000, // tail to 50 ms
            };
            hist.record(d);
            reference.push(d);
        }
        reference.sort_unstable();
        let exact_mean = reference.iter().map(|&d| d as f64).sum::<f64>() / reference.len() as f64;
        assert!(
            (hist.mean_seconds() * NANOS_PER_SEC - exact_mean).abs() < 1e-3,
            "mean must be exact: {} vs {}",
            hist.mean_seconds() * NANOS_PER_SEC,
            exact_mean
        );
        let rank = (reference.len() - 1).min(reference.len() * 99 / 100);
        let exact_p99 = reference[rank] as f64;
        let got = hist.p99_seconds() * NANOS_PER_SEC;
        assert!(
            got >= exact_p99 && got <= exact_p99 + DELAY_BUCKET_NS as f64,
            "p99 {got} not within 1 µs above exact {exact_p99}"
        );
    }

    #[test]
    fn delay_histogram_empty_and_tiny_counts() {
        let hist = DelayHistogram::new();
        assert_eq!(hist.mean_seconds(), 0.0);
        assert_eq!(hist.p99_seconds(), 0.0);

        let mut hist = DelayHistogram::new();
        hist.record(1_500);
        assert!((hist.mean_seconds() - 1_500e-9).abs() < 1e-15);
        // Single sample: p99 is the sample's bucket upper edge.
        assert!((hist.p99_seconds() - 2_000e-9).abs() < 1e-15);
        assert!(hist.p99_seconds() >= hist.mean_seconds());
    }

    #[test]
    fn deterministic_in_seed() {
        let (net, tm, fib) = chain_setup();
        let cfg = SimConfig {
            duration: 5.0,
            seed: 7,
            ..SimConfig::default()
        };
        let a = simulate(&net, &tm, &fib, &cfg).unwrap();
        let b = simulate(&net, &tm, &fib, &cfg).unwrap();
        assert_eq!(a, b);
        let c = simulate(
            &net,
            &tm,
            &fib,
            &SimConfig {
                seed: 8,
                ..cfg.clone()
            },
        )
        .unwrap();
        assert_ne!(a.delivered_packets, c.delivered_packets);
    }

    #[test]
    fn overload_drops_packets() {
        // Offer 15 Mb/s over a 10 Mb/s chain: the first link must drop.
        let mut b = Network::builder("hot");
        let a = b.add_node("a", (0.0, 0.0));
        let c = b.add_node("b", (1.0, 0.0));
        b.add_duplex_link(a, c, 10.0);
        let net = b.build().unwrap();
        let mut tm = TrafficMatrix::new(2);
        tm.set(0.into(), 1.into(), 15.0);
        let obj = Objective::proportional(net.link_count());
        // SPEF would call this infeasible; wire the FIB manually.
        let fib = ForwardingTable::new(
            2,
            vec![NodeId::new(1)],
            vec![vec![vec![(EdgeId::new(0), 1.0)], vec![]]],
        );
        let cfg = SimConfig {
            duration: 10.0,
            seed: 2,
            ..SimConfig::default()
        };
        let report = simulate(&net, &tm, &fib, &cfg).unwrap();
        assert!(report.dropped_packets > 0);
        // Delivered rate is capped at ~10 Mb/s worth of packets.
        assert!(report.mean_link_load_bps[0] <= 10.1e6);
        assert!(report.mean_link_load_bps[0] >= 9.5e6);
        let _ = obj;
    }

    #[test]
    fn probabilistic_split_approximates_ratios() {
        // Diamond with a 30/70 FIB split: measured loads follow.
        let mut b = Network::builder("dia");
        let s = b.add_node("s", (0.0, 0.0));
        let x = b.add_node("x", (1.0, 1.0));
        let y = b.add_node("y", (1.0, -1.0));
        let t = b.add_node("t", (2.0, 0.0));
        b.add_link(s, x, 10.0); // e0
        b.add_link(s, y, 10.0); // e1
        b.add_link(x, t, 10.0); // e2
        b.add_link(y, t, 10.0); // e3
        b.add_link(t, s, 10.0); // e4 return for connectivity
        let net = b.build().unwrap();
        let mut tm = TrafficMatrix::new(4);
        tm.set(0.into(), 3.into(), 4.0);
        let fib = ForwardingTable::new(
            4,
            vec![NodeId::new(3)],
            vec![vec![
                vec![(EdgeId::new(0), 0.3), (EdgeId::new(1), 0.7)],
                vec![(EdgeId::new(2), 1.0)],
                vec![(EdgeId::new(3), 1.0)],
                vec![],
            ]],
        );
        let cfg = SimConfig {
            duration: 60.0,
            warmup: 5.0,
            seed: 3,
            ..SimConfig::default()
        };
        let report = simulate(&net, &tm, &fib, &cfg).unwrap();
        let total = report.mean_link_load_bps[0] + report.mean_link_load_bps[1];
        let share = report.mean_link_load_bps[0] / total;
        assert!((share - 0.3).abs() < 0.03, "measured share {share}");
    }

    #[test]
    fn missing_route_detected() {
        let (net, tm, _) = chain_setup();
        // FIB without an entry at the middle hop.
        let fib = ForwardingTable::new(
            3,
            vec![NodeId::new(2)],
            vec![vec![vec![(EdgeId::new(0), 1.0)], vec![], vec![]]],
        );
        let cfg = SimConfig {
            duration: 1.0,
            seed: 4,
            ..SimConfig::default()
        };
        assert!(matches!(
            simulate(&net, &tm, &fib, &cfg),
            Err(SimError::MissingRoute { .. })
        ));
    }

    #[test]
    fn invalid_configs_rejected() {
        let (net, tm, fib) = chain_setup();
        let bad = |f: fn(&mut SimConfig)| {
            let mut c = SimConfig::default();
            f(&mut c);
            simulate(&net, &tm, &fib, &c)
        };
        assert!(bad(|c| c.duration = 0.0).is_err());
        assert!(bad(|c| c.warmup = 1000.0).is_err());
        assert!(bad(|c| c.packet_size_bits = 0).is_err());
        assert!(bad(|c| c.capacity_to_bps = -1.0).is_err());
        assert!(bad(|c| c.propagation_delay = -1.0).is_err());
        assert!(bad(|c| c.duration = f64::INFINITY).is_err());
        assert!(bad(|c| c.warmup = -1.0).is_err());
        assert!(bad(|c| c.warmup = f64::NAN).is_err());
        assert!(bad(|c| c.warmup = f64::NEG_INFINITY).is_err());
        assert!(bad(|c| c.propagation_delay = f64::NAN).is_err());
        assert!(bad(|c| c.propagation_delay = f64::INFINITY).is_err());
        let empty = TrafficMatrix::new(3);
        assert!(simulate(&net, &empty, &fib, &SimConfig::default()).is_err());
    }

    #[test]
    fn spef_fig4_simulation_stays_under_capacity() {
        // End-to-end: SPEF FIB on Fig. 4 at 4 Mb/s demands over 5 Mb/s
        // links keeps every measured load under capacity (Fig. 11(a)).
        let net = standard::fig4();
        let tm = standard::table4_simple_demands();
        let obj = Objective::proportional(net.link_count());
        let routing = SpefConfig::default()
            .solve(TeInstance::new(&net, &tm, &obj))
            .unwrap();
        let cfg = SimConfig {
            duration: 20.0,
            warmup: 2.0,
            seed: 5,
            ..SimConfig::default()
        };
        let report = simulate(&net, &tm, routing.forwarding_table(), &cfg).unwrap();
        for (e, &load) in report.mean_link_load_bps.iter().enumerate() {
            assert!(load <= 5.05e6, "link {e} at {load} bps");
        }
        assert!(report.delivered_packets > 0);
        // Loss should be negligible at SPEF's operating point.
        assert!(report.dropped_packets * 100 < report.generated_packets);
    }
}
