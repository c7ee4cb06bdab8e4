//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each public library call it makes in a span; the
//! spans stay in memory until the run ends and are then folded into
//! per-layer self times. A layer's self time is its span's duration minus
//! the part of that interval its direct child spans cover, so nested
//! layers are never counted twice.

use std::time::Instant;

/// A layer of the library, named after the module the wrapped call lives
/// in. [`Layer::Op`] is the root span of one benchmark operation (one
/// solve, one query or one simulation); its self time is the benchmark's
/// own glue between library calls.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    Op,
    FrankWolfe,
    ProtocolTolerance,
    EngineDagBuild,
    Nem,
    FibBuild,
    EngineBuildDags,
    EngineDistribute,
    EngineFailLinks,
    EngineRestoreLinks,
    NetsimSimulate,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 11] = [
        Layer::Op,
        Layer::FrankWolfe,
        Layer::ProtocolTolerance,
        Layer::EngineDagBuild,
        Layer::Nem,
        Layer::FibBuild,
        Layer::EngineBuildDags,
        Layer::EngineDistribute,
        Layer::EngineFailLinks,
        Layer::EngineRestoreLinks,
        Layer::NetsimSimulate,
    ];

    /// Metric-name prefix of the layer.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Op => "bench.glue",
            Layer::FrankWolfe => "frank_wolfe",
            Layer::ProtocolTolerance => "protocol.tolerance",
            Layer::EngineDagBuild => "engine.dag_build",
            Layer::Nem => "nem",
            Layer::FibBuild => "fib.build",
            Layer::EngineBuildDags => "engine.build_dags",
            Layer::EngineDistribute => "engine.distribute",
            Layer::EngineFailLinks => "engine.fail_links",
            Layer::EngineRestoreLinks => "engine.restore_links",
            Layer::NetsimSimulate => "netsim.simulate",
        }
    }

    fn index(self) -> usize {
        Layer::ALL
            .iter()
            .position(|&l| l == self)
            .expect("every layer is listed in ALL")
    }
}

/// One recorded span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub layer: Layer,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Records spans in memory. Spans nest strictly: [`Tracer::exit`] closes
/// the given span and any span still open inside it.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, layer: Layer) -> u32 {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` and every span opened inside it that is still
    /// open (an error path may leave children open).
    pub fn exit(&mut self, id: u32) {
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top as usize].end_ns = now;
            if top == id {
                return;
            }
        }
        panic!("span {id} was not open");
    }

    /// Runs `f` inside a span of `layer`.
    pub fn span<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        let id = self.enter(layer);
        let out = f();
        self.exit(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Runs `f` inside a span of `layer` when there is a tracer.
pub fn span_if<T>(tracer: &mut Option<&mut Tracer>, layer: Layer, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(t) => t.span(layer, f),
        None => f(),
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, clipped to the span itself.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Per-layer totals of a trace.
#[derive(Clone, Debug, Default)]
pub struct LayerTotals {
    /// Summed self time per layer, in [`Layer::ALL`] order.
    pub self_ns: [u64; Layer::ALL.len()],
    /// Summed duration of the root spans (the traced operations).
    pub root_ns: u64,
    /// Number of root spans.
    pub roots: u64,
}

impl LayerTotals {
    pub fn from_spans(spans: &[Span]) -> LayerTotals {
        let mut t = LayerTotals::default();
        for (s, self_ns) in spans.iter().zip(self_times(spans)) {
            t.self_ns[s.layer.index()] += self_ns;
            if s.parent.is_none() {
                t.root_ns += s.end_ns - s.start_ns;
                t.roots += 1;
            }
        }
        t
    }

    pub fn self_ns(&self, layer: Layer) -> u64 {
        self.self_ns[layer.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            layer,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_direct_children() {
        let spans = [
            span(Layer::Op, None, 0, 100),
            // Overlapping children count once; a child running past its
            // parent is clipped.
            span(Layer::FrankWolfe, Some(0), 10, 30),
            span(Layer::Nem, Some(0), 20, 40),
            span(Layer::FibBuild, Some(0), 90, 120),
            // A grandchild is charged to its parent only.
            span(Layer::EngineBuildDags, Some(1), 12, 18),
        ];
        assert_eq!(self_times(&spans), vec![60, 14, 20, 30, 6]);
    }

    #[test]
    fn self_times_of_a_tree_sum_to_the_root_duration() {
        let spans = [
            span(Layer::Op, None, 5, 105),
            span(Layer::EngineFailLinks, Some(0), 10, 20),
            span(Layer::EngineBuildDags, Some(0), 20, 60),
            span(Layer::EngineDistribute, Some(0), 60, 90),
            span(Layer::EngineRestoreLinks, Some(0), 95, 100),
        ];
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, 100);
        let t = LayerTotals::from_spans(&spans);
        assert_eq!(t.self_ns(Layer::Op), 15);
        assert_eq!(t.self_ns(Layer::EngineBuildDags), 40);
        assert_eq!((t.root_ns, t.roots), (100, 1));
    }

    #[test]
    fn tracer_nests_spans_under_their_parents() {
        let mut tr = Tracer::new();
        let root = tr.enter(Layer::Op);
        tr.span(Layer::FrankWolfe, || ());
        let nem = tr.enter(Layer::Nem);
        tr.enter(Layer::EngineDagBuild);
        // Closing the root closes the spans left open inside it.
        let _ = nem;
        tr.exit(root);
        let next = tr.enter(Layer::Op);
        tr.exit(next);
        let s = tr.spans();
        assert_eq!(s.len(), 5);
        assert_eq!(s[1].parent, Some(root));
        assert_eq!(s[3].parent, Some(nem));
        assert_eq!(s[4].parent, None);
        assert!(s.iter().all(|x| x.end_ns >= x.start_ns));
    }
}
