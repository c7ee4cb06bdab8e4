//! Plain-text import/export of networks and traffic matrices.
//!
//! A deliberately simple line format (no extra dependencies) so topologies
//! and demand sets can be exchanged with other tools, diffed and
//! version-controlled:
//!
//! ```text
//! network Abilene
//! node Seattle -122.3 47.6
//! node Sunnyvale -122.0 37.4
//! link Seattle Sunnyvale 10
//! demand Seattle Sunnyvale 0.35
//! # comments and blank lines are ignored
//! ```
//!
//! `link` lines add a single directed link; use two lines for duplex
//! circuits. `demand` lines are optional and populate the returned traffic
//! matrix.

use std::fmt::Write as _;

use spef_graph::NodeId;

use crate::{Network, TopologyError, TrafficMatrix};

/// Serialises a network (and optionally a demand matrix) to the text
/// format.
///
/// # Panics
///
/// Panics if `traffic` is present and sized differently from `network`.
pub fn to_text(network: &Network, traffic: Option<&TrafficMatrix>) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "network {}", network.name());
    for node in network.graph().nodes() {
        let (x, y) = network.coord(node);
        let _ = writeln!(out, "node {} {} {}", network.node_name(node), x, y);
    }
    for (e, u, v) in network.graph().edges() {
        let _ = writeln!(
            out,
            "link {} {} {}",
            network.node_name(u),
            network.node_name(v),
            network.capacity(e)
        );
    }
    if let Some(tm) = traffic {
        assert_eq!(tm.node_count(), network.node_count(), "size mismatch");
        for (s, t, d) in tm.pairs() {
            let _ = writeln!(
                out,
                "demand {} {} {}",
                network.node_name(s),
                network.node_name(t),
                d
            );
        }
    }
    out
}

/// Parses the text format back into a network and its demand matrix
/// (empty when the input has no `demand` lines).
///
/// # Errors
///
/// Returns [`TopologyError::UnknownNode`] for references to undeclared
/// nodes and [`TopologyError::InvalidCapacity`] /
/// [`TopologyError::NotStronglyConnected`] from network validation.
/// Lines that do not parse, self-loop links, self-demands and demands
/// that are negative, NaN or infinite are reported as
/// [`TopologyError::MalformedLine`] naming the line.
pub fn from_text(input: &str) -> Result<(Network, TrafficMatrix), TopologyError> {
    let mut name = "unnamed".to_string();
    let mut nodes: Vec<(String, f64, f64)> = Vec::new();
    let mut links: Vec<(String, String, f64)> = Vec::new();
    let mut demands: Vec<(String, String, f64)> = Vec::new();

    for raw in input.lines() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("network") => {
                name = parts.collect::<Vec<_>>().join(" ");
            }
            Some("node") => {
                let n = parts
                    .next()
                    .ok_or_else(|| malformed(line, "missing name"))?;
                let x: f64 = parse_num(parts.next(), line)?;
                let y: f64 = parse_num(parts.next(), line)?;
                nodes.push((n.to_string(), x, y));
            }
            Some("link") => {
                let (u, v) = endpoints(&mut parts, line)?;
                let c: f64 = parse_num(parts.next(), line)?;
                links.push((u.to_string(), v.to_string(), c));
            }
            Some("demand") => {
                let (s, t) = endpoints(&mut parts, line)?;
                let d: f64 = parse_num(parts.next(), line)?;
                if !(d.is_finite() && d >= 0.0) {
                    return Err(malformed(line, "demand must be finite and non-negative"));
                }
                demands.push((s.to_string(), t.to_string(), d));
            }
            _ => return Err(malformed(line, "unknown keyword")),
        }
    }

    let mut builder = Network::builder(name);
    let mut ids: Vec<(String, NodeId)> = Vec::new();
    for (n, x, y) in nodes {
        let id = builder.add_node(n.clone(), (x, y));
        ids.push((n, id));
    }
    let lookup = |name: &str| -> Result<NodeId, TopologyError> {
        ids.iter()
            .find(|(n, _)| n == name)
            .map(|&(_, id)| id)
            .ok_or_else(|| TopologyError::UnknownNode(name.to_string()))
    };
    for (u, v, c) in links {
        builder.add_link(lookup(&u)?, lookup(&v)?, c);
    }
    let network = builder.build()?;
    let mut tm = TrafficMatrix::new(network.node_count());
    for (s, t, d) in demands {
        tm.set(lookup(&s)?, lookup(&t)?, d);
    }
    Ok((network, tm))
}

fn malformed(line: &str, reason: &str) -> TopologyError {
    TopologyError::MalformedLine(format!("{line:?}: {reason}"))
}

fn parse_num(token: Option<&str>, line: &str) -> Result<f64, TopologyError> {
    token
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| malformed(line, "missing or invalid number"))
}

/// The two distinct node names of a `link` or `demand` line.
fn endpoints<'a>(
    parts: &mut impl Iterator<Item = &'a str>,
    line: &str,
) -> Result<(&'a str, &'a str), TopologyError> {
    let u = parts
        .next()
        .ok_or_else(|| malformed(line, "missing node"))?;
    let v = parts
        .next()
        .ok_or_else(|| malformed(line, "missing node"))?;
    if u == v {
        return Err(malformed(line, "both ends are the same node"));
    }
    Ok((u, v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::standard;

    #[test]
    fn roundtrips_abilene_with_demands() {
        let net = standard::abilene();
        let tm = TrafficMatrix::fortz_thorup(&net, 3);
        let text = to_text(&net, Some(&tm));
        let (net2, tm2) = from_text(&text).unwrap();
        assert_eq!(net, net2);
        // Demands survive within float-formatting precision.
        assert_eq!(tm.pair_count(), tm2.pair_count());
        for (s, t, d) in tm.pairs() {
            assert!((tm2.get(s, t) - d).abs() < 1e-12 * d.max(1.0));
        }
    }

    #[test]
    fn roundtrips_all_standard_networks() {
        for net in [
            standard::fig1(),
            standard::fig4(),
            standard::abilene(),
            standard::cernet2(),
        ] {
            let text = to_text(&net, None);
            let (net2, tm2) = from_text(&text).unwrap();
            assert_eq!(net, net2, "{}", net.name());
            assert_eq!(tm2.pair_count(), 0);
        }
    }

    #[test]
    fn parses_hand_written_input() {
        let text = "\
# a triangle
network tri
node a 0 0
node b 1 0
node c 0 1
link a b 2.5
link b a 2.5
link b c 1
link c b 1
link c a 1
link a c 1
demand a c 0.4
";
        let (net, tm) = from_text(text).unwrap();
        assert_eq!(net.name(), "tri");
        assert_eq!(net.node_count(), 3);
        assert_eq!(net.link_count(), 6);
        assert_eq!(tm.get(0.into(), 2.into()), 0.4);
    }

    #[test]
    fn rejects_unknown_nodes_and_garbage() {
        assert!(from_text("link a b 1").is_err());
        assert!(from_text("node a 0 0\nfrobnicate").is_err());
        assert!(from_text("node a 0 0\nnode b 1 1\nlink a b squid").is_err());
        // Lines the builders would panic on are errors naming the line.
        let net = "node a 0 0\nnode b 1 1\nlink a b 1\nlink b a 1\n";
        for bad in [
            "link a a 1",
            "demand a a 1",
            "demand a b -1",
            "demand a b NaN",
            "demand a b inf",
        ] {
            match from_text(&format!("{net}{bad}")) {
                Err(TopologyError::MalformedLine(what)) => {
                    assert!(what.contains(bad), "{bad}: {what}")
                }
                other => panic!("{bad}: expected a malformed-line error, got {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_invalid_networks() {
        // One-way link: not strongly connected.
        let text = "node a 0 0\nnode b 1 1\nlink a b 1";
        assert!(matches!(
            from_text(text),
            Err(TopologyError::NotStronglyConnected)
        ));
    }
}
