//! Network topology: named hosts connected by [`Link`]s, with route lookup.
//!
//! The paper's configurations (Figure 8 for SC99, the Combustion Corridor
//! campaigns in §4) are small graphs — a handful of hosts and WAN hops — so
//! routes are found with breadth-first search over an adjacency list.

use crate::link::{Link, LinkId};
use crate::time::SimDuration;
use crate::units::Bandwidth;
use std::collections::{HashMap, VecDeque};

/// Identifier of a host in a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

/// A path between two hosts, as an ordered list of link hops.
#[derive(Debug, Clone, PartialEq)]
pub struct Route {
    /// Source host.
    pub from: NodeId,
    /// Destination host.
    pub to: NodeId,
    /// Links traversed in order.
    pub links: Vec<LinkId>,
}

/// A small network graph of hosts and links.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    node_names: Vec<String>,
    links: Vec<Link>,
    /// Adjacency: node -> [(neighbor, link)].
    adjacency: HashMap<usize, Vec<(usize, usize)>>,
}

impl Topology {
    /// An empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a host and return its id.
    pub fn add_node(&mut self, name: impl Into<String>) -> NodeId {
        let id = self.node_names.len();
        self.node_names.push(name.into());
        NodeId(id)
    }

    /// Add a bidirectional link between two hosts and return its id.
    ///
    /// Panics if either node id is unknown.
    pub fn add_link(&mut self, a: NodeId, b: NodeId, link: Link) -> LinkId {
        assert!(a.0 < self.node_names.len(), "unknown node {a:?}");
        assert!(b.0 < self.node_names.len(), "unknown node {b:?}");
        let id = self.links.len();
        self.links.push(link);
        self.adjacency.entry(a.0).or_default().push((b.0, id));
        self.adjacency.entry(b.0).or_default().push((a.0, id));
        LinkId(id)
    }

    /// Name of a host.
    pub fn node_name(&self, n: NodeId) -> &str {
        &self.node_names[n.0]
    }

    /// The link with the given id.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0]
    }

    /// All links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Shortest path (fewest hops) between two hosts, if one exists.
    pub fn route(&self, from: NodeId, to: NodeId) -> Option<Route> {
        if from == to {
            return Some(Route {
                from,
                to,
                links: Vec::new(),
            });
        }
        let mut visited = vec![false; self.node_names.len()];
        let mut prev: Vec<Option<(usize, usize)>> = vec![None; self.node_names.len()];
        let mut queue = VecDeque::new();
        visited[from.0] = true;
        queue.push_back(from.0);
        while let Some(cur) = queue.pop_front() {
            if cur == to.0 {
                break;
            }
            if let Some(neighbors) = self.adjacency.get(&cur) {
                for &(next, link) in neighbors {
                    if !visited[next] {
                        visited[next] = true;
                        prev[next] = Some((cur, link));
                        queue.push_back(next);
                    }
                }
            }
        }
        if !visited[to.0] {
            return None;
        }
        let mut links = Vec::new();
        let mut cur = to.0;
        while cur != from.0 {
            let (p, l) = prev[cur].expect("path reconstruction");
            links.push(LinkId(l));
            cur = p;
        }
        links.reverse();
        Some(Route { from, to, links })
    }

    /// The links along a route, in order.
    pub fn route_links<'a>(&'a self, route: &'a Route) -> impl Iterator<Item = &'a Link> + 'a {
        route.links.iter().map(move |id| self.link(*id))
    }

    /// End-to-end round-trip time of a route.
    pub fn route_rtt(&self, route: &Route) -> SimDuration {
        route.links.iter().map(|id| self.link(*id).rtt()).sum()
    }

    /// Bottleneck available bandwidth along a route.
    pub fn route_bottleneck(&self, route: &Route) -> Bandwidth {
        route
            .links
            .iter()
            .map(|id| self.link(*id).available_bandwidth())
            .fold(Bandwidth::from_gbps(1e6), Bandwidth::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkKind;

    fn tiny() -> (Topology, NodeId, NodeId, NodeId) {
        let mut t = Topology::new();
        let lbl = t.add_node("lbl-dpss");
        let pop = t.add_node("nton-pop");
        let snl = t.add_node("snl-cplant");
        t.add_link(
            lbl,
            pop,
            Link::new(
                "LBL->POP gigE",
                LinkKind::Lan,
                Bandwidth::gige(),
                SimDuration::from_micros(200),
            ),
        );
        t.add_link(
            pop,
            snl,
            Link::new(
                "NTON OC-12",
                LinkKind::DedicatedWan,
                Bandwidth::oc12(),
                SimDuration::from_millis(2),
            ),
        );
        (t, lbl, pop, snl)
    }

    #[test]
    fn route_found_in_order() {
        let (t, lbl, _pop, snl) = tiny();
        let r = t.route(lbl, snl).unwrap();
        assert_eq!(r.links.len(), 2);
        assert_eq!(t.link(r.links[0]).name, "LBL->POP gigE");
        assert_eq!(t.link(r.links[1]).name, "NTON OC-12");
    }

    #[test]
    fn route_to_self_is_empty() {
        let (t, lbl, ..) = tiny();
        let r = t.route(lbl, lbl).unwrap();
        assert!(r.links.is_empty());
    }

    #[test]
    fn unreachable_is_none() {
        let (mut t, lbl, ..) = tiny();
        let lonely = t.add_node("island");
        assert!(t.route(lbl, lonely).is_none());
    }

    #[test]
    fn bottleneck_is_oc12_not_gige() {
        let (t, lbl, _pop, snl) = tiny();
        let r = t.route(lbl, snl).unwrap();
        let bn = t.route_bottleneck(&r);
        assert!(bn.mbps() < 650.0 && bn.mbps() > 550.0);
    }

    #[test]
    fn rtt_sums_hops() {
        let (t, lbl, _pop, snl) = tiny();
        let r = t.route(lbl, snl).unwrap();
        assert_eq!(
            t.route_rtt(&r),
            SimDuration::from_micros(400) + SimDuration::from_millis(4)
        );
    }

    #[test]
    #[should_panic]
    fn add_link_with_unknown_node_panics() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        t.add_link(
            a,
            NodeId(99),
            Link::new("bad", LinkKind::Lan, Bandwidth::gige(), SimDuration::ZERO),
        );
    }
}
