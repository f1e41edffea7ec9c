//! Simulated resources: hosts (CPUs) and network links, assembled into a
//! [`Platform`] with a routing function.
//!
//! The kernel uses macroscopic resource models, exactly like the paper's
//! simulation kernel (Section 5): task costs are expressed in flops and a
//! CPU delivers a given power in flop/s; links have a bandwidth (bytes/s)
//! and a latency (seconds). A route between two hosts is the ordered list
//! of links a flow crosses; *shared* links are capacity constraints for the
//! bandwidth-sharing solver while *fat-pipe* links (e.g. a cluster
//! backbone big enough to never be the bottleneck per-flow) only cap each
//! flow's rate without being shared.

use std::collections::HashMap;

/// Index of a host in its [`Platform`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HostId(pub u32);

/// Index of a link in its [`Platform`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkId(pub u32);

/// How concurrent flows see a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Sharing {
    /// Flows share the capacity (max-min fairness).
    #[default]
    Shared,
    /// Every flow gets up to the full capacity (backbone switches).
    FatPipe,
}

/// A compute node: `cores` cores at `speed` flop/s each.
///
/// A task executes at most at the speed of one core; the node as a whole
/// sustains `cores × speed`. Folding several simulated processes onto one
/// core therefore serialises them, which is what Table 2 of the paper
/// measures.
#[derive(Debug, Clone)]
pub struct Host {
    /// Host name (used in platform descriptions and diagnostics).
    pub name: String,
    /// Per-core computing power in flop/s.
    pub speed: f64,
    /// Number of cores.
    pub cores: u32,
}

/// A network link.
#[derive(Debug, Clone)]
pub struct Link {
    /// Link name (used in platform descriptions and diagnostics).
    pub name: String,
    /// Bandwidth in bytes/s.
    pub bandwidth: f64,
    /// Latency in seconds.
    pub latency: f64,
    /// How concurrent flows share the bandwidth.
    pub sharing: Sharing,
}

/// The ordered list of links between two hosts, as produced by a
/// [`Router`].
#[derive(Debug, Clone, Default)]
pub struct RouteSpec {
    /// Links traversed, in order.
    pub links: Vec<LinkId>,
}

/// Provides the link-level route between any two hosts.
///
/// Implementations live both here (explicit table for small platforms) and
/// in `tit-platform` (cluster and multi-site topologies built from the
/// paper's XML descriptions).
pub trait Router: Send + Sync {
    /// Appends the links of the `src → dst` route to `out`.
    fn route(&self, src: HostId, dst: HostId, out: &mut Vec<LinkId>);
}

/// Explicit route table: symmetric by default.
#[derive(Debug, Default)]
pub struct TableRouter {
    routes: HashMap<(u32, u32), Vec<LinkId>>,
}

impl TableRouter {
    /// An empty route table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `links` as the route `src → dst` and its reverse.
    pub fn add(&mut self, src: HostId, dst: HostId, links: Vec<LinkId>) {
        let mut rev = links.clone();
        rev.reverse();
        self.routes.insert((src.0, dst.0), links);
        self.routes.entry((dst.0, src.0)).or_insert(rev);
    }
}

impl Router for TableRouter {
    fn route(&self, src: HostId, dst: HostId, out: &mut Vec<LinkId>) {
        if let Some(r) = self.routes.get(&(src.0, dst.0)) {
            out.extend_from_slice(r);
        }
    }
}

/// Loopback characteristics for messages between processes on one host.
#[derive(Debug, Clone, Copy)]
pub struct Loopback {
    /// Memory-copy bandwidth in bytes/s.
    pub bandwidth: f64,
    /// Intra-node latency in seconds.
    pub latency: f64,
}

impl Default for Loopback {
    fn default() -> Self {
        // Generous memory-copy figures; intra-node messages are cheap
        // compared to the network but not free.
        Loopback { bandwidth: 6e9, latency: 1.5e-6 }
    }
}

/// An immutable simulated platform: hosts, links, routing.
pub struct Platform {
    /// All hosts, indexed by [`HostId`].
    pub hosts: Vec<Host>,
    /// All links, indexed by [`LinkId`].
    pub links: Vec<Link>,
    /// Intra-node communication characteristics.
    pub loopback: Loopback,
    router: Box<dyn Router>,
}

// Summarised on purpose: dumping every host and link drowns the output.
#[allow(clippy::missing_fields_in_debug)]
impl std::fmt::Debug for Platform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Platform")
            .field("hosts", &self.hosts.len())
            .field("links", &self.links.len())
            .finish()
    }
}

impl Platform {
    /// Number of hosts.
    pub fn num_hosts(&self) -> usize {
        self.hosts.len()
    }

    /// The host `id` refers to.
    pub fn host(&self, id: HostId) -> &Host {
        &self.hosts[id.0 as usize]
    }

    /// The link `id` refers to.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0 as usize]
    }

    /// Looks up a host id by name.
    pub fn host_by_name(&self, name: &str) -> Option<HostId> {
        self.hosts.iter().position(|h| h.name == name).map(|i| HostId(i as u32))
    }

    /// Computes the link-level route between two distinct hosts.
    pub fn route_links(&self, src: HostId, dst: HostId) -> Vec<LinkId> {
        let mut out = Vec::new();
        self.router.route(src, dst, &mut out);
        out
    }

    /// Aggregates a route into the quantities the engine needs.
    pub fn resolve_route(&self, src: HostId, dst: HostId) -> Route {
        if src == dst {
            return Route {
                shared: Vec::new(),
                latency: self.loopback.latency,
                bound: self.loopback.bandwidth,
                min_bw: self.loopback.bandwidth,
            };
        }
        let links = self.route_links(src, dst);
        assert!(
            !links.is_empty(),
            "no route between {} and {}",
            self.host(src).name,
            self.host(dst).name
        );
        let mut shared = Vec::new();
        let mut latency = 0.0;
        let mut bound = f64::INFINITY;
        let mut min_bw = f64::INFINITY;
        for l in links {
            let link = self.link(l);
            latency += link.latency;
            min_bw = min_bw.min(link.bandwidth);
            match link.sharing {
                Sharing::Shared => shared.push(l),
                Sharing::FatPipe => bound = bound.min(link.bandwidth),
            }
        }
        Route { shared, latency, bound, min_bw }
    }
}

/// A resolved route: what the engine feeds to the solver.
#[derive(Debug, Clone)]
pub struct Route {
    /// Links whose capacity is shared among flows (solver constraints).
    pub shared: Vec<LinkId>,
    /// Sum of link latencies (before model factors).
    pub latency: f64,
    /// Per-flow rate cap from fat-pipe links (∞ if none).
    pub bound: f64,
    /// Smallest bandwidth on the route (used by the contention-free model).
    pub min_bw: f64,
}

/// Builder for small, explicitly-routed platforms.
///
/// Larger topologies (clusters, multi-site) are built by `tit-platform`
/// through [`PlatformBuilder::build_with_router`].
pub struct PlatformBuilder {
    hosts: Vec<Host>,
    links: Vec<Link>,
    table: TableRouter,
    loopback: Loopback,
}

impl Default for PlatformBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl PlatformBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        PlatformBuilder {
            hosts: Vec::new(),
            links: Vec::new(),
            table: TableRouter::new(),
            loopback: Loopback::default(),
        }
    }

    /// Adds a host with `cores` cores of `speed` flop/s each.
    pub fn add_host(&mut self, name: &str, speed: f64, cores: u32) -> HostId {
        assert!(speed > 0.0 && cores > 0);
        self.hosts.push(Host { name: name.to_string(), speed, cores });
        HostId((self.hosts.len() - 1) as u32)
    }

    /// Adds a shared link.
    pub fn add_link(&mut self, name: &str, bandwidth: f64, latency: f64) -> LinkId {
        self.add_link_with_sharing(name, bandwidth, latency, Sharing::Shared)
    }

    /// Adds a link with an explicit sharing policy.
    pub fn add_link_with_sharing(
        &mut self,
        name: &str,
        bandwidth: f64,
        latency: f64,
        sharing: Sharing,
    ) -> LinkId {
        assert!(bandwidth > 0.0 && latency >= 0.0);
        self.links.push(Link { name: name.to_string(), bandwidth, latency, sharing });
        LinkId((self.links.len() - 1) as u32)
    }

    /// Registers a symmetric route.
    pub fn add_route(&mut self, src: HostId, dst: HostId, links: Vec<LinkId>) {
        self.table.add(src, dst, links);
    }

    /// Finalizes with the explicit route table.
    pub fn build(self) -> Platform {
        Platform {
            hosts: self.hosts,
            links: self.links,
            loopback: self.loopback,
            router: Box::new(self.table),
        }
    }

    /// Finalizes with a custom router (cluster topologies).
    pub fn build_with_router(self, router: Box<dyn Router>) -> Platform {
        Platform { hosts: self.hosts, links: self.links, loopback: self.loopback, router }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_hosts() -> (Platform, HostId, HostId) {
        let mut pb = PlatformBuilder::new();
        let a = pb.add_host("a", 1e9, 1);
        let b = pb.add_host("b", 2e9, 4);
        let l = pb.add_link("l", 1.25e8, 1e-5);
        pb.add_route(a, b, vec![l]);
        (pb.build(), a, b)
    }

    #[test]
    fn host_lookup_by_name() {
        let (p, a, b) = two_hosts();
        assert_eq!(p.host_by_name("a"), Some(a));
        assert_eq!(p.host_by_name("b"), Some(b));
        assert_eq!(p.host_by_name("zz"), None);
    }

    #[test]
    fn symmetric_route_resolution() {
        let (p, a, b) = two_hosts();
        let r = p.resolve_route(a, b);
        assert_eq!(r.shared.len(), 1);
        assert_eq!(r.latency, 1e-5);
        assert_eq!(r.min_bw, 1.25e8);
        assert!(r.bound.is_infinite());
        let rev = p.resolve_route(b, a);
        assert_eq!(rev.shared.len(), 1);
    }

    #[test]
    fn loopback_route() {
        let (p, a, _) = two_hosts();
        let r = p.resolve_route(a, a);
        assert!(r.shared.is_empty());
        assert!(r.latency > 0.0);
        assert_eq!(r.min_bw, p.loopback.bandwidth);
    }

    #[test]
    fn fatpipe_becomes_bound_not_constraint() {
        let mut pb = PlatformBuilder::new();
        let a = pb.add_host("a", 1e9, 1);
        let b = pb.add_host("b", 1e9, 1);
        let up = pb.add_link("up", 1.25e8, 1e-5);
        let bb = pb.add_link_with_sharing("bb", 1.25e9, 1e-5, Sharing::FatPipe);
        let down = pb.add_link("down", 1.25e8, 1e-5);
        pb.add_route(a, b, vec![up, bb, down]);
        let r = pb.build().resolve_route(a, b);
        assert_eq!(r.shared.len(), 2);
        assert_eq!(r.bound, 1.25e9);
        assert!((r.latency - 3e-5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "no route")]
    fn missing_route_panics() {
        let mut pb = PlatformBuilder::new();
        let a = pb.add_host("a", 1e9, 1);
        let b = pb.add_host("b", 1e9, 1);
        let p = pb.build();
        p.resolve_route(a, b);
    }
}
