//! Platform descriptions and their compilation to a [`simkern::Platform`].
//!
//! Mirrors the paper's Figure 5: a `<cluster>` element describes `radical`
//! homogeneous nodes (`power` flop/s) behind a switched interconnect
//! (per-node links of `bw`/`lat`, backbone `bb_bw`/`bb_lat`). Two
//! topologies cover the evaluation platforms:
//!
//! * **Flat** — every node hangs off one backbone switch (the *bordereau*
//!   cluster: 93 nodes on a single 10 G switch). A route crosses two
//!   node links and the switch, i.e. three latencies — the paper's
//!   "divide the ping-pong latency by six" rule (Section 5).
//! * **Cabinets** — nodes grouped in cabinets, two cabinets per switch,
//!   switches connected to a second-level switch by 1 G links (the *gdx*
//!   cluster: 186 nodes, 18 cabinets). Distant nodes cross three switches.
//!
//! Multiple clusters are interconnected by wide-area links
//! (`<interconnect>`, our compact stand-in for SimGrid's `<ASroute>`),
//! which the scattered acquisition mode of Section 4.2 exercises.

use crate::xml::{self, Element, XmlError};
use simkern::resource::{
    HostId, LinkId, PlatformBuilder, Router, Sharing,
};
use simkern::Platform;

/// Interconnect layout inside one cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterTopology {
    /// All nodes behind a single backbone switch.
    Flat,
    /// Nodes grouped by `group_size` behind shared cabinet switches,
    /// cabinet switches linked to a second-level switch.
    Cabinets { group_size: usize },
}

/// One homogeneous cluster (Figure 5's `<cluster>`).
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    pub id: String,
    pub prefix: String,
    pub suffix: String,
    /// Number of nodes.
    pub count: usize,
    /// Per-core power, flop/s.
    pub power: f64,
    /// Cores per node (the paper's nodes are dual-proc dual-core).
    pub cores: u32,
    /// Node link bandwidth, bytes/s.
    pub bw: f64,
    /// Node link latency, seconds.
    pub lat: f64,
    /// Backbone bandwidth, bytes/s.
    pub bb_bw: f64,
    /// Backbone latency, seconds.
    pub bb_lat: f64,
    pub topology: ClusterTopology,
}

impl ClusterSpec {
    /// Host name of node `i` (`prefix` + index + `suffix`).
    pub fn host_name(&self, i: usize) -> String {
        format!("{}{}{}", self.prefix, i, self.suffix)
    }
}

/// A wide-area link between two clusters.
#[derive(Debug, Clone, PartialEq)]
pub struct WanLink {
    /// `id` of the source cluster.
    pub from: String,
    /// `id` of the destination cluster.
    pub to: String,
    pub bw: f64,
    pub lat: f64,
}

/// A full platform: clusters plus wide-area interconnects.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PlatformDesc {
    pub clusters: Vec<ClusterSpec>,
    pub wan: Vec<WanLink>,
}

impl PlatformDesc {
    /// Single-cluster platform.
    pub fn single(cluster: ClusterSpec) -> Self {
        PlatformDesc { clusters: vec![cluster], wan: Vec::new() }
    }

    /// Total number of hosts.
    pub fn num_hosts(&self) -> usize {
        self.clusters.iter().map(|c| c.count).sum()
    }

    /// All host names, cluster by cluster, node order.
    pub fn host_names(&self) -> Vec<String> {
        let mut v = Vec::with_capacity(self.num_hosts());
        for c in &self.clusters {
            for i in 0..c.count {
                v.push(c.host_name(i));
            }
        }
        v
    }

    // ------------------------------------------------------------------
    // XML (Figure 5 format)

    /// Parses a platform file.
    pub fn from_xml_str(text: &str) -> Result<Self, XmlError> {
        let root = xml::parse(text)?;
        if root.name != "platform" {
            return Err(XmlError(format!("expected <platform>, got <{}>", root.name)));
        }
        let mut desc = PlatformDesc::default();
        // Clusters may sit directly under <platform> or inside <AS>.
        let mut stack: Vec<&Element> = vec![&root];
        while let Some(el) = stack.pop() {
            for child in &el.children {
                match child.name.as_str() {
                    "AS" => stack.push(child),
                    "cluster" => desc.clusters.push(parse_cluster(child)?),
                    "interconnect" => desc.wan.push(WanLink {
                        from: child.attr_parse("src")?,
                        to: child.attr_parse("dst")?,
                        bw: child.attr_parse("bw")?,
                        lat: child.attr_parse("lat")?,
                    }),
                    _ => {}
                }
            }
        }
        if desc.clusters.is_empty() {
            return Err(XmlError("platform contains no <cluster>".into()));
        }
        // The self-consistency `build` relies on.
        let known = |id: &String| desc.clusters.iter().any(|c| &c.id == id);
        if let Some(id) = desc.wan.iter().flat_map(|w| [&w.from, &w.to]).find(|id| !known(id)) {
            return Err(XmlError(format!("interconnect references unknown cluster {id:?}")));
        }
        Ok(desc)
    }

    /// Emits the Figure 5 XML form.
    pub fn to_xml_string(&self) -> String {
        let mut as_el = Element::new("AS")
            .with_attr("id", "AS_site")
            .with_attr("routing", "Full");
        for c in &self.clusters {
            let mut el = Element::new("cluster")
                .with_attr("id", &c.id)
                .with_attr("prefix", &c.prefix)
                .with_attr("suffix", &c.suffix)
                .with_attr("radical", format!("0-{}", c.count - 1))
                .with_attr("power", format!("{:E}", c.power))
                .with_attr("bw", format!("{:E}", c.bw))
                .with_attr("lat", format!("{:E}", c.lat))
                .with_attr("bb_bw", format!("{:E}", c.bb_bw))
                .with_attr("bb_lat", format!("{:E}", c.bb_lat))
                .with_attr("cores", c.cores);
            if let ClusterTopology::Cabinets { group_size } = c.topology {
                el = el.with_attr("group_size", group_size);
            }
            as_el = as_el.with_child(el);
        }
        for w in &self.wan {
            as_el = as_el.with_child(
                Element::new("interconnect")
                    .with_attr("src", &w.from)
                    .with_attr("dst", &w.to)
                    .with_attr("bw", format!("{:E}", w.bw))
                    .with_attr("lat", format!("{:E}", w.lat)),
            );
        }
        let root = Element::new("platform").with_attr("version", 3).with_child(as_el);
        format!(
            "<?xml version='1.0'?>\n<!DOCTYPE platform SYSTEM \"simgrid.dtd\">\n{}",
            root.to_xml()
        )
    }

    // ------------------------------------------------------------------
    // Compilation to a runtime platform

    /// Builds the simulation-kernel platform with full routing.
    pub fn build(&self) -> Platform {
        let mut pb = PlatformBuilder::new();
        let mut clusters = Vec::new();
        for c in &self.clusters {
            clusters.push(build_cluster(&mut pb, c));
        }
        // Wide-area links.
        let mut wan = std::collections::HashMap::new();
        for w in &self.wan {
            let a = self
                .clusters
                .iter()
                .position(|c| c.id == w.from)
                // panics: documented contract: the descriptor must be self-consistent
                .unwrap_or_else(|| panic!("interconnect references unknown cluster {}", w.from));
            let b = self
                .clusters
                .iter()
                .position(|c| c.id == w.to)
                // panics: documented contract: the descriptor must be self-consistent
                .unwrap_or_else(|| panic!("interconnect references unknown cluster {}", w.to));
            let l = pb.add_link(&format!("wan-{}-{}", w.from, w.to), w.bw, w.lat);
            wan.insert((a, b), l);
            wan.insert((b, a), l);
        }
        let mut host_cluster = Vec::new();
        for (ci, c) in self.clusters.iter().enumerate() {
            for i in 0..c.count {
                host_cluster.push((ci, i));
            }
        }
        let router = MultiClusterRouter { clusters, wan, host_cluster };
        pb.build_with_router(Box::new(router))
    }
}

fn parse_cluster(el: &Element) -> Result<ClusterSpec, XmlError> {
    let radical: String = el.attr_parse("radical")?;
    let count = parse_radical(&radical)
        .ok_or_else(|| XmlError(format!("bad radical {radical:?} (expected \"0-N\")")))?;
    let cores = match el.attr("cores") {
        Some(_) => el.attr_parse("cores")?,
        None => 1,
    };
    let topology = match el.attr("group_size") {
        Some(_) => match el.attr_parse("group_size")? {
            0 => return Err(XmlError("cluster group_size must be positive".into())),
            group_size => ClusterTopology::Cabinets { group_size },
        },
        None => ClusterTopology::Flat,
    };
    Ok(ClusterSpec {
        id: el.attr_parse("id")?,
        prefix: el.attr_parse("prefix")?,
        suffix: el.attr_parse("suffix")?,
        count,
        power: el.attr_parse("power")?,
        cores,
        bw: el.attr_parse("bw")?,
        lat: el.attr_parse("lat")?,
        bb_bw: el.attr_parse("bb_bw")?,
        bb_lat: el.attr_parse("bb_lat")?,
        topology,
    })
}

/// Parses `"0-3"` → 4 nodes.
fn parse_radical(r: &str) -> Option<usize> {
    let (a, b) = r.split_once('-')?;
    let a: usize = a.trim().parse().ok()?;
    let b: usize = b.trim().parse().ok()?;
    (a == 0 && b >= a).then_some(b + 1)
}

/// Per-cluster link structure after compilation.
struct BuiltCluster {
    /// One NIC link per host (shared both directions).
    host_links: Vec<LinkId>,
    /// Flat: the backbone switch. Cabinets: the second-level switch.
    backbone: LinkId,
    /// Cabinets only.
    groups: Option<GroupInfo>,
}

struct GroupInfo {
    /// Group index of each host.
    group_of: Vec<usize>,
    /// Cabinet switch (fat-pipe) per group.
    switch: Vec<LinkId>,
    /// Shared uplink from cabinet switch to the second level, per group.
    uplink: Vec<LinkId>,
}

fn build_cluster(pb: &mut PlatformBuilder, c: &ClusterSpec) -> BuiltCluster {
    let mut host_links = Vec::with_capacity(c.count);
    for i in 0..c.count {
        pb.add_host(&c.host_name(i), c.power, c.cores);
        host_links.push(pb.add_link(&format!("{}-nic{}", c.id, i), c.bw, c.lat));
    }
    let backbone = pb.add_link_with_sharing(
        &format!("{}-bb", c.id),
        c.bb_bw,
        c.bb_lat,
        Sharing::FatPipe,
    );
    let groups = match c.topology {
        ClusterTopology::Flat => None,
        ClusterTopology::Cabinets { group_size } => {
            assert!(group_size > 0, "cabinet group size must be positive");
            let ngroups = c.count.div_ceil(group_size);
            let mut switch = Vec::with_capacity(ngroups);
            let mut uplink = Vec::with_capacity(ngroups);
            for g in 0..ngroups {
                switch.push(pb.add_link_with_sharing(
                    &format!("{}-sw{}", c.id, g),
                    c.bb_bw,
                    c.bb_lat,
                    Sharing::FatPipe,
                ));
                uplink.push(pb.add_link(&format!("{}-up{}", c.id, g), c.bw, c.lat));
            }
            let group_of = (0..c.count).map(|i| i / group_size).collect();
            Some(GroupInfo { group_of, switch, uplink })
        }
    };
    BuiltCluster { host_links, backbone, groups }
}

/// Routing across the compiled clusters.
struct MultiClusterRouter {
    clusters: Vec<BuiltCluster>,
    wan: std::collections::HashMap<(usize, usize), LinkId>,
    /// Global host index → (cluster index, local index).
    host_cluster: Vec<(usize, usize)>,
}

impl MultiClusterRouter {
    /// Links from a host up to its cluster's top-level switch (inclusive).
    fn ascend(&self, ci: usize, local: usize, out: &mut Vec<LinkId>) {
        let c = &self.clusters[ci];
        out.push(c.host_links[local]);
        if let Some(g) = &c.groups {
            let grp = g.group_of[local];
            out.push(g.switch[grp]);
            out.push(g.uplink[grp]);
        }
        out.push(c.backbone);
    }

    /// Same path, switch-to-host direction.
    fn descend(&self, ci: usize, local: usize, out: &mut Vec<LinkId>) {
        let c = &self.clusters[ci];
        out.push(c.backbone);
        if let Some(g) = &c.groups {
            let grp = g.group_of[local];
            out.push(g.uplink[grp]);
            out.push(g.switch[grp]);
        }
        out.push(c.host_links[local]);
    }
}

impl Router for MultiClusterRouter {
    fn route(&self, src: HostId, dst: HostId, out: &mut Vec<LinkId>) {
        let (ca, la) = self.host_cluster[src.0 as usize];
        let (cb, lb) = self.host_cluster[dst.0 as usize];
        if ca == cb {
            let c = &self.clusters[ca];
            match &c.groups {
                None => {
                    // host — backbone switch — host.
                    out.push(c.host_links[la]);
                    out.push(c.backbone);
                    out.push(c.host_links[lb]);
                }
                Some(g) => {
                    let ga = g.group_of[la];
                    let gb = g.group_of[lb];
                    if ga == gb {
                        // host — cabinet switch — host.
                        out.push(c.host_links[la]);
                        out.push(g.switch[ga]);
                        out.push(c.host_links[lb]);
                    } else {
                        // Three switches: cabinet, second level, cabinet.
                        out.push(c.host_links[la]);
                        out.push(g.switch[ga]);
                        out.push(g.uplink[ga]);
                        out.push(c.backbone);
                        out.push(g.uplink[gb]);
                        out.push(g.switch[gb]);
                        out.push(c.host_links[lb]);
                    }
                }
            }
        } else {
            let wan = *self
                .wan
                .get(&(ca, cb))
                // panics: documented contract: the descriptor must be self-consistent
                .unwrap_or_else(|| panic!("no interconnect between clusters {ca} and {cb}"));
            self.ascend(ca, la, out);
            out.push(wan);
            self.descend(cb, lb, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat_spec(n: usize) -> ClusterSpec {
        ClusterSpec {
            id: "c".into(),
            prefix: "node-".into(),
            suffix: ".site.fr".into(),
            count: n,
            power: 1.17e9,
            cores: 1,
            bw: 1.25e8,
            lat: 16.67e-6,
            bb_bw: 1.25e9,
            bb_lat: 16.67e-6,
            topology: ClusterTopology::Flat,
        }
    }

    fn cab_spec(n: usize, group: usize) -> ClusterSpec {
        ClusterSpec {
            id: "g".into(),
            prefix: "gdx-".into(),
            suffix: ".fr".into(),
            topology: ClusterTopology::Cabinets { group_size: group },
            ..flat_spec(n)
        }
    }

    #[test]
    fn radical_parsing() {
        assert_eq!(parse_radical("0-3"), Some(4));
        assert_eq!(parse_radical("0-0"), Some(1));
        assert_eq!(parse_radical("1-3"), None);
        assert_eq!(parse_radical("x"), None);
    }

    #[test]
    fn flat_cluster_route_has_three_latencies() {
        let p = PlatformDesc::single(flat_spec(4)).build();
        assert_eq!(p.num_hosts(), 4);
        let r = p.resolve_route(HostId(0), HostId(3));
        // Two NIC links shared + fat-pipe backbone.
        assert_eq!(r.shared.len(), 2);
        assert!((r.latency - 3.0 * 16.67e-6).abs() < 1e-12);
        assert_eq!(r.bound, 1.25e9);
    }

    #[test]
    fn cabinet_cluster_same_and_cross_group_routes() {
        let p = PlatformDesc::single(cab_spec(8, 4)).build();
        // Same group (hosts 0 and 3): 2 NIC + cabinet switch.
        let same = p.resolve_route(HostId(0), HostId(3));
        assert_eq!(same.shared.len(), 2);
        assert!((same.latency - 3.0 * 16.67e-6).abs() < 1e-12);
        // Cross group (hosts 0 and 7): 2 NIC + 2 uplinks shared, 3 switches.
        let cross = p.resolve_route(HostId(0), HostId(7));
        assert_eq!(cross.shared.len(), 4);
        assert!((cross.latency - 7.0 * 16.67e-6).abs() < 1e-11);
    }

    #[test]
    fn two_site_route_crosses_wan() {
        let mut desc = PlatformDesc::single(flat_spec(2));
        desc.clusters.push(ClusterSpec { id: "g".into(), prefix: "g-".into(), ..flat_spec(2) });
        desc.wan.push(WanLink { from: "c".into(), to: "g".into(), bw: 1.25e9, lat: 5e-3 });
        let p = desc.build();
        assert_eq!(p.num_hosts(), 4);
        let r = p.resolve_route(HostId(0), HostId(3));
        // 2 NIC links + wan shared; both backbones fat-pipe.
        assert_eq!(r.shared.len(), 3);
        assert!(r.latency > 5e-3, "wan latency dominates: {}", r.latency);
        // Intra-site still cheap.
        let intra = p.resolve_route(HostId(2), HostId(3));
        assert!(intra.latency < 1e-4);
    }

    #[test]
    fn host_names_follow_prefix_suffix() {
        let desc = PlatformDesc::single(flat_spec(3));
        let names = desc.host_names();
        assert_eq!(names, vec!["node-0.site.fr", "node-1.site.fr", "node-2.site.fr"]);
        let p = desc.build();
        assert_eq!(p.host_by_name("node-1.site.fr"), Some(HostId(1)));
    }

    #[test]
    fn xml_roundtrip() {
        let mut desc = PlatformDesc::single(flat_spec(4));
        desc.clusters.push(cab_spec(8, 4));
        desc.wan.push(WanLink { from: "c".into(), to: "g".into(), bw: 1.25e9, lat: 5e-3 });
        let text = desc.to_xml_string();
        let back = PlatformDesc::from_xml_str(&text).unwrap();
        assert_eq!(back, desc);
    }

    #[test]
    fn parses_paper_figure_5() {
        let doc = r#"<?xml version='1.0'?>
<!DOCTYPE platform SYSTEM "simgrid.dtd">
<platform version="3">
<AS id="AS_mysite" routing="Full">
<cluster id="AS_mycluster"
prefix="mycluster-" suffix=".mysite.fr"
radical="0-3" power="1.17E9"
bw="1.25E8" lat="16.67E-6"
bb_bw="1.25E9" bb_lat="16.67E-6"/>
</AS>
</platform>"#;
        let desc = PlatformDesc::from_xml_str(doc).unwrap();
        assert_eq!(desc.clusters.len(), 1);
        let c = &desc.clusters[0];
        assert_eq!(c.count, 4);
        assert_eq!(c.power, 1.17e9);
        assert_eq!(c.host_name(0), "mycluster-0.mysite.fr");
        let p = desc.build();
        assert_eq!(p.num_hosts(), 4);
    }

    /// What `build` would panic on is a parse error instead.
    #[test]
    fn inconsistent_files_are_refused_at_parse_time() {
        let cluster = r#"<cluster id="c" prefix="n" suffix="" radical="0-1"
            power="1E9" bw="1E8" lat="1E-5" bb_bw="1E9" bb_lat="1E-5""#;
        let link = r#"<interconnect src="c" dst="moon" bw="1E9" lat="1E-3"/>"#;
        let wan = format!("<platform>{cluster}/>{link}</platform>");
        let e = PlatformDesc::from_xml_str(&wan).unwrap_err();
        assert!(e.0.contains("unknown cluster \"moon\""), "{e}");
        let cabinets = format!(r#"<platform>{cluster} group_size="0"/></platform>"#);
        let e = PlatformDesc::from_xml_str(&cabinets).unwrap_err();
        assert!(e.0.contains("group_size must be positive"), "{e}");
    }

    #[test]
    fn cores_default_to_one() {
        let doc = r#"<platform><cluster id="c" prefix="n" suffix="" radical="0-1"
            power="1E9" bw="1E8" lat="1E-5" bb_bw="1E9" bb_lat="1E-5"/></platform>"#;
        let desc = PlatformDesc::from_xml_str(doc).unwrap();
        assert_eq!(desc.clusters[0].cores, 1);
    }
}
