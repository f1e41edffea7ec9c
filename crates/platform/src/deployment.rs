//! Deployment descriptions: which host runs each MPI process.
//!
//! Mirrors the paper's Figure 6: a list of `<process host=... function=
//! "pN">` entries, optionally carrying the per-process trace file as an
//! `<argument>` (Section 5's per-process trace layout). Programmatic
//! builders cover the acquisition modes of Section 4.2: *regular* (one
//! process per node), *folded* (several processes per node) and
//! *scattered* (nodes from several sites).

use crate::xml::{self, Element, XmlError};
use simkern::resource::HostId;
use simkern::Platform;

/// One process placement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeployEntry {
    /// Host name in the platform description.
    pub host: String,
    /// Function name; the paper uses `p<rank>`.
    pub function: String,
    /// Extra arguments (e.g. the per-process trace file).
    pub args: Vec<String>,
}

/// A full deployment: entry `i` places MPI rank `i`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Deployment {
    pub entries: Vec<DeployEntry>,
}

impl Deployment {
    /// Number of processes.
    pub fn num_processes(&self) -> usize {
        self.entries.len()
    }

    /// Places `nproc` ranks on `hosts`, one per host, cycling when there
    /// are more ranks than hosts (regular mode when `nproc <= hosts`).
    pub fn round_robin(hosts: &[String], nproc: usize) -> Self {
        assert!(!hosts.is_empty());
        Deployment {
            entries: (0..nproc)
                .map(|r| DeployEntry {
                    host: hosts[r % hosts.len()].clone(),
                    function: format!("p{r}"),
                    args: Vec::new(),
                })
                .collect(),
        }
    }

    /// Folding mode: `fold` consecutive ranks per host (block mapping).
    /// `F-8` for 64 ranks uses 8 hosts with ranks 0..8 on the first.
    pub fn folded(hosts: &[String], nproc: usize, fold: usize) -> Self {
        assert!(fold > 0);
        let needed = nproc.div_ceil(fold);
        assert!(
            hosts.len() >= needed,
            "folding {nproc} ranks by {fold} needs {needed} hosts, have {}",
            hosts.len()
        );
        Deployment {
            entries: (0..nproc)
                .map(|r| DeployEntry {
                    host: hosts[r / fold].clone(),
                    function: format!("p{r}"),
                    args: Vec::new(),
                })
                .collect(),
        }
    }

    /// Scattering mode: ranks split in contiguous blocks across sites
    /// (each site contributes `nproc / sites.len()` ranks, remainder to
    /// the first sites), one rank per host inside a site.
    pub fn scattered(sites: &[Vec<String>], nproc: usize) -> Self {
        assert!(!sites.is_empty());
        let nsites = sites.len();
        let base = nproc / nsites;
        let extra = nproc % nsites;
        let mut entries = Vec::with_capacity(nproc);
        let mut rank = 0;
        for (si, site) in sites.iter().enumerate() {
            let quota = base + usize::from(si < extra);
            assert!(
                site.len() >= quota,
                "site {si} has {} hosts but needs {quota}",
                site.len()
            );
            for host in &site[..quota] {
                entries.push(DeployEntry {
                    host: host.clone(),
                    function: format!("p{rank}"),
                    args: Vec::new(),
                });
                rank += 1;
            }
        }
        Deployment { entries }
    }

    /// Scattering and folding combined (`SF-(u,v)` in Table 2): blocks
    /// across `sites`, `fold` ranks per node inside each site.
    pub fn scattered_folded(sites: &[Vec<String>], nproc: usize, fold: usize) -> Self {
        assert!(!sites.is_empty() && fold > 0);
        let nsites = sites.len();
        let base = nproc / nsites;
        let extra = nproc % nsites;
        let mut entries = Vec::with_capacity(nproc);
        let mut rank = 0;
        for (si, site) in sites.iter().enumerate() {
            let quota = base + usize::from(si < extra);
            let nodes = quota.div_ceil(fold);
            assert!(
                site.len() >= nodes,
                "site {si} has {} hosts but needs {nodes} for fold {fold}",
                site.len()
            );
            for i in 0..quota {
                entries.push(DeployEntry {
                    host: site[i / fold].clone(),
                    function: format!("p{rank}"),
                    args: Vec::new(),
                });
                rank += 1;
            }
        }
        Deployment { entries }
    }

    /// Attaches the conventional per-process trace file argument to every
    /// entry (`SG_process<rank>.trace`).
    pub fn with_trace_args(mut self) -> Self {
        for (r, e) in self.entries.iter_mut().enumerate() {
            e.args = vec![format!("SG_process{r}.trace")];
        }
        self
    }

    /// Resolves host names against a built platform, rank-ordered; the
    /// error names the first host the platform lacks.
    pub fn resolve(&self, platform: &Platform) -> Result<Vec<HostId>, XmlError> {
        let id = |host: &String| {
            let unknown = || XmlError(format!("deployment host {host:?} is not in the platform"));
            platform.host_by_name(host).ok_or_else(unknown)
        };
        self.entries.iter().map(|e| id(&e.host)).collect()
    }

    /// [`Deployment::resolve`] for a deployment built from the
    /// platform's own host names. Empty when a host is missing: the
    /// replay and the analyzer refuse a deployment that places no rank.
    pub fn host_ids(&self, platform: &Platform) -> Vec<HostId> {
        self.resolve(platform).unwrap_or_default()
    }

    /// Number of distinct hosts used.
    pub fn distinct_hosts(&self) -> usize {
        let mut names: Vec<&str> = self.entries.iter().map(|e| e.host.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        names.len()
    }

    // ------------------------------------------------------------------
    // XML (Figure 6 format)

    /// Parses a deployment file.
    pub fn from_xml_str(text: &str) -> Result<Self, XmlError> {
        let root = xml::parse(text)?;
        if root.name != "platform" {
            return Err(XmlError(format!("expected <platform>, got <{}>", root.name)));
        }
        let mut entries = Vec::new();
        for p in root.children_named("process") {
            let args = p
                .children_named("argument")
                .map(|a| a.attr_parse::<String>("value"))
                .collect::<Result<Vec<_>, _>>()?;
            entries.push(DeployEntry {
                host: p.attr_parse("host")?,
                function: p.attr_parse("function")?,
                args,
            });
        }
        if entries.is_empty() {
            return Err(XmlError("deployment contains no <process>".into()));
        }
        // Order by rank encoded in the function name when possible.
        entries.sort_by_key(|e| {
            e.function.strip_prefix('p').and_then(|s| s.parse::<usize>().ok()).unwrap_or(usize::MAX)
        });
        Ok(Deployment { entries })
    }

    /// Emits the Figure 6 XML form.
    pub fn to_xml_string(&self) -> String {
        let mut root = Element::new("platform").with_attr("version", 3);
        for e in &self.entries {
            let mut p = Element::new("process")
                .with_attr("host", &e.host)
                .with_attr("function", &e.function);
            for a in &e.args {
                p = p.with_child(Element::new("argument").with_attr("value", a));
            }
            root = root.with_child(p);
        }
        format!(
            "<?xml version='1.0'?>\n<!DOCTYPE platform SYSTEM \"simgrid.dtd\">\n{}",
            root.to_xml()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hosts(prefix: &str, n: usize) -> Vec<String> {
        (0..n).map(|i| format!("{prefix}{i}")).collect()
    }

    #[test]
    fn round_robin_regular_mode() {
        let d = Deployment::round_robin(&hosts("h", 4), 4);
        assert_eq!(d.num_processes(), 4);
        assert_eq!(d.entries[2].host, "h2");
        assert_eq!(d.entries[2].function, "p2");
        assert_eq!(d.distinct_hosts(), 4);
    }

    #[test]
    fn folded_blocks_consecutive_ranks() {
        let d = Deployment::folded(&hosts("h", 8), 16, 4);
        assert_eq!(d.distinct_hosts(), 4);
        assert_eq!(d.entries[0].host, "h0");
        assert_eq!(d.entries[3].host, "h0");
        assert_eq!(d.entries[4].host, "h1");
        assert_eq!(d.entries[15].host, "h3");
    }

    #[test]
    #[should_panic(expected = "needs")]
    fn folded_rejects_too_few_hosts() {
        Deployment::folded(&hosts("h", 1), 16, 4);
    }

    #[test]
    fn scattered_splits_across_sites() {
        let sites = vec![hosts("a", 10), hosts("b", 10)];
        let d = Deployment::scattered(&sites, 8);
        assert_eq!(d.entries[0].host, "a0");
        assert_eq!(d.entries[3].host, "a3");
        assert_eq!(d.entries[4].host, "b0");
        assert_eq!(d.entries[7].host, "b3");
    }

    #[test]
    fn scattered_folded_combines_both() {
        let sites = vec![hosts("a", 4), hosts("b", 4)];
        let d = Deployment::scattered_folded(&sites, 16, 4);
        assert_eq!(d.distinct_hosts(), 4);
        assert_eq!(d.entries[0].host, "a0");
        assert_eq!(d.entries[7].host, "a1");
        assert_eq!(d.entries[8].host, "b0");
        assert_eq!(d.entries[15].host, "b1");
    }

    #[test]
    fn xml_roundtrip_with_trace_args() {
        let d = Deployment::round_robin(&hosts("mycluster-", 4), 4).with_trace_args();
        let text = d.to_xml_string();
        assert!(text.contains("function=\"p0\""));
        assert!(text.contains("SG_process1.trace"));
        let back = Deployment::from_xml_str(&text).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn parses_paper_figure_6() {
        let doc = r#"<?xml version='1.0'?>
<!DOCTYPE platform SYSTEM "simgrid.dtd">
<platform version="3">
<process host="mycluster-0.mysite.fr" function="p0"/>
<process host="mycluster-1.mysite.fr" function="p1"/>
<process host="mycluster-2.mysite.fr" function="p2"/>
<process host="mycluster-3.mysite.fr" function="p3"/>
</platform>"#;
        let d = Deployment::from_xml_str(doc).unwrap();
        assert_eq!(d.num_processes(), 4);
        assert_eq!(d.entries[3].host, "mycluster-3.mysite.fr");
    }

    #[test]
    fn host_ids_resolve_against_platform() {
        use crate::desc::{ClusterSpec, ClusterTopology, PlatformDesc};
        let spec = ClusterSpec {
            id: "c".into(),
            prefix: "mycluster-".into(),
            suffix: ".mysite.fr".into(),
            count: 4,
            power: 1.17e9,
            cores: 1,
            bw: 1.25e8,
            lat: 16.67e-6,
            bb_bw: 1.25e9,
            bb_lat: 16.67e-6,
            topology: ClusterTopology::Flat,
        };
        let desc = PlatformDesc::single(spec.clone());
        let platform = desc.build();
        let d = Deployment::round_robin(&desc.host_names(), 4);
        let ids = d.host_ids(&platform);
        assert_eq!(ids.len(), 4);
        assert_eq!(ids[0].0, 0);
        assert_eq!(ids[3].0, 3);

        // A host the platform lacks is a typed error, not a panic.
        let stray = Deployment::round_robin(&["mycluster-9.mysite.fr".to_string()], 2);
        let err = stray.resolve(&platform).unwrap_err();
        assert_eq!(err.0, "deployment host \"mycluster-9.mysite.fr\" is not in the platform");
        assert!(stray.host_ids(&platform).is_empty());
    }
}
