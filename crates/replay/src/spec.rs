//! One replay spec: the model options `tit-replay`, `tit-analyze` and
//! `tit-serve` share. Each option has one value parser, whose errors
//! leave the option's name to the surface that spells it (`--network`,
//! `"network"`); [`Spec::build`] returns the platform, the per-rank
//! hosts and the [`ReplayConfig`], with typed errors and never a panic.

use crate::collectives::CollectiveAlgo;
use crate::simulator::ReplayConfig;
use simkern::resource::HostId;
use simkern::{KernelMode, NetworkConfig, Platform};
use tit_core::Budget;
use tit_platform::{presets, ClusterSpec, Deployment, PlatformDesc};

/// Where the platform comes from.
#[derive(Debug, Clone)]
pub enum PlatformSource {
    /// A single-core cluster preset, sized to [`Spec::nodes`] when built.
    Preset(ClusterSpec),
    /// A parsed platform file (`tit-replay --platform`).
    File(PlatformDesc),
}

impl Default for PlatformSource {
    fn default() -> Self {
        PlatformSource::Preset(presets::bordereau_one_core(0))
    }
}

/// Which host each rank runs on.
#[derive(Debug, Clone, Default)]
pub enum Placement {
    /// Rank `r` on host `r mod hosts`.
    #[default]
    RoundRobin,
    /// A parsed deployment file (`tit-replay --deploy`).
    Deployment(Deployment),
    /// Rank `r` on node `map[r]` (a replay request's `remap`).
    Remap(Vec<usize>),
}

/// A refused option value, or a placement the platform cannot host.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(String);

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for SpecError {}

/// The model options of one replay. The default is the paper's model:
/// bordereau with one node per rank, round-robin, [`ReplayConfig`]'s
/// defaults and no wall budget.
#[derive(Debug, Clone, Default)]
pub struct Spec {
    /// The platform.
    pub platform: PlatformSource,
    /// Nodes of a preset platform; `None` is one per rank.
    pub nodes: Option<usize>,
    /// Rank placement.
    pub placement: Placement,
    /// Network model, collective decomposition and kernel.
    pub config: ReplayConfig,
    /// Wall-clock budget.
    pub budget: Budget,
}

/// A named option's value names, and what each selects.
type Names<T, const N: usize> = [(&'static str, T); N];

const PRESETS: Names<fn(usize) -> ClusterSpec, 2> =
    [("bordereau", presets::bordereau_one_core), ("gdx", presets::gdx_one_core)];
const NETWORKS: Names<fn() -> NetworkConfig, 3> = [
    ("mpi", NetworkConfig::mpi_cluster),
    ("flow", NetworkConfig::default),
    ("constant", NetworkConfig::constant),
];
const COLLECTIVES: Names<CollectiveAlgo, 2> =
    [("binomial", CollectiveAlgo::Binomial), ("flat", CollectiveAlgo::Flat)];
const KERNELS: Names<KernelMode, 2> =
    [("incremental", KernelMode::Incremental), ("reference", KernelMode::Reference)];

/// The value `name` selects in `table`.
fn pick<T: Copy>(table: &[(&str, T)], name: &str) -> Result<T, SpecError> {
    let names: Vec<&str> = table.iter().map(|e| e.0).collect();
    let unknown = || SpecError(format!("unknown value {name:?} (expected {})", names.join("|")));
    table.iter().find(|e| e.0 == name).map(|e| e.1).ok_or_else(unknown)
}

impl Spec {
    /// Sets `option` to the value `name`: `platform` (a preset:
    /// `bordereau`, `gdx`), `network` (`mpi`, `flow`, `constant`),
    /// `collectives` (`binomial`, `flat`) or `kernel` (`incremental`,
    /// `reference`).
    pub fn set(&mut self, option: &str, name: &str) -> Result<(), SpecError> {
        match option {
            "platform" => self.platform = PlatformSource::Preset(pick(&PRESETS, name)?(0)),
            "network" => self.config.network = pick(&NETWORKS, name)?(),
            "collectives" => self.config.algo = pick(&COLLECTIVES, name)?,
            "kernel" => self.config.kernel = pick(&KERNELS, name)?,
            _ => return Err(SpecError(format!("no option {option:?}"))),
        }
        Ok(())
    }

    /// Sets the nodes of a preset platform: at least 1, and at most
    /// `max` when the surface caps it.
    pub fn set_nodes(&mut self, nodes: u64, max: Option<usize>) -> Result<(), SpecError> {
        if nodes == 0 || max.is_some_and(|m| nodes as usize > m) {
            let range = max.map_or("at least 1".into(), |m| format!("in 1..={m}"));
            return Err(SpecError(format!("must be {range}")));
        }
        self.nodes = Some(nodes as usize);
        Ok(())
    }

    /// Sets the wall budget: a finite, non-negative number of seconds. A
    /// budget longer than the clock can hold never expires.
    pub fn set_max_wall(&mut self, secs: f64) -> Result<(), SpecError> {
        if !(secs.is_finite() && secs >= 0.0) {
            let e = format!("must be a finite, non-negative number of seconds, not {secs}");
            return Err(SpecError(e));
        }
        self.budget = Budget::from_secs_f64(secs);
        Ok(())
    }

    /// The platform, the host of each of `np` ranks and the replay
    /// configuration. A platform without hosts, a deployment host the
    /// platform lacks and a remap past its nodes are errors; a placement
    /// of another number of ranks than `np` is left to the replay, which
    /// refuses it as [`ReplayError::Deployment`](crate::ReplayError).
    pub fn build(&self, np: usize) -> Result<(Platform, Vec<HostId>, ReplayConfig), SpecError> {
        let desc = match &self.platform {
            PlatformSource::Preset(c) => {
                PlatformDesc::single(ClusterSpec { count: self.nodes.unwrap_or(np), ..c.clone() })
            }
            PlatformSource::File(d) => d.clone(),
        };
        let platform = desc.build();
        let n = platform.num_hosts();
        let hosts = match &self.placement {
            _ if n == 0 => return Err(SpecError("the platform has no hosts".into())),
            Placement::RoundRobin => {
                Deployment::round_robin(&desc.host_names(), np).host_ids(&platform)
            }
            Placement::Deployment(d) => d.resolve(&platform).map_err(|e| SpecError(e.0))?,
            Placement::Remap(map) if map.iter().all(|&i| i < n) => {
                map.iter().map(|&i| HostId(i as u32)).collect()
            }
            Placement::Remap(_) => {
                return Err(SpecError(format!("remap goes past the {n} node(s)")));
            }
        };
        Ok((platform, hosts, self.config.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_the_paper_model() {
        let (platform, hosts, cfg) = Spec::default().build(3).unwrap();
        assert_eq!(platform.num_hosts(), 3);
        assert_eq!(hosts, vec![HostId(0), HostId(1), HostId(2)]);
        assert_eq!(cfg.algo, CollectiveAlgo::Binomial);
        assert_eq!(cfg.kernel, KernelMode::Incremental);
        assert_eq!(cfg.network.tcp_gamma, NetworkConfig::mpi_cluster().tcp_gamma);
        assert!(!cfg.kernel_profile);
        assert!(Spec::default().budget.is_unlimited());
    }

    #[test]
    fn every_value_name_selects_its_model() {
        let mut s = Spec::default();
        s.set("network", "flow").unwrap();
        assert!(s.config.network.contention && s.config.network.tcp_gamma.is_none());
        s.set("network", "constant").unwrap();
        assert!(!s.config.network.contention);
        s.set("network", "mpi").unwrap();
        assert!(s.config.network.tcp_gamma.is_some());
        s.set("collectives", "flat").unwrap();
        assert_eq!(s.config.algo, CollectiveAlgo::Flat);
        s.set("kernel", "reference").unwrap();
        assert_eq!(s.config.kernel, KernelMode::Reference);
        s.set("platform", "gdx").unwrap();
        s.set_nodes(5, None).unwrap();
        let (platform, hosts, _) = s.build(2).unwrap();
        assert_eq!(platform.num_hosts(), 5);
        assert_eq!(hosts.len(), 2);
        assert!(matches!(&s.platform, PlatformSource::Preset(c) if c.id == "gdx"));
    }

    #[test]
    fn refused_values_name_the_accepted_ones() {
        let mut s = Spec::default();
        let e = s.set("network", "netwrok").unwrap_err().to_string();
        assert_eq!(e, "unknown value \"netwrok\" (expected mpi|flow|constant)");
        assert!(s.set("collectives", "ring").is_err());
        assert!(s.set("kernel", "fast").is_err());
        assert!(s.set("platform", "moon").is_err());
        assert!(s.set("netwrok", "mpi").is_err());
        assert_eq!(s.set_nodes(0, None).unwrap_err().to_string(), "must be at least 1");
        assert_eq!(s.set_nodes(4097, Some(4096)).unwrap_err().to_string(), "must be in 1..=4096");
        for secs in [-1.0, f64::NAN, f64::INFINITY] {
            assert!(s.set_max_wall(secs).is_err(), "{secs}");
        }
        assert!(s.budget.is_unlimited(), "a refused value leaves the spec as it was");
        s.set_max_wall(0.0).unwrap();
        assert!(s.budget.start().expired());
        s.set_max_wall(1e20).unwrap();
        assert!(!s.budget.start().expired(), "a budget past the clock never expires");
    }

    #[test]
    fn placements_fail_with_typed_errors() {
        let mut s = Spec { placement: Placement::Remap(vec![1, 0]), ..Spec::default() };
        let (_, hosts, _) = s.build(2).unwrap();
        assert_eq!(hosts, vec![HostId(1), HostId(0)]);
        s.placement = Placement::Remap(vec![0, 2]);
        assert_eq!(s.build(2).unwrap_err().to_string(), "remap goes past the 2 node(s)");

        let names: Vec<String> = (0..3).map(|i| format!("h{i}")).collect();
        s.placement = Placement::Deployment(Deployment::round_robin(&names, 2));
        let e = s.build(2).unwrap_err().to_string();
        assert_eq!(e, "deployment host \"h0\" is not in the platform");

        // No ranks, no nodes: an empty platform is refused, not built.
        assert!(Spec::default().build(0).is_err());
    }
}
