//! The platform cost model, mirrored from the simulation kernel.
//!
//! The static bounds are only sound if every per-operation cost here
//! relates provably to what the engine charges. The invariants, per
//! operation:
//!
//! * **compute** — the engine executes `flops` at a rate bounded by the
//!   host's per-core speed, so the true duration is `≥ flops / speed`
//!   ([`CostModel::exec_lower`], exact when the core is uncontended).
//! * **flow** — the engine charges a latency phase of
//!   `route.latency × lat_factor(size)` followed by a transfer of
//!   `amount = size / bw_factor(size)` bytes at a rate that never
//!   exceeds [`FlowCost::rate_cap`] (the fat-pipe/TCP-window bound and
//!   the narrowest shared-link capacity, exactly as `start_transfer`
//!   assembles them). [`FlowCost::lower`] is therefore a true lower
//!   bound on any flow's duration.
//! * **serialized upper** — [`FlowCost::serial`] is the flow's total
//!   budget in the charging argument behind the upper bound: at every
//!   instant before completion either some flow sits in a latency
//!   phase, some flow runs at its rate bound, or some shared link is
//!   saturated; each such instant consumes one of the (finite) budget
//!   terms `latency`, `amount / bound`, or `amount / cap(L)` for a
//!   link `L` on the route. Summing all budgets over all flows (plus
//!   the compute budgets) therefore bounds the makespan from above,
//!   whatever the interleaving.

use simkern::fxhash::FxHashMap;
use simkern::netmodel::NetworkConfig;
use simkern::resource::HostId;
use simkern::Platform;

/// Clamps a trace volume to something the bounds can use: negative and
/// non-finite volumes (which the lint flags as TL0010/TL0011) count as
/// zero work.
pub(crate) fn clamp(v: f64) -> f64 {
    if v.is_finite() && v > 0.0 {
        v
    } else {
        0.0
    }
}

/// Route-level quantities that do not depend on message size, cached
/// per host pair.
#[derive(Debug, Clone, Copy)]
struct RouteCost {
    /// Physical route latency (before model factors).
    latency: f64,
    /// The per-flow rate bound the LMM solver sees: fat-pipe caps,
    /// the TCP window cap `gamma / (2·latency)`, and — mirroring the
    /// engine's special cases — `min_bw` when the flow would otherwise
    /// be entirely unconstrained.
    bound: f64,
    /// `bound` further capped by the narrowest shared link: no rate
    /// the solver can ever assign exceeds this.
    rate_cap: f64,
    /// `Σ 1/capacity` over the route's shared links (0 without
    /// contention).
    inv_cap_sum: f64,
}

/// Size-resolved cost of one point-to-point flow.
#[derive(Debug, Clone, Copy)]
pub struct FlowCost {
    /// Latency phase duration (`route latency × lat_factor`).
    pub latency: f64,
    /// Bytes the solver actually transfers (`size / bw_factor`).
    pub amount: f64,
    /// The flow's own rate bound (may be infinite when nothing but
    /// shared links constrain it).
    pub bound: f64,
    /// Hard cap on any achievable rate (always finite on real routes).
    pub rate_cap: f64,
    /// `Σ 1/capacity` over shared links crossed.
    pub inv_cap_sum: f64,
}

impl FlowCost {
    /// Minimum possible duration of this flow: full latency plus the
    /// transfer at the best rate any solver state allows.
    pub fn lower(&self) -> f64 {
        if self.amount > 0.0 {
            self.latency + self.amount / self.rate_cap
        } else {
            self.latency
        }
    }

    /// The flow's budget in the fully-serialized charging argument
    /// (see the module docs).
    pub fn serial(&self) -> f64 {
        let bound_term = if self.bound.is_finite() && self.amount > 0.0 {
            self.amount / self.bound
        } else {
            0.0
        };
        self.latency + bound_term + self.amount * self.inv_cap_sum
    }
}

/// Per-deployment cost oracle: rank → host speeds plus a route cache.
pub struct CostModel<'a> {
    platform: &'a Platform,
    net: &'a NetworkConfig,
    hosts: &'a [HostId],
    /// Route costs by packed `(src, dst)` host pair, probed once per
    /// flow (the kernel's hasher: small keys on a hot path).
    routes: FxHashMap<u64, RouteCost>,
}

impl<'a> CostModel<'a> {
    /// A cost model for `hosts[rank]`-deployed ranks on `platform`
    /// under network model `net`.
    pub fn new(platform: &'a Platform, net: &'a NetworkConfig, hosts: &'a [HostId]) -> Self {
        CostModel { platform, net, hosts, routes: FxHashMap::default() }
    }

    /// Seconds of the minimum-duration compute burst of `flops` on
    /// `rank`'s host (exact when the core is uncontended).
    pub fn exec_lower(&self, rank: usize, flops: f64) -> f64 {
        clamp(flops) / self.platform.host(self.hosts[rank]).speed
    }

    /// Whole-node capacity charge for `flops` on `rank`'s host: the
    /// upper bound's budget for instants where the host CPU is
    /// saturated by oversubscribed ranks.
    pub fn exec_host_serial(&self, rank: usize, flops: f64) -> f64 {
        let h = self.platform.host(self.hosts[rank]);
        clamp(flops) / (h.speed * f64::from(h.cores))
    }

    /// Whether the engine treats a send of `bytes` as eager (sender
    /// released at post time) rather than rendezvous.
    pub fn is_eager(&self, bytes: f64) -> bool {
        bytes <= self.net.eager_threshold
    }

    /// The cost of one flow of `bytes` from `src` to `dst` (ranks).
    pub fn flow(&mut self, src: usize, dst: usize, bytes: f64) -> FlowCost {
        let key = (u64::from(self.hosts[src].0) << 32) | u64::from(self.hosts[dst].0);
        let rc = match self.routes.get(&key) {
            Some(rc) => *rc,
            None => {
                let rc = self.route_cost(self.hosts[src], self.hosts[dst]);
                self.routes.insert(key, rc);
                rc
            }
        };
        let size = clamp(bytes);
        let (lat_f, bw_f) = self.net.piecewise.factors(size);
        FlowCost {
            latency: rc.latency * lat_f,
            amount: size / bw_f,
            bound: rc.bound,
            rate_cap: rc.rate_cap,
            inv_cap_sum: rc.inv_cap_sum,
        }
    }

    fn route_cost(&self, src: HostId, dst: HostId) -> RouteCost {
        let route = self.platform.resolve_route(src, dst);
        let mut bound = route.bound;
        if let Some(gamma) = self.net.tcp_gamma {
            if route.latency > 0.0 {
                bound = bound.min(gamma / (2.0 * route.latency));
            }
        }
        let mut inv_cap_sum = 0.0;
        let mut min_cap = f64::INFINITY;
        if self.net.contention {
            for &l in &route.shared {
                let cap = self.platform.link(l).bandwidth;
                inv_cap_sum += cap.recip();
                min_cap = min_cap.min(cap);
            }
            // The engine falls back to the narrowest physical link when
            // a flow ends up with no constraint and no finite bound.
            if route.shared.is_empty() && bound.is_infinite() {
                bound = route.min_bw;
            }
        } else {
            bound = bound.min(route.min_bw);
        }
        RouteCost { latency: route.latency, bound, rate_cap: bound.min(min_cap), inv_cap_sum }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkern::resource::PlatformBuilder;

    fn two_hosts() -> (Platform, Vec<HostId>) {
        let mut b = PlatformBuilder::new();
        let a = b.add_host("a", 1e9, 1);
        let c = b.add_host("b", 1e9, 1);
        let l = b.add_link("l", 1e8, 1e-5);
        b.add_route(a, c, vec![l]);
        (b.build(), vec![a, c])
    }

    #[test]
    fn identity_flow_lower_is_latency_plus_transfer() {
        let (p, hosts) = two_hosts();
        let net = NetworkConfig::default();
        let mut m = CostModel::new(&p, &net, &hosts);
        let fc = m.flow(0, 1, 1e6);
        let expect = 1e-5 + 1e6 / 1e8;
        assert!((fc.lower() - expect).abs() < 1e-15, "{} vs {expect}", fc.lower());
        // With one shared link, serial = latency + amount/cap (the flow
        // has no finite own bound under contention here).
        assert!((fc.serial() - expect).abs() < 1e-15);
    }

    #[test]
    fn clamped_volumes_cost_nothing() {
        let (p, hosts) = two_hosts();
        let net = NetworkConfig::default();
        let mut m = CostModel::new(&p, &net, &hosts);
        for v in [0.0, -4.0, f64::NAN, f64::INFINITY] {
            let fc = m.flow(0, 1, v);
            assert_eq!(fc.amount, 0.0, "bytes {v}");
            assert_eq!(fc.lower(), fc.latency);
        }
        assert_eq!(m.exec_lower(0, f64::NAN), 0.0);
    }

    #[test]
    fn tcp_gamma_caps_the_rate() {
        let (p, hosts) = two_hosts();
        // gamma/(2·lat) = 1e7 < 1e8
        let net = NetworkConfig { tcp_gamma: Some(2e-5 * 1e7), ..Default::default() };
        let mut m = CostModel::new(&p, &net, &hosts);
        let fc = m.flow(0, 1, 1e6);
        assert!((fc.rate_cap - 1e7).abs() < 1.0, "{}", fc.rate_cap);
        assert!(fc.lower() > 1e6 / 1e8);
    }

    #[test]
    fn constant_model_uses_min_bw() {
        let (p, hosts) = two_hosts();
        let net = NetworkConfig::constant();
        let mut m = CostModel::new(&p, &net, &hosts);
        let fc = m.flow(0, 1, 1e6);
        assert_eq!(fc.rate_cap, 1e8);
        assert_eq!(fc.inv_cap_sum, 0.0);
        // Without contention the serialized budget is just the flow
        // running alone at its bound.
        assert!((fc.serial() - fc.lower()).abs() < 1e-15);
    }

    #[test]
    fn loopback_routes_resolve() {
        let (p, hosts) = two_hosts();
        let net = NetworkConfig::default();
        let mut m = CostModel::new(&p, &net, &hosts);
        let fc = m.flow(1, 1, 4096.0);
        assert!(fc.rate_cap.is_finite() && fc.rate_cap > 0.0);
        assert!(fc.lower() > 0.0);
    }
}
