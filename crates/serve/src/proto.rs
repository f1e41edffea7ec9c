//! The `tit-serve` wire protocol: newline-delimited JSON over TCP.
//!
//! One request per line, one response per line; responses carry the
//! request's `id` echo so pipelined clients can match them regardless
//! of completion order. The full grammar, schemas and response-code
//! contract live in `docs/SERVING.md`; this module is the parsing and
//! validation layer that turns untrusted lines into typed requests
//! (every reject carries a human-readable detail for the
//! `bad_request` response).

use crate::json::Json;
use std::path::PathBuf;
use tit_core::Budget;
use tit_replay::collectives::CollectiveAlgo;
use tit_replay::ReplayConfig;

/// Hard cap on `np` (and on `nodes`): a request cannot ask the daemon
/// to spin up an unbounded simulation.
pub const MAX_NP: usize = 4096;

/// A validated request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Queue/drain introspection.
    Stats,
    /// Graceful shutdown: stop admitting, finish in-flight work,
    /// flush metrics, exit.
    Drain,
    /// Live observability snapshot (`titobs-metrics-v1` registry dump).
    Metrics,
    /// A replay simulation.
    Replay(ReplayRequest),
}

/// The platform preset a replay request targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlatformKind {
    /// The bordereau cluster preset (single-core nodes).
    Bordereau,
    /// The gdx cluster preset (single-core nodes).
    Gdx,
}

/// The network model variants of `tit-replay --network`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetworkKind {
    /// Contention-aware piece-wise-linear MPI model (the default).
    Mpi,
    /// Plain flow model.
    Flow,
    /// Constant-time network.
    Constant,
}

/// One replay request: a platform variant, a trace reference, and the
/// robustness knobs (deadline, rank remap, degraded subset).
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayRequest {
    /// Client-chosen tag echoed back in the response (defaults empty).
    pub id: String,
    /// Per-process trace directory (the trace reference). Empty when
    /// the request names a [`store`](Self::store) instead.
    pub trace_dir: PathBuf,
    /// `TIB2` segmented store file, the alternative trace reference:
    /// the daemon keeps an LRU of open, footer-verified handles
    /// ([`crate::cache::StoreCache`]) and streams segments on demand
    /// instead of interning the whole trace.
    pub store: Option<PathBuf>,
    /// Ranks the trace carries.
    pub np: usize,
    /// Nodes of the platform variant (defaults to `np`).
    pub nodes: usize,
    /// Cluster preset.
    pub platform: PlatformKind,
    /// Network model.
    pub network: NetworkKind,
    /// Collective decomposition.
    pub collectives: CollectiveAlgo,
    /// Explicit rank → node-index map (defaults to round-robin).
    pub remap: Option<Vec<usize>>,
    /// Degraded subset: ranks whose actions are dropped; the replay
    /// runs damage-tolerant and reports a completeness ratio.
    pub drop_ranks: Vec<usize>,
    /// Per-request wall-clock budget, seconds (absent = unlimited).
    pub max_wall_s: Option<f64>,
}

impl ReplayRequest {
    /// The request's wall-clock budget.
    #[must_use]
    pub fn budget(&self) -> Budget {
        self.max_wall_s.map_or_else(Budget::unlimited, Budget::from_secs_f64)
    }

    /// The replay configuration this request selects.
    #[must_use]
    pub fn replay_config(&self) -> ReplayConfig {
        let network = match self.network {
            NetworkKind::Mpi => simkern::NetworkConfig::mpi_cluster(),
            NetworkKind::Flow => simkern::NetworkConfig::default(),
            NetworkKind::Constant => simkern::NetworkConfig::constant(),
        };
        ReplayConfig {
            network,
            algo: self.collectives,
            kernel_profile: false,
            kernel: simkern::KernelMode::Incremental,
        }
    }

    /// Cache key for the trace reference: FNV-1a-64 over the canonical
    /// `path '\0' np` string (the same hash family as the `TICK1`
    /// container checksum). Store references prepend a domain tag so a
    /// directory and a store at the same path never collide.
    #[must_use]
    pub fn trace_key(&self) -> u64 {
        let mut bytes = Vec::new();
        if let Some(store) = &self.store {
            bytes.extend_from_slice(b"tib2\0");
            bytes.extend_from_slice(store.to_string_lossy().as_bytes());
        } else {
            bytes.extend_from_slice(self.trace_dir.to_string_lossy().as_bytes());
        }
        bytes.push(0);
        bytes.extend_from_slice(&(self.np as u64).to_le_bytes());
        tit_core::checkpoint::fnv1a(&bytes)
    }
}

fn field_str(v: &Json, key: &str) -> Result<Option<String>, String> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Str(s)) => Ok(Some(s.clone())),
        Some(_) => Err(format!("field {key:?} must be a string")),
    }
}

fn field_count(v: &Json, key: &str) -> Result<Option<u64>, String> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(n) => n
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("field {key:?} must be a non-negative integer")),
    }
}

fn field_ranks(v: &Json, key: &str, bound: usize) -> Result<Option<Vec<usize>>, String> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Arr(items)) => {
            let mut out = Vec::with_capacity(items.len());
            for it in items {
                let n = it
                    .as_u64()
                    .ok_or_else(|| format!("field {key:?} must list non-negative integers"))?;
                if n as usize >= bound {
                    return Err(format!("field {key:?}: index {n} out of range (< {bound})"));
                }
                out.push(n as usize);
            }
            Ok(Some(out))
        }
        Some(_) => Err(format!("field {key:?} must be an array")),
    }
}

/// Parses and validates one request line (already length-bounded by
/// the connection reader). The error string is the `bad_request`
/// detail sent back to the client.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = crate::json::parse(line).map_err(|e| e.to_string())?;
    if !matches!(v, Json::Obj(_)) {
        return Err("a request must be a JSON object".into());
    }
    let op = field_str(&v, "op")?.ok_or("missing field \"op\"")?;
    match op.as_str() {
        "ping" => Ok(Request::Ping),
        "stats" => Ok(Request::Stats),
        "drain" => Ok(Request::Drain),
        "metrics" => Ok(Request::Metrics),
        "replay" => parse_replay(&v).map(Request::Replay),
        other => Err(format!("unknown op {other:?}")),
    }
}

fn parse_replay(v: &Json) -> Result<ReplayRequest, String> {
    let store = field_str(v, "store")?;
    let trace_dir = match (&store, field_str(v, "trace_dir")?) {
        (Some(_), Some(_)) => {
            return Err("\"store\" and \"trace_dir\" are mutually exclusive".into())
        }
        (Some(_), None) => String::new(),
        (None, Some(d)) => d,
        (None, None) => return Err("replay needs \"trace_dir\" or \"store\"".into()),
    };
    let np = field_count(v, "np")?.ok_or("replay needs \"np\"")? as usize;
    if np == 0 || np > MAX_NP {
        return Err(format!("\"np\" must be in 1..={MAX_NP}"));
    }
    let nodes = field_count(v, "nodes")?.map_or(np, |n| n as usize);
    if nodes == 0 || nodes > MAX_NP {
        return Err(format!("\"nodes\" must be in 1..={MAX_NP}"));
    }
    let platform = match field_str(v, "platform")?.as_deref() {
        None | Some("bordereau") => PlatformKind::Bordereau,
        Some("gdx") => PlatformKind::Gdx,
        Some(other) => return Err(format!("unknown platform {other:?}")),
    };
    let network = match field_str(v, "network")?.as_deref() {
        None | Some("mpi") => NetworkKind::Mpi,
        Some("flow") => NetworkKind::Flow,
        Some("constant") => NetworkKind::Constant,
        Some(other) => return Err(format!("unknown network {other:?}")),
    };
    let collectives = match field_str(v, "collectives")?.as_deref() {
        None | Some("binomial") => CollectiveAlgo::Binomial,
        Some("flat") => CollectiveAlgo::Flat,
        Some(other) => return Err(format!("unknown collectives {other:?}")),
    };
    let remap = field_ranks(v, "remap", nodes)?;
    if let Some(m) = &remap {
        if m.len() != np {
            return Err(format!("\"remap\" must list one node index per rank ({np})"));
        }
    }
    let drop_ranks = field_ranks(v, "drop_ranks", np)?.unwrap_or_default();
    if drop_ranks.len() >= np {
        return Err("\"drop_ranks\" cannot drop every rank".into());
    }
    let max_wall_s = match v.get("max_wall_s") {
        None | Some(Json::Null) => None,
        Some(n) => {
            let f = n.as_f64().ok_or("field \"max_wall_s\" must be a number")?;
            if f < 0.0 {
                return Err("field \"max_wall_s\" must be non-negative".into());
            }
            Some(f)
        }
    };
    Ok(ReplayRequest {
        id: field_str(v, "id")?.unwrap_or_default(),
        trace_dir: PathBuf::from(trace_dir),
        store: store.map(PathBuf::from),
        np,
        nodes,
        platform,
        network,
        collectives,
        remap,
        drop_ranks,
        max_wall_s,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_and_full_replay_requests() {
        let r = parse_request(r#"{"op":"replay","trace_dir":"/tmp/t","np":4}"#).unwrap();
        let Request::Replay(r) = r else { panic!("not a replay") };
        assert_eq!(r.np, 4);
        assert_eq!(r.nodes, 4);
        assert_eq!(r.platform, PlatformKind::Bordereau);
        assert_eq!(r.network, NetworkKind::Mpi);
        assert!(r.remap.is_none() && r.drop_ranks.is_empty() && r.max_wall_s.is_none());
        assert!(r.budget().is_unlimited());

        let r = parse_request(
            r#"{"op":"replay","id":"x1","trace_dir":"/tmp/t","np":2,"nodes":8,
                "platform":"gdx","network":"constant","collectives":"flat",
                "remap":[7,0],"drop_ranks":[1],"max_wall_s":2.5}"#,
        )
        .unwrap();
        let Request::Replay(r) = r else { panic!("not a replay") };
        assert_eq!(r.id, "x1");
        assert_eq!(r.nodes, 8);
        assert_eq!(r.platform, PlatformKind::Gdx);
        assert_eq!(r.network, NetworkKind::Constant);
        assert_eq!(r.remap, Some(vec![7, 0]));
        assert_eq!(r.drop_ranks, vec![1]);
        assert!(!r.budget().is_unlimited());
    }

    #[test]
    fn control_ops_parse() {
        assert_eq!(parse_request(r#"{"op":"ping"}"#).unwrap(), Request::Ping);
        assert_eq!(parse_request(r#"{"op":"stats"}"#).unwrap(), Request::Stats);
        assert_eq!(parse_request(r#"{"op":"drain"}"#).unwrap(), Request::Drain);
        assert_eq!(parse_request(r#"{"op":"metrics"}"#).unwrap(), Request::Metrics);
    }

    #[test]
    fn rejects_malformed_requests_with_details() {
        for (line, needle) in [
            ("not json", "invalid JSON"),
            ("[]", "must be a JSON object"),
            (r#"{"op":"frobnicate"}"#, "unknown op"),
            (r#"{"op":"replay","np":4}"#, "trace_dir"),
            (r#"{"op":"replay","trace_dir":"/t"}"#, "\"np\""),
            (r#"{"op":"replay","trace_dir":"/t","np":0}"#, "must be in 1"),
            (r#"{"op":"replay","trace_dir":"/t","np":1000000}"#, "must be in 1"),
            (r#"{"op":"replay","trace_dir":"/t","np":4,"platform":"moon"}"#, "platform"),
            (r#"{"op":"replay","trace_dir":"/t","np":4,"remap":[0]}"#, "per rank"),
            (r#"{"op":"replay","trace_dir":"/t","np":4,"remap":[9,9,9,9]}"#, "out of range"),
            (
                r#"{"op":"replay","trace_dir":"/t","np":2,"drop_ranks":[0,1]}"#,
                "every rank",
            ),
            (r#"{"op":"replay","trace_dir":"/t","np":2,"max_wall_s":-1}"#, "non-negative"),
            (r#"{"op":"replay","trace_dir":"/t","np":2,"np":3}"#, ""),
        ] {
            match parse_request(line) {
                Ok(Request::Replay(r)) => {
                    // The duplicate-key line parses (first key wins).
                    assert_eq!(r.np, 2, "{line}");
                }
                Ok(other) => panic!("{line} parsed as {other:?}"),
                Err(e) => assert!(e.contains(needle), "{line}: {e} lacks {needle:?}"),
            }
        }
    }

    #[test]
    fn trace_key_separates_dir_and_np() {
        let base = parse_request(r#"{"op":"replay","trace_dir":"/tmp/t","np":4}"#).unwrap();
        let other_np = parse_request(r#"{"op":"replay","trace_dir":"/tmp/t","np":8}"#).unwrap();
        let other_dir = parse_request(r#"{"op":"replay","trace_dir":"/tmp/u","np":4}"#).unwrap();
        let key = |r: &Request| match r {
            Request::Replay(r) => r.trace_key(),
            _ => unreachable!(),
        };
        assert_ne!(key(&base), key(&other_np));
        assert_ne!(key(&base), key(&other_dir));
        assert_eq!(key(&base), key(&base));
    }
}
