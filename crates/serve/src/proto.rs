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
use tit_replay::{Placement, ReplayConfig, Spec, SpecError};

/// Hard cap on `np` (and on `nodes`): a request cannot ask the daemon
/// to spin up an unbounded simulation.
pub const MAX_NP: usize = 4096;

/// The fields a replay request may carry; any other is refused.
const REPLAY_FIELDS: [&str; 12] = [
    "op", "id", "trace_dir", "store", "np", "nodes", "platform", "network", "collectives",
    "remap", "drop_ranks", "max_wall_s",
];

/// A validated request.
#[derive(Debug, Clone)]
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
    /// A replay simulation (boxed: its spec dwarfs the other variants).
    Replay(Box<ReplayRequest>),
}

/// One replay request: a trace reference, the model options, and the
/// degraded subset.
#[derive(Debug, Clone)]
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
    /// The model options: the `platform` preset of `nodes` nodes, the
    /// `remap` placement, `network`, `collectives` and the `max_wall_s`
    /// wall budget.
    pub spec: Spec,
    /// Degraded subset: ranks whose actions are dropped; the replay
    /// runs damage-tolerant and reports a completeness ratio.
    pub drop_ranks: Vec<usize>,
}

impl ReplayRequest {
    /// The request's wall-clock budget.
    #[must_use]
    pub fn budget(&self) -> Budget {
        self.spec.budget
    }

    /// The replay configuration this request selects.
    #[must_use]
    pub fn replay_config(&self) -> ReplayConfig {
        self.spec.config.clone()
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

fn field_num(v: &Json, key: &str) -> Result<Option<f64>, String> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(n) => n.as_f64().map(Some).ok_or_else(|| format!("field {key:?} must be a number")),
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
        "replay" => parse_replay(&v).map(|r| Request::Replay(Box::new(r))),
        other => Err(format!("unknown op {other:?}")),
    }
}

fn parse_replay(v: &Json) -> Result<ReplayRequest, String> {
    if let Json::Obj(pairs) = v {
        if let Some((key, _)) = pairs.iter().find(|(k, _)| !REPLAY_FIELDS.contains(&k.as_str())) {
            return Err(format!("unknown field {key:?}"));
        }
    }
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
    let mut spec = Spec::default();
    let named = |key: &'static str| move |e: SpecError| format!("field {key:?}: {e}");
    if let Some(n) = field_count(v, "nodes")? {
        spec.set_nodes(n, Some(MAX_NP)).map_err(named("nodes"))?;
    }
    for key in ["platform", "network", "collectives"] {
        if let Some(name) = field_str(v, key)? {
            spec.set(key, &name).map_err(named(key))?;
        }
    }
    if let Some(map) = field_ranks(v, "remap", spec.nodes.unwrap_or(np))? {
        if map.len() != np {
            return Err(format!("\"remap\" must list one node index per rank ({np})"));
        }
        spec.placement = Placement::Remap(map);
    }
    let drop_ranks = field_ranks(v, "drop_ranks", np)?.unwrap_or_default();
    if drop_ranks.len() >= np {
        return Err("\"drop_ranks\" cannot drop every rank".into());
    }
    if let Some(secs) = field_num(v, "max_wall_s")? {
        spec.set_max_wall(secs).map_err(named("max_wall_s"))?;
    }
    Ok(ReplayRequest {
        id: field_str(v, "id")?.unwrap_or_default(),
        trace_dir: PathBuf::from(trace_dir),
        store: store.map(PathBuf::from),
        np,
        spec,
        drop_ranks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tit_replay::PlatformSource;

    #[test]
    fn parses_minimal_and_full_replay_requests() {
        let r = parse_request(r#"{"op":"replay","trace_dir":"/tmp/t","np":4}"#).unwrap();
        let Request::Replay(r) = r else { panic!("not a replay") };
        assert_eq!(r.np, 4);
        assert_eq!(r.spec.nodes, None, "one node per rank");
        assert!(matches!(r.spec.placement, Placement::RoundRobin));
        assert!(matches!(&r.spec.platform, PlatformSource::Preset(c) if c.id == "bordereau"));
        assert!(r.spec.config.network.tcp_gamma.is_some(), "the mpi model");
        assert!(r.drop_ranks.is_empty());
        assert!(r.budget().is_unlimited());

        let r = parse_request(
            r#"{"op":"replay","id":"x1","trace_dir":"/tmp/t","np":2,"nodes":8,
                "platform":"gdx","network":"constant","collectives":"flat",
                "remap":[7,0],"drop_ranks":[1],"max_wall_s":2.5}"#,
        )
        .unwrap();
        let Request::Replay(r) = r else { panic!("not a replay") };
        assert_eq!(r.id, "x1");
        assert_eq!(r.spec.nodes, Some(8));
        assert!(matches!(&r.spec.platform, PlatformSource::Preset(c) if c.id == "gdx"));
        assert!(!r.spec.config.network.contention, "the constant model");
        assert!(matches!(&r.spec.placement, Placement::Remap(m) if *m == [7, 0]));
        assert_eq!(r.drop_ranks, vec![1]);
        assert_eq!(r.replay_config().algo, tit_replay::collectives::CollectiveAlgo::Flat);
        assert!(!r.budget().is_unlimited());
    }

    #[test]
    fn control_ops_parse() {
        assert!(matches!(parse_request(r#"{"op":"ping"}"#), Ok(Request::Ping)));
        assert!(matches!(parse_request(r#"{"op":"stats"}"#), Ok(Request::Stats)));
        assert!(matches!(parse_request(r#"{"op":"drain"}"#), Ok(Request::Drain)));
        assert!(matches!(parse_request(r#"{"op":"metrics"}"#), Ok(Request::Metrics)));
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
            (r#"{"op":"replay","trace_dir":"/t","np":4,"nodes":0}"#, "\"nodes\": must be in 1"),
            (r#"{"op":"replay","trace_dir":"/t","np":4,"nodes":4097}"#, "must be in 1..=4096"),
            (r#"{"op":"replay","trace_dir":"/t","np":4,"network":"x"}"#, "field \"network\""),
            (r#"{"op":"replay","trace_dir":"/t","np":4,"collectives":"x"}"#, "binomial|flat"),
            (r#"{"op":"replay","trace_dir":"/t","np":4,"netwrok":"flow"}"#, "field \"netwrok\""),
            (r#"{"op":"replay","trace_dir":"/t","np":4,"kernel":"reference"}"#, "field \"kernel\""),
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
