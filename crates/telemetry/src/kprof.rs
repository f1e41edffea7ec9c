//! Rendering for the simulation kernel's self-profile
//! ([`simkern::KernelProfile`]) — the "why is replay slow at this
//! scale" report.
//!
//! The ROADMAP's top open item is replay throughput *falling* with
//! rank count. The raw counters (LMM solves, constraints and variables
//! touched per solve, event-heap traffic, completion-heap churn, peak
//! structure sizes) name the culprit: if `constraints_per_solve` grows
//! with ranks, the solver's islands are coalescing; if heap traffic
//! grows, the event queue is the problem. [`KernelReport::to_json`]
//! renders the deterministic core (`tit-kprof-v1`): counters plus
//! derived per-operation ratios, byte-identical across runs and
//! `--jobs` values, suitable for CI diffing.
//! [`KernelReport::to_json_value`] can add the wall-clock phase
//! attribution — meaningful for humans and benches, **not**
//! reproducible across runs.

use simkern::KernelProfile;
use tit_core::json::Json;
use tit_core::json_obj;

/// A kernel self-profile plus the replay context needed for derived
/// per-operation ratios.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelReport {
    /// The engine's counters and wall-phase attribution.
    pub profile: KernelProfile,
    /// Ranks replayed.
    pub num_ranks: usize,
    /// Trace actions replayed (the throughput denominator).
    pub actions_replayed: u64,
    /// Simulated makespan, seconds.
    pub simulated_time: f64,
}

fn ratio(num: u64, den: u64) -> f64 {
    #[allow(clippy::cast_precision_loss)] // counters stay far below 2^52
    if den > 0 {
        num as f64 / den as f64
    } else {
        0.0
    }
}

impl KernelReport {
    /// The report as one `tit-kprof-v1` object: engine and solver
    /// counters plus derived ratios, and with `walls` a `"wall"`
    /// member — phase-attributed wall seconds and replay throughput,
    /// **not** reproducible across runs. See `docs/OBSERVABILITY.md`
    /// for the schema.
    #[must_use]
    pub fn to_json_value(&self, walls: bool) -> Json {
        let (p, s, w) = (&self.profile, &self.profile.solver, &self.profile.wall);
        let engine = json_obj!(p; actor_steps, ops_completed, heap_pushes, heap_pops, heap_peak,
            latency_events, sleep_events, completion_updates, lazy_rekeys, stale_pops,
            completion_pops, completions_peak, activities_peak);
        let solver = json_obj!(s; solves, partial_solves, islands, constraints_touched,
            constraints_skipped, vars_touched, rate_changes);
        let derived = json_obj!(s;
            constraints_per_solve = ratio(s.constraints_touched, s.solves),
            vars_per_solve = ratio(s.vars_touched, s.solves),
            islands_per_solve = ratio(s.islands, s.solves),
            solves_per_op = ratio(s.solves, p.ops_completed),
            heap_ops_per_op = ratio(p.heap_pushes + p.heap_pops, p.ops_completed),
            completion_updates_per_op = ratio(p.completion_updates, p.ops_completed),
            rate_changes_per_solve = ratio(s.rate_changes, s.solves));
        let mut doc = json_obj!(self; schema = "tit-kprof-v1", num_ranks, actions_replayed,
            simulated_time, engine = engine, solver = solver, derived = derived);
        if !walls {
            return doc;
        }
        let rps = if w.total_s > 0.0 { self.actions_replayed as f64 / w.total_s } else { 0.0 };
        let wall = json_obj!(w; drain_s, solve_s, events_s, completions_s, total_s,
            records_per_sec = rps);
        if let Json::Obj(members) = &mut doc {
            members.push(("wall".to_owned(), wall));
        }
        doc
    }

    /// Serialises the deterministic core ([`KernelReport::to_json_value`]
    /// without walls) as one JSON line: identical replays produce
    /// byte-identical output.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!("{}\n", self.to_json_value(false))
    }

    /// Renders a human-readable summary naming where the time and the
    /// solver work went.
    #[must_use]
    pub fn render_text(&self) -> String {
        let p = &self.profile;
        let s = &p.solver;
        let w = &p.wall;
        let mut out = String::new();
        out.push_str(&format!(
            "kernel profile: {} ranks, {} actions, simulated {:.6}s\n",
            self.num_ranks, self.actions_replayed, self.simulated_time
        ));
        out.push_str(&format!(
            "  solver: {} solves ({} partial), {} islands, {:.2} constraints/solve ({} skipped), {:.2} vars/solve, {} rate changes\n",
            s.solves,
            s.partial_solves,
            s.islands,
            ratio(s.constraints_touched, s.solves),
            s.constraints_skipped,
            ratio(s.vars_touched, s.solves),
            s.rate_changes
        ));
        out.push_str(&format!(
            "  events: {} heap pushes, {} pops, peak {}; {} latency, {} sleep\n",
            p.heap_pushes, p.heap_pops, p.heap_peak, p.latency_events, p.sleep_events
        ));
        out.push_str(&format!(
            "  completions: {} eager updates, {} lazy re-keys ({} refreshed at top), {} pops, peak {} active (slab peak {})\n",
            p.completion_updates, p.lazy_rekeys, p.stale_pops, p.completion_pops, p.completions_peak, p.activities_peak
        ));
        if w.total_s > 0.0 {
            out.push_str(&format!(
                "  wall: {:.3}s total = drain {:.3}s ({:.0}%) + solve {:.3}s ({:.0}%) + events {:.3}s ({:.0}%) + completions {:.3}s ({:.0}%)\n",
                w.total_s,
                w.drain_s,
                100.0 * w.drain_s / w.total_s,
                w.solve_s,
                100.0 * w.solve_s / w.total_s,
                w.events_s,
                100.0 * w.events_s / w.total_s,
                w.completions_s,
                100.0 * w.completions_s / w.total_s
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> KernelReport {
        let mut p = KernelProfile {
            actor_steps: 100,
            ops_completed: 50,
            heap_pushes: 20,
            heap_pops: 20,
            heap_peak: 5,
            completion_updates: 80,
            completions_peak: 7,
            ..Default::default()
        };
        p.solver.solves = 40;
        p.solver.islands = 42;
        p.solver.constraints_touched = 400;
        p.solver.vars_touched = 200;
        p.solver.rate_changes = 120;
        p.wall.total_s = 2.0;
        p.wall.solve_s = 1.5;
        KernelReport { profile: p, num_ranks: 8, actions_replayed: 1000, simulated_time: 1.25 }
    }

    #[test]
    fn deterministic_core_excludes_wall() {
        let r = demo();
        let a = r.to_json();
        assert_eq!(a, r.to_json());
        assert!(a.contains("\"schema\":\"tit-kprof-v1\""));
        assert!(a.contains("\"constraints_per_solve\":10"));
        assert!(!a.contains("\"wall\""));
        assert_eq!(a.matches('{').count(), a.matches('}').count());
    }

    #[test]
    fn walls_member_comes_last() {
        let r = demo();
        let t = r.to_json_value(true);
        let Json::Obj(members) = &t else { panic!("an object: {t}") };
        assert_eq!(members.last().map(|(k, _)| k.as_str()), Some("wall"));
        assert_eq!(t.get("wall").and_then(|w| w.get("records_per_sec")), Some(&Json::Num(500.0)));
        assert_eq!(Json::Obj(members[..members.len() - 1].to_vec()), r.to_json_value(false));
    }


    #[test]
    fn zero_denominators_render_zero() {
        let r = KernelReport::default();
        let a = r.to_json();
        assert!(a.contains("\"solves_per_op\":0"));
        let text = r.render_text();
        assert!(text.contains("solver: 0 solves"));
    }

    #[test]
    fn text_report_names_phases() {
        let text = demo().render_text();
        assert!(text.contains("solve 1.500s (75%)"), "{text}");
        assert!(text.contains("10.00 constraints/solve"), "{text}");
    }
}
