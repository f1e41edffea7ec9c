//! Paje timed traces for SimGrid's visualisation tools (Paje, Vite).
//!
//! One container per MPI process, one state per replayed action. Paje
//! wants each container's states in start order, and the engine
//! delivers records in completion order (an operation posted early can
//! complete late), so this is the one output that needs the run's
//! records first: collect them with a `simkern::observer::Collector`
//! sink and write them after the run.

use crate::TagNamer;
use simkern::observer::OpRecord;
use std::io::Write;

/// Writes `records` as a Paje trace of `nproc` containers that are
/// destroyed at `end_time`, naming each state through `names`. States
/// are sorted by start time (stably: records that start together keep
/// their completion order); each enters its action at its start and
/// goes `idle` at its end.
pub fn write_paje<W: Write>(
    records: &[OpRecord],
    nproc: usize,
    end_time: f64,
    names: TagNamer,
    w: &mut W,
) -> std::io::Result<()> {
    // Minimal event-definition header (the fixed Paje preamble).
    w.write_all(
        b"%EventDef PajeDefineContainerType 0
%  Alias string
%  Type string
%  Name string
%EndEventDef
%EventDef PajeDefineStateType 1
%  Alias string
%  Type string
%  Name string
%EndEventDef
%EventDef PajeCreateContainer 2
%  Time date
%  Alias string
%  Type string
%  Container string
%  Name string
%EndEventDef
%EventDef PajeDestroyContainer 3
%  Time date
%  Type string
%  Name string
%EndEventDef
%EventDef PajeSetState 4
%  Time date
%  Type string
%  Container string
%  Value string
%EndEventDef
",
    )?;
    writeln!(w, "0 CT_Proc 0 \"MPI Process\"")?;
    writeln!(w, "1 ST_Action CT_Proc \"Action\"")?;
    for rank in 0..nproc {
        writeln!(w, "2 0.000000 p{rank} CT_Proc 0 \"p{rank}\"")?;
    }
    let mut sorted: Vec<&OpRecord> = records.iter().collect();
    sorted.sort_by(|a, b| a.start.total_cmp(&b.start));
    for r in sorted {
        writeln!(w, "4 {:.9} ST_Action p{} \"{}\"", r.start, r.actor, names(r.tag))?;
        writeln!(w, "4 {:.9} ST_Action p{} \"idle\"", r.end, r.actor)?;
    }
    for rank in 0..nproc {
        writeln!(w, "3 {end_time:.9} CT_Proc p{rank}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_name(tag: u32) -> &'static str {
        match tag {
            1 => "compute",
            2 => "send",
            _ => "recv",
        }
    }

    #[test]
    fn paje_output_has_preamble_containers_and_states() {
        let recs = [
            OpRecord { actor: 0, tag: 1, start: 0.0, end: 1.0, volume: 1e9 },
            OpRecord { actor: 0, tag: 2, start: 1.0, end: 1.5, volume: 1e6 },
            OpRecord { actor: 1, tag: 3, start: 0.0, end: 1.5, volume: 1e6 },
        ];
        let mut buf = Vec::new();
        write_paje(&recs, 2, 2.0, demo_name, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("%EventDef PajeDefineContainerType"));
        assert!(text.contains("2 0.000000 p0 CT_Proc 0 \"p0\""));
        assert!(text.contains("4 0.000000000 ST_Action p0 \"compute\""));
        assert!(text.contains("4 1.000000000 ST_Action p0 \"idle\""));
        assert!(text.contains("3 2.000000000 CT_Proc p1"));
        // States sorted by start time.
        let s_lines: Vec<&str> = text.lines().filter(|l| l.starts_with("4 ")).collect();
        let times: Vec<f64> = s_lines
            .iter()
            .step_by(2)
            .map(|l| l.split_whitespace().nth(1).unwrap().parse().unwrap())
            .collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }
}
