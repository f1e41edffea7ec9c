//! Observer tags identifying replayed action kinds in timed traces and
//! profiles.
//!
//! The tags are the interned ids of [`tit_core::compact::tag`],
//! re-exported: a tag read from a timed trace and a tag interned in a
//! [`CompactTrace`](tit_core::CompactTrace) mean the same action by
//! construction. `comm_size` never reaches the kernel, so the observer
//! layer has no tag for it.

pub use tit_core::compact::tag::{
    ALLREDUCE, BARRIER, BCAST, COMPUTE, IRECV, ISEND, RECV, REDUCE, SEND, WAIT,
};

/// Every tag the replay layer emits, in numeric order.
pub const ALL: [u32; 10] =
    [COMPUTE, SEND, ISEND, RECV, IRECV, BCAST, REDUCE, ALLREDUCE, BARRIER, WAIT];

/// Human-readable name for a tag: its trace keyword, or `"other"` for
/// anything the replay layer does not emit ([`ALL`] is `1..=10`).
pub fn name(tag: u32) -> &'static str {
    match tag {
        COMPUTE..=WAIT => tit_core::compact::tag::keyword(tag).unwrap_or("other"),
        _ => "other",
    }
}

/// Inverse of [`name`]: resolves an action name back to its tag (used
/// by `tit-profile` to re-aggregate a timed-trace CSV).
pub fn from_name(s: &str) -> Option<u32> {
    ALL.iter().copied().find(|&t| name(t) == s)
}

/// True when the tag denotes communication (for profile aggregation).
pub fn is_comm(tag: u32) -> bool {
    matches!(tag, SEND | ISEND | RECV | IRECV | BCAST | REDUCE | ALLREDUCE | BARRIER | WAIT)
}

/// True when the tag denotes a collective operation — the phase
/// boundaries the time-resolved windowing detects.
pub fn is_collective(tag: u32) -> bool {
    matches!(tag, BCAST | REDUCE | ALLREDUCE | BARRIER)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_distinct() {
        let tags = [COMPUTE, SEND, ISEND, RECV, IRECV, BCAST, REDUCE, ALLREDUCE, BARRIER, WAIT];
        let mut names: Vec<_> = tags.iter().map(|&t| name(t)).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), tags.len());
    }

    #[test]
    fn classification() {
        assert!(!is_comm(COMPUTE));
        assert!(is_comm(SEND));
        assert!(is_comm(BARRIER));
    }

    #[test]
    fn collectives_are_exactly_the_four_group_ops() {
        let colls: Vec<_> = ALL.iter().copied().filter(|&t| is_collective(t)).collect();
        assert_eq!(colls, [BCAST, REDUCE, ALLREDUCE, BARRIER]);
        // Every collective is also communication.
        assert!(colls.iter().all(|&t| is_comm(t)));
    }

    #[test]
    fn comm_size_has_no_observer_name() {
        let cs = tit_core::compact::tag::COMM_SIZE;
        assert_eq!(name(cs), "other");
        assert_eq!(from_name("comm_size"), None);
        assert_eq!(name(0), "other");
    }

    #[test]
    fn from_name_round_trips_every_tag() {
        for t in ALL {
            assert_eq!(from_name(name(t)), Some(t), "tag {t}");
        }
        assert_eq!(from_name("no-such-action"), None);
    }
}
