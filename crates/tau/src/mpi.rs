//! The event vocabulary of a TAU-traced MPI program: the state name of
//! each MPI call and the names of the counter triggers. The instrumented
//! runtime (`mpi-emul`) writes these names into the `.edf` files and the
//! extractor (`tit-extract`) classifies records by them, so both read
//! them from here.

/// The floating-point operation counter sampled at every MPI call
/// boundary (Figure 3's `PAPI_FP_OPS` triggers).
pub const FP_OPS: &str = "PAPI_FP_OPS";

/// The trigger carrying a send's or a collective's payload size.
pub const MSG_SIZE: &str = "Message size sent to all nodes";

/// The trigger carrying `MPI_Comm_size`'s result.
pub const COMM_SIZE: &str = "MPI communicator size";

/// The MPI functions the instrumentation knows about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MpiCall {
    Init,
    Finalize,
    CommSize,
    Send,
    Isend,
    Recv,
    Irecv,
    Wait,
    Bcast,
    Reduce,
    Allreduce,
    Barrier,
}

impl MpiCall {
    /// Every call.
    const ALL: [MpiCall; 12] = [
        MpiCall::Init,
        MpiCall::Finalize,
        MpiCall::CommSize,
        MpiCall::Send,
        MpiCall::Isend,
        MpiCall::Recv,
        MpiCall::Irecv,
        MpiCall::Wait,
        MpiCall::Bcast,
        MpiCall::Reduce,
        MpiCall::Allreduce,
        MpiCall::Barrier,
    ];

    /// The TAU event name (as it appears in the `.edf` file).
    pub fn event_name(self) -> &'static str {
        match self {
            MpiCall::Init => "MPI_Init()",
            MpiCall::Finalize => "MPI_Finalize()",
            MpiCall::CommSize => "MPI_Comm_size()",
            MpiCall::Send => "MPI_Send()",
            MpiCall::Isend => "MPI_Isend()",
            MpiCall::Recv => "MPI_Recv()",
            MpiCall::Irecv => "MPI_Irecv()",
            MpiCall::Wait => "MPI_Wait()",
            MpiCall::Bcast => "MPI_Bcast()",
            MpiCall::Reduce => "MPI_Reduce()",
            MpiCall::Allreduce => "MPI_Allreduce()",
            MpiCall::Barrier => "MPI_Barrier()",
        }
    }

    /// The call whose event name is `name`, surrounding whitespace
    /// aside; `None` for any other function.
    pub fn from_event_name(name: &str) -> Option<MpiCall> {
        let name = name.trim();
        MpiCall::ALL.into_iter().find(|c| c.event_name() == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_names_are_mpi_spelled() {
        assert_eq!(MpiCall::Send.event_name(), "MPI_Send()");
        assert_eq!(MpiCall::Allreduce.event_name(), "MPI_Allreduce()");
    }

    #[test]
    fn names_map_back_to_their_calls() {
        for call in MpiCall::ALL {
            assert_eq!(MpiCall::from_event_name(call.event_name()), Some(call));
        }
        assert_eq!(MpiCall::from_event_name(" MPI_Wait() "), Some(MpiCall::Wait));
        assert_eq!(MpiCall::from_event_name("MPI_Alltoall()"), None);
        assert_eq!(MpiCall::from_event_name(".TAU application"), None);
    }
}
