//! The serving stack's failure taxonomy.
//!
//! A request that does not decode never becomes a job: the server
//! answers it with one `error` line. Every decoded job can be keyed and
//! cached, so the faults left are two kinds, kept distinct end-to-end:
//!
//! * **Point faults** ([`ServeError::Point`]) — one grid point
//!   deadlocked or panicked. The point is isolated by the streaming
//!   executor; every other point of the job is still served,
//!   byte-identical to a fault-free run, and the failed point travels
//!   the wire as a `point_error` frame.
//! * **Interruptions** ([`ServeError::DeadlineExceeded`],
//!   [`ServeError::Cancelled`]) — the job stopped early because its
//!   deadline passed or its client went away. Work already done stays
//!   cached; the rest was never simulated.
//!
//! A panic on a connection's own thread — in the merge, a render or a
//! summary — is a server bug, not a fault of the request; the server's
//! backstop ends that job with one `error` line and keeps serving.

use dva_sim_api::PointError;
use std::fmt;

/// Why a serve job (or part of one) failed. See the [module
/// docs](self) for the taxonomy.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// One grid point failed; carries the point's coordinates and the
    /// diagnosis.
    Point(PointError),
    /// The job's deadline passed before it finished; the remaining
    /// points were not simulated.
    DeadlineExceeded,
    /// The job was cancelled (typically: the client hung up) before it
    /// finished; the remaining points were not simulated.
    Cancelled,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Point(e) => write!(f, "{e}"),
            ServeError::DeadlineExceeded => write!(f, "job deadline exceeded"),
            ServeError::Cancelled => write!(f, "job cancelled"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<PointError> for ServeError {
    fn from(e: PointError) -> ServeError {
        ServeError::Point(e)
    }
}
