//! The crate's unified error type.

use crate::protocol::{ProtocolError, Status};
use crate::wire::WireError;

/// Everything that can go wrong using the service, in-process or over
/// TCP. `#[non_exhaustive]`: new failure modes must not be breaking
/// changes.
#[non_exhaustive]
#[derive(Debug)]
pub enum ServeError {
    /// Admission refused: the submission queue is at capacity right now.
    /// Retry later; nothing was enqueued.
    Overloaded,
    /// Admission refused: the service is draining toward shutdown and
    /// accepts no new work (stats/health/drain still answer).
    Draining,
    /// The service has shut down; no request will ever be accepted again.
    Closed,
    /// The worker processing the request disappeared before replying
    /// (a worker thread died); the request's fate is unknown.
    WorkerLost,
    /// SSRP framing failed.
    Protocol(ProtocolError),
    /// A [`Client`](crate::Client) whose connection an earlier framing
    /// failure (carried here) ended: the stream is shut down and no call
    /// can use it again.
    Disconnected(ProtocolError),
    /// An op body failed to encode or decode.
    Wire(WireError),
    /// The server answered with an error status.
    Remote {
        /// The response status.
        status: Status,
        /// The server's human-readable explanation.
        message: String,
    },
    /// A response arrived that does not pair with the outstanding
    /// request (wrong id, wrong op, or a request frame where a response
    /// was expected).
    ResponseMismatch {
        /// What the pairing check observed.
        detail: String,
    },
    /// The codec configuration the service was built with is invalid.
    Codec(ss_core::CodecError),
    /// A socket-level failure.
    Io(std::io::ErrorKind),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded => write!(f, "service overloaded: submission queue full"),
            ServeError::Draining => write!(f, "service draining: no new work accepted"),
            ServeError::Closed => write!(f, "service closed"),
            ServeError::WorkerLost => write!(f, "worker disappeared before replying"),
            ServeError::Protocol(e) => write!(f, "protocol failure: {e}"),
            ServeError::Disconnected(e) => {
                write!(
                    f,
                    "connection closed after an earlier protocol failure: {e}"
                )
            }
            ServeError::Wire(e) => write!(f, "body codec failure: {e}"),
            ServeError::Remote { status, message } => {
                write!(f, "server answered {status:?}: {message}")
            }
            ServeError::ResponseMismatch { detail } => {
                write!(f, "response does not pair with the request: {detail}")
            }
            ServeError::Codec(e) => write!(f, "invalid codec configuration: {e}"),
            ServeError::Io(kind) => write!(f, "socket failure: {kind:?}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Protocol(e) | ServeError::Disconnected(e) => Some(e),
            ServeError::Wire(e) => Some(e),
            ServeError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ProtocolError> for ServeError {
    fn from(e: ProtocolError) -> Self {
        ServeError::Protocol(e)
    }
}

impl From<WireError> for ServeError {
    fn from(e: WireError) -> Self {
        ServeError::Wire(e)
    }
}

impl From<ss_core::CodecError> for ServeError {
    fn from(e: ss_core::CodecError) -> Self {
        ServeError::Codec(e)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e.kind())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = ServeError::Remote {
            status: Status::NotFound,
            message: "no such record".to_string(),
        };
        assert!(e.to_string().contains("NotFound"));
        assert!(ServeError::Overloaded.to_string().contains("queue full"));
        let e: ServeError = ProtocolError::UnsupportedVersion(9).into();
        assert!(matches!(e, ServeError::Protocol(_)));
        assert!(std::error::Error::source(&e).is_some());
    }
}
