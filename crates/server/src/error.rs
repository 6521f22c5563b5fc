//! Typed server errors.
//!
//! Handlers return `Result<Response, ServerError>` instead of panicking
//! (the crate root denies clippy's `unwrap_used`, `expect_used` and
//! `panic` outside tests): a failure renders as a proper HTTP 4xx/5xx response
//! instead of killing the worker thread that hit it.

use crate::http::Response;

/// A request-path failure with a well-defined HTTP rendering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerError {
    /// A shared-state mutex was poisoned by a panicking thread — the
    /// state may be inconsistent, so the request fails as a 500 rather
    /// than serving garbage. The payload names the lock.
    LockPoisoned(&'static str),
    /// The client sent something unusable (malformed field, out-of-range
    /// id): 400.
    BadRequest(String),
    /// The referenced resource does not exist (expired session, evicted
    /// trace): 404.
    NotFound(String),
    /// The resource exists but cannot serve (a registered dataset whose
    /// build failed): 503.
    Unavailable(String),
}

impl ServerError {
    /// The HTTP status this error renders as.
    pub fn status(&self) -> u16 {
        match self {
            ServerError::LockPoisoned(_) => 500,
            ServerError::BadRequest(_) => 400,
            ServerError::NotFound(_) => 404,
            ServerError::Unavailable(_) => 503,
        }
    }

    /// Renders the error as an HTTP error response.
    pub fn into_response(self) -> Response {
        let status = self.status();
        match self {
            ServerError::LockPoisoned(what) => Response::error(
                status,
                &format!("internal error: {what} state is unavailable"),
            ),
            ServerError::BadRequest(msg)
            | ServerError::NotFound(msg)
            | ServerError::Unavailable(msg) => Response::error(status, &msg),
        }
    }

    /// Shorthand for the poisoned-lock case, used with `map_err`.
    pub fn poisoned<G>(what: &'static str) -> impl FnOnce(G) -> ServerError {
        move |_| ServerError::LockPoisoned(what)
    }
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::LockPoisoned(what) => write!(f, "lock poisoned: {what}"),
            ServerError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ServerError::NotFound(msg) => write!(f, "not found: {msg}"),
            ServerError::Unavailable(msg) => write!(f, "unavailable: {msg}"),
        }
    }
}

impl std::error::Error for ServerError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statuses_match_variants() {
        assert_eq!(ServerError::LockPoisoned("sessions").status(), 500);
        assert_eq!(ServerError::BadRequest("x".into()).status(), 400);
        assert_eq!(ServerError::NotFound("x".into()).status(), 404);
        assert_eq!(ServerError::Unavailable("x".into()).status(), 503);
    }

    #[test]
    fn responses_carry_status_and_message() {
        let r = ServerError::NotFound("no such session (expired?)".into()).into_response();
        assert_eq!(r.status, 404);
        assert!(String::from_utf8_lossy(&r.body).contains("no such session"));
        let r = ServerError::LockPoisoned("session table").into_response();
        assert_eq!(r.status, 500);
        assert!(String::from_utf8_lossy(&r.body).contains("session table"));
    }
}
