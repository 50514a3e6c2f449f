//! Typed errors for every failure the server can surface over HTTP.
//!
//! The request path never unwraps: each fallible step maps into a
//! [`ServeError`], and the connection handler renders it as a structured
//! JSON body with the matching status code. The variants partition into
//! client errors (bad request, unknown scenario, lost job), admission
//! rejections (over budget, queue full — retryable 429s), and server
//! faults (job execution failure, I/O).

use sph_json::Value;
use std::fmt;

#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The HTTP request itself could not be parsed (bad request line,
    /// oversized headers/body, non-UTF-8 payload).
    MalformedRequest(String),
    /// The client sent no complete request before the connection's read
    /// timeout.
    RequestTimeout,
    /// The request body was not valid JSON.
    MalformedJson(String),
    /// The JSON parsed but a parameter is missing, mistyped, or out of
    /// the accepted range.
    InvalidParam(String),
    /// The requested scenario name is not in the registry.
    UnknownScenario(String),
    /// No job with that id exists on this server.
    JobNotFound(String),
    /// No route matches the request path.
    RouteNotFound(String),
    /// The route exists but not for this method.
    MethodNotAllowed { method: String, path: String },
    /// Admission control priced the job above the per-job ceiling.
    OverBudget { price_seconds: f64, max_job_seconds: f64 },
    /// The pending queue is at capacity; retry later.
    QueueFull { depth: usize },
    /// The job ran but failed (scenario panic-free error path).
    JobFailed(String),
    /// Filesystem or socket trouble on the server side.
    Io(String),
}

impl ServeError {
    pub(crate) fn status(&self) -> u16 {
        match self {
            ServeError::MalformedRequest(_)
            | ServeError::MalformedJson(_)
            | ServeError::InvalidParam(_) => 400,
            ServeError::RequestTimeout => 408,
            ServeError::UnknownScenario(_)
            | ServeError::JobNotFound(_)
            | ServeError::RouteNotFound(_) => 404,
            ServeError::MethodNotAllowed { .. } => 405,
            ServeError::OverBudget { .. } | ServeError::QueueFull { .. } => 429,
            ServeError::JobFailed(_) | ServeError::Io(_) => 500,
        }
    }

    /// Stable machine-readable slug for clients to branch on.
    pub(crate) fn code(&self) -> &'static str {
        match self {
            ServeError::MalformedRequest(_) => "malformed_request",
            ServeError::RequestTimeout => "request_timeout",
            ServeError::MalformedJson(_) => "malformed_json",
            ServeError::InvalidParam(_) => "invalid_param",
            ServeError::UnknownScenario(_) => "unknown_scenario",
            ServeError::JobNotFound(_) => "job_not_found",
            ServeError::RouteNotFound(_) => "route_not_found",
            ServeError::MethodNotAllowed { .. } => "method_not_allowed",
            ServeError::OverBudget { .. } => "over_budget",
            ServeError::QueueFull { .. } => "queue_full",
            ServeError::JobFailed(_) => "job_failed",
            ServeError::Io(_) => "io",
        }
    }

    /// Structured JSON error body: `{"error":{"code":...,"message":...}}`
    /// plus variant-specific detail fields.
    pub(crate) fn to_body(&self) -> String {
        let mut fields =
            vec![("code", Value::str(self.code())), ("message", Value::Str(self.to_string()))];
        match self {
            ServeError::OverBudget { price_seconds, max_job_seconds } => {
                fields.push(("price_seconds", Value::Num(*price_seconds)));
                fields.push(("max_job_seconds", Value::Num(*max_job_seconds)));
            }
            ServeError::QueueFull { depth } => {
                fields.push(("queue_depth", Value::Num(*depth as f64)));
            }
            _ => {}
        }
        Value::obj(vec![("error", Value::obj(fields))]).render()
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::MalformedRequest(m) => write!(f, "malformed HTTP request: {m}"),
            ServeError::RequestTimeout => {
                write!(f, "no complete request arrived within the connection timeout")
            }
            ServeError::MalformedJson(m) => write!(f, "request body is not valid JSON: {m}"),
            ServeError::InvalidParam(m) => write!(f, "invalid parameter: {m}"),
            ServeError::UnknownScenario(name) => {
                write!(f, "unknown scenario {name:?}; see GET /scenarios")
            }
            ServeError::JobNotFound(id) => write!(f, "no job with id {id:?}"),
            ServeError::RouteNotFound(path) => write!(f, "no route for {path:?}"),
            ServeError::MethodNotAllowed { method, path } => {
                write!(f, "method {method} not allowed on {path:?}")
            }
            ServeError::OverBudget { price_seconds, max_job_seconds } => write!(
                f,
                "job priced at {price_seconds:.3e} predicted seconds exceeds the \
                 per-job ceiling of {max_job_seconds:.3e}; reduce steps or resolution"
            ),
            ServeError::QueueFull { depth } => {
                write!(f, "admission queue is full ({depth} pending); retry later")
            }
            ServeError::JobFailed(m) => write!(f, "job execution failed: {m}"),
            ServeError::Io(m) => write!(f, "server I/O error: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statuses_partition_by_fault_owner() {
        assert_eq!(ServeError::MalformedJson("x".into()).status(), 400);
        assert_eq!(ServeError::RequestTimeout.status(), 408);
        assert_eq!(ServeError::UnknownScenario("x".into()).status(), 404);
        assert_eq!(
            ServeError::MethodNotAllowed { method: "PUT".into(), path: "/jobs".into() }.status(),
            405
        );
        assert_eq!(
            ServeError::OverBudget { price_seconds: 2.0, max_job_seconds: 1.0 }.status(),
            429
        );
        assert_eq!(ServeError::Io("x".into()).status(), 500);
    }

    #[test]
    fn body_is_parseable_json_with_code_and_detail() {
        let err = ServeError::OverBudget { price_seconds: 2.5, max_job_seconds: 1.0 };
        let doc = sph_json::parse(&err.to_body()).unwrap();
        let inner = doc.get("error").unwrap();
        assert_eq!(inner.get("code").unwrap().as_str(), Some("over_budget"));
        assert_eq!(inner.get("price_seconds").unwrap().as_f64(), Some(2.5));
        assert!(inner.get("message").unwrap().as_str().unwrap().contains("ceiling"));
    }

    #[test]
    fn body_escapes_untrusted_detail() {
        // Hostile scenario names (quotes, newlines) must still yield a
        // parseable body; Display debug-escapes them, quoted() escapes
        // the rest.
        let err = ServeError::UnknownScenario("a\"b\nc".into());
        let doc = sph_json::parse(&err.to_body()).unwrap();
        let msg = doc.get("error").unwrap().get("message").unwrap();
        assert!(msg.as_str().unwrap().contains("a\\\"b\\nc"));
    }
}
