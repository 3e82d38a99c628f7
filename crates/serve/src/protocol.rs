//! The JSON-lines wire protocol: request parsing with line-numbered typed
//! errors, and the response vocabulary.
//!
//! One request is one JSON object on one line; one response is one JSON
//! object on one line, correlated by the client-chosen `id`. The parser
//! never panics and never tears the connection down on bad input — a
//! malformed or oversized line is answered with a typed `error` response
//! carrying the 1-based line number, and the connection keeps serving.

use iddq_control::Fnv1a;
use serde::{Deserialize, Serialize, Value};
use serde_json::json;

/// A client request, wire form.
///
/// Every field is optional at the parse layer (the vendored serde maps a
/// missing object key to `None`); [`Request::validate`] enforces the
/// per-op requirements afterwards so violations produce *typed* errors,
/// not deserialization failures.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub id: Option<u64>,
    /// Operation: `ping` | `sim` | `faults` | `stats` | `sleep` |
    /// `metrics` | `drain`.
    pub op: Option<String>,
    /// Named circuit: a synthetic ISCAS-85-like combinational profile
    /// (`c*`, e.g. `"c432"`) or ISCAS-89-like sequential one (`s*`, e.g.
    /// `"s298"`).
    pub circuit: Option<String>,
    /// Inline `.bench` netlist text (alternative to `circuit`).
    pub bench: Option<String>,
    /// Fault-sweep test vectors to apply (`faults` op).
    pub vectors: Option<usize>,
    /// Packed patterns to simulate (`sim` op).
    pub patterns: Option<u64>,
    /// Frames per sequence for `sim`/`faults` (default 1). Vectors are
    /// consumed sequence-major — `frames` consecutive vectors drive one
    /// sequence from the all-zero reset state — so `frames: 1` is the
    /// combinational special case. Part of the checkpoint fingerprint:
    /// a `job` checkpointed at one depth cannot silently resume at
    /// another.
    pub frames: Option<usize>,
    /// RNG seed for vectors/patterns and the synthetic generator
    /// ([`DEFAULT_SEED`] when absent; see [`Request::seed`]).
    pub seed: Option<u64>,
    /// Bridging-fault count in the `faults` universe.
    pub bridges: Option<usize>,
    /// Per-request deadline in milliseconds, measured from receipt.
    pub deadline_ms: Option<u64>,
    /// Requested analysis tier for `stats`: `timing` | `gatesep` (the
    /// default; `separation` is its alias). The server may *downgrade*
    /// (never upgrade) and annotates the tier actually served.
    pub tier: Option<String>,
    /// Durable job key (`faults` op): progress is checkpointed under this
    /// key in the server's state directory, and a resubmission after a
    /// crash resumes from the checkpoint bit-identically.
    pub job: Option<String>,
    /// Fault dropping toggle for the sweep (default on).
    pub drop: Option<bool>,
    /// Chaos injection (tests only): `"panic"` makes the worker handler
    /// panic mid-request; `"exit"` makes the worker thread die after
    /// responding, exercising supervisor replacement.
    pub chaos: Option<String>,
    /// Diagnostic `sleep` op: how long the worker holds the slot.
    pub sleep_ms: Option<u64>,
}

/// Maximum accepted request-line length unless the server configures its
/// own: 1 MiB comfortably fits the largest inline `.bench` upload the
/// workspace generates while bounding per-connection buffering.
pub const DEFAULT_MAX_LINE_BYTES: usize = 1 << 20;

/// The seed of a request that gives none.
pub const DEFAULT_SEED: u64 = 42;

/// The operations a request can name.
pub const OPS: &[&str] = &[
    "ping", "sim", "faults", "stats", "sleep", "metrics", "drain",
];

/// A typed request-level failure, rendered into an `error` response on
/// the same connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestError {
    /// Error kind, wire form: `parse` | `invalid` | `checkpoint` |
    /// `internal` | `io`.
    pub kind: String,
    /// 1-based request-line number within the connection.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
    /// The request id, when one could be recovered from the bad line.
    pub id: Option<u64>,
}

impl RequestError {
    /// A parse-layer failure (malformed JSON, oversized line).
    #[must_use]
    pub fn parse(line: usize, message: impl Into<String>) -> Self {
        RequestError {
            kind: "parse".into(),
            line,
            message: message.into(),
            id: None,
        }
    }

    /// A request that parsed but violates the op contract.
    #[must_use]
    pub fn invalid(line: usize, message: impl Into<String>) -> Self {
        RequestError {
            kind: "invalid".into(),
            line,
            message: message.into(),
            id: None,
        }
    }

    /// Maps an [`iddq_control::EngineError`] onto the wire kinds.
    #[must_use]
    pub fn engine(line: usize, err: &iddq_control::EngineError) -> Self {
        use iddq_control::EngineError;
        let kind = match err {
            EngineError::InvalidArg(_) => "invalid",
            EngineError::Parse { .. } | EngineError::Structure(_) | EngineError::Patch(_) => {
                "parse"
            }
            EngineError::CheckpointMismatch(_) => "checkpoint",
            EngineError::Io { .. } => "io",
        };
        RequestError {
            kind: kind.into(),
            line,
            message: err.to_string(),
            id: None,
        }
    }

    /// Attaches the request id so the client can correlate the failure.
    #[must_use]
    pub fn with_id(mut self, id: Option<u64>) -> Self {
        self.id = id;
        self
    }

    /// Renders the error as a one-line JSON response.
    #[must_use]
    pub fn to_response(&self) -> Value {
        let error = json!({
            "kind": self.kind,
            "line": self.line,
            "message": self.message,
        });
        json!({
            "id": self.id,
            "status": "error",
            "error": error,
        })
    }
}

/// Parses one request line.
///
/// Returns a typed, line-numbered [`RequestError`] on malformed JSON or a
/// non-object payload; a best-effort `id` is recovered from syntactically
/// valid objects so even rejected requests stay correlatable.
pub fn parse_request(line_no: usize, text: &str) -> Result<Request, RequestError> {
    let value: Value = serde_json::from_str(text)
        .map_err(|e| RequestError::parse(line_no, format!("malformed request: {e}")))?;
    if value.as_object().is_none() {
        return Err(RequestError::parse(
            line_no,
            "request must be a JSON object",
        ));
    }
    let id = value.field("id").as_u64();
    Request::deserialize_value(&value)
        .map_err(|e| RequestError::parse(line_no, format!("bad request shape: {e}")).with_id(id))
}

impl Request {
    /// The request's seed: `seed`, else [`DEFAULT_SEED`]. The one place
    /// the default is applied, so a request without a seed and one with
    /// `seed: 42` name the same generated circuit.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed.unwrap_or(DEFAULT_SEED)
    }

    /// Checks the op-level contract: a known `op`, a circuit source where
    /// one is required, and in-range knobs. Violations come back as typed
    /// `invalid` errors carrying the request id.
    pub fn validate(&self, line_no: usize) -> Result<(), RequestError> {
        let fail = |m: String| Err(RequestError::invalid(line_no, m).with_id(self.id));
        let op = match self.op.as_deref() {
            None => return fail("missing `op`".into()),
            Some(op) if !OPS.contains(&op) => {
                return fail(format!(
                    "unknown op `{op}` (expected one of {})",
                    OPS.join(" | ")
                ))
            }
            Some(op) => op,
        };
        if matches!(op, "sim" | "faults" | "stats") {
            match (&self.circuit, &self.bench) {
                (None, None) => {
                    return fail(format!(
                        "op `{op}` needs a `circuit` name or inline `bench`"
                    ))
                }
                (Some(_), Some(_)) => {
                    return fail("give either `circuit` or `bench`, not both".into())
                }
                _ => {}
            }
        }
        if self.vectors == Some(0) {
            return fail("`vectors` must be at least 1".into());
        }
        if self.patterns == Some(0) {
            return fail("`patterns` must be at least 1".into());
        }
        if self.frames == Some(0) {
            return fail("`frames` must be at least 1".into());
        }
        if let Some(tier) = &self.tier {
            if tier.parse::<iddq_core::AnalysisTier>().is_err() {
                return fail(format!(
                    "unknown tier `{tier}` (expected timing | gatesep | separation)"
                ));
            }
        }
        if let Some(job) = &self.job {
            if job.is_empty()
                || job.len() > 64
                || !job
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-')
            {
                return fail(
                    "`job` keys are 1-64 chars of [A-Za-z0-9._-] (they name checkpoint files)"
                        .into(),
                );
            }
        }
        Ok(())
    }
}

/// FNV-1a digest over a per-fault earliest-detection table, hex-encoded.
///
/// This is the bit-identity witness of the protocol: two sweeps that
/// agree on every fault's earliest detecting vector agree on this digest,
/// so a resumed job can be checked against an uninterrupted baseline with
/// one string compare.
#[must_use]
pub fn detection_digest(first_detection: &[Option<usize>]) -> String {
    let mut h = Fnv1a::new();
    h.u64(first_detection.len() as u64);
    for d in first_detection {
        h.u64(d.map_or(u64::MAX, |v| v as u64));
    }
    format!("{:016x}", h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_request() {
        let r = parse_request(1, r#"{"id": 7, "op": "ping"}"#).unwrap();
        assert_eq!(r.id, Some(7));
        assert_eq!(r.op.as_deref(), Some("ping"));
        assert!(r.circuit.is_none());
        r.validate(1).unwrap();
    }

    #[test]
    fn malformed_json_is_line_numbered() {
        let err = parse_request(3, "{ nope").unwrap_err();
        assert_eq!(err.kind, "parse");
        assert_eq!(err.line, 3);
        let resp = err.to_response();
        assert_eq!(resp["status"], "error");
        assert_eq!(resp["error"]["line"], 3);
    }

    #[test]
    fn non_object_rejected() {
        assert!(parse_request(1, "[1,2]").is_err());
        assert!(parse_request(1, "42").is_err());
    }

    #[test]
    fn id_recovered_from_shape_errors() {
        // `op` with a non-string payload: parse succeeds as Value, shape
        // check fails, but the id must survive into the error.
        let err = parse_request(2, r#"{"id": 9, "op": 42}"#).unwrap_err();
        assert_eq!(err.id, Some(9));
    }

    #[test]
    fn validation_catches_contract_violations() {
        let mk = |text: &str| parse_request(1, text).unwrap().validate(1).unwrap_err();
        assert!(mk(r#"{"op": "warp"}"#).message.contains("unknown op"));
        assert!(mk(r#"{"op": "sim"}"#).message.contains("`circuit`"));
        assert!(mk(r#"{"op": "sim", "circuit": "c17", "bench": "x"}"#)
            .message
            .contains("not both"));
        assert!(mk(r#"{"op": "faults", "circuit": "c17", "vectors": 0}"#)
            .message
            .contains("vectors"));
        assert!(mk(r#"{"op": "faults", "circuit": "s27", "frames": 0}"#)
            .message
            .contains("frames"));
        assert!(mk(r#"{"op": "stats", "circuit": "c17", "tier": "turbo"}"#)
            .message
            .contains("tier"));
        assert!(
            mk(r#"{"op": "faults", "circuit": "c17", "job": "../evil"}"#)
                .message
                .contains("job")
        );
        assert_eq!(mk(r#"{}"#).message, "missing `op`");
    }

    #[test]
    fn digest_distinguishes_detection_tables() {
        let a = detection_digest(&[Some(3), None, Some(0)]);
        let b = detection_digest(&[Some(3), None, Some(1)]);
        let c = detection_digest(&[Some(3), None, Some(0)]);
        assert_ne!(a, b);
        assert_eq!(a, c);
        // Pinned: resumed-job digests are compared against this format.
        assert_eq!(a, "b4d1f07c773deb3d");
    }
}
