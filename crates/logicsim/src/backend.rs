//! Backend selection for the fault sweep: [`BackendKind`] picks between
//! the fault-patch engine and its CSR oracle
//! ([`FaultSweepOptions::backend`](crate::fault_sweep::FaultSweepOptions::backend)):
//!
//! * [`BackendKind::Csr`] — per-fault full re-simulation on the stateless
//!   batch kernel ([`Simulator`](crate::Simulator)), the slow oracle.
//! * [`BackendKind::Delta`] — fault patches on the stateful incremental
//!   engine ([`DeltaSim`](crate::delta::DeltaSim)): same detections.
//!
//! Plain batch evaluation needs no selector: it is always the CSR
//! kernel's [`Simulator::eval_into`](crate::Simulator::eval_into) /
//! [`Simulator::step_frame`](crate::Simulator::step_frame).

use std::str::FromStr;

/// Which simulation engine to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// Batch CSR-compiled kernel (stateless, fastest full sweeps).
    #[default]
    Csr,
    /// Event-driven incremental engine (stateful, patchable).
    Delta,
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BackendKind::Csr => "csr",
            BackendKind::Delta => "delta",
        })
    }
}

/// Error for unknown backend names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBackendError(String);

impl std::fmt::Display for ParseBackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown backend `{}` (expected csr|delta)", self.0)
    }
}

impl std::error::Error for ParseBackendError {}

impl FromStr for BackendKind {
    type Err = ParseBackendError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "csr" => Ok(BackendKind::Csr),
            "delta" => Ok(BackendKind::Delta),
            other => Err(ParseBackendError(other.to_owned())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_kind_parses() {
        assert_eq!("csr".parse::<BackendKind>().unwrap(), BackendKind::Csr);
        assert_eq!("DELTA".parse::<BackendKind>().unwrap(), BackendKind::Delta);
        assert!("fast".parse::<BackendKind>().is_err());
        assert_eq!(BackendKind::default(), BackendKind::Csr);
        assert_eq!(BackendKind::Delta.to_string(), "delta");
    }
}
