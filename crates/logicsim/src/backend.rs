//! Backend selection: one evaluation API over the batch CSR kernel and
//! the event-driven incremental engine.
//!
//! ATPG and the CLI's `sim` command only need "evaluate this packed
//! batch into a values buffer". [`SimBackend`] provides exactly that over
//! either engine, so callers (and the CLI's `--backend` flag) pick the
//! engine by a [`BackendKind`] value instead of by type; the fault sweep
//! reads the same value to choose between the fault-patch engine and its
//! CSR oracle:
//!
//! * [`BackendKind::Csr`] — the stateless batch kernel
//!   ([`Simulator`](crate::Simulator)): fastest for full sweeps over fresh
//!   pattern batches, so the IDDQ sweep uses it directly.
//! * [`BackendKind::Delta`] — the stateful incremental engine
//!   ([`DeltaSim`]): same results batch-for-batch.

use std::str::FromStr;

use iddq_netlist::{Netlist, PackedWord};

use crate::delta::DeltaSim;
use crate::sim::Simulator;

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

/// A simulation engine instance behind a uniform batch-evaluation API.
#[derive(Debug, Clone)]
pub enum SimBackend<W: PackedWord> {
    /// The batch CSR kernel.
    Csr(Simulator),
    /// The event-driven incremental engine.
    Delta(Box<DeltaSim<W>>),
}

impl<W: PackedWord> SimBackend<W> {
    /// Instantiates the chosen engine for `netlist`.
    #[must_use]
    pub fn new(netlist: &Netlist, kind: BackendKind) -> Self {
        match kind {
            BackendKind::Csr => SimBackend::Csr(Simulator::new(netlist)),
            BackendKind::Delta => SimBackend::Delta(Box::new(DeltaSim::new(netlist))),
        }
    }

    /// Which engine this is.
    #[must_use]
    pub fn kind(&self) -> BackendKind {
        match self {
            SimBackend::Csr(_) => BackendKind::Csr,
            SimBackend::Delta(_) => BackendKind::Delta,
        }
    }

    /// Number of primary inputs expected by [`SimBackend::eval_into`].
    #[must_use]
    pub fn num_inputs(&self) -> usize {
        match self {
            SimBackend::Csr(sim) => sim.num_inputs(),
            SimBackend::Delta(sim) => sim.num_inputs(),
        }
    }

    /// Required length of the values buffer: one packed word per node.
    #[must_use]
    pub fn node_count(&self) -> usize {
        match self {
            SimBackend::Csr(sim) => sim.node_count(),
            SimBackend::Delta(sim) => sim.node_count(),
        }
    }

    /// Evaluates one packed batch into `values` (one word per node).
    ///
    /// Takes `&mut self` because the incremental engine updates its
    /// persistent state; the CSR arm is stateless.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the number of primary inputs
    /// or `values.len()` from [`SimBackend::node_count`].
    pub fn eval_into(&mut self, inputs: &[W], values: &mut [W]) {
        match self {
            SimBackend::Csr(sim) => sim.eval_into(inputs, values),
            SimBackend::Delta(sim) => {
                sim.set_inputs(inputs);
                values.copy_from_slice(sim.values());
            }
        }
    }

    /// Number of state elements (DFFs); the required `state` length for
    /// [`SimBackend::step_frame`].
    #[must_use]
    pub fn num_state_elements(&self) -> usize {
        match self {
            SimBackend::Csr(sim) => sim.num_state_elements(),
            SimBackend::Delta(sim) => sim.num_state_elements(),
        }
    }

    /// Advances one frame: latches `state` onto the DFF outputs, evaluates
    /// the combinational fabric under `inputs`, writes the full values
    /// vector into `values`, and replaces `state` with the captured
    /// next-state (D-driver values). Identical results on either engine.
    ///
    /// # Panics
    ///
    /// Panics if `inputs`, `state`, or `values` have the wrong length.
    pub fn step_frame(&mut self, inputs: &[W], state: &mut [W], values: &mut [W]) {
        match self {
            SimBackend::Csr(sim) => sim.step_frame(inputs, state, values),
            SimBackend::Delta(sim) => {
                sim.step_frame(inputs, state);
                values.copy_from_slice(sim.values());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iddq_netlist::data;

    #[test]
    fn backends_agree_on_batches() {
        let nl = data::ripple_adder(5);
        let mut csr = SimBackend::<u64>::new(&nl, BackendKind::Csr);
        let mut delta = SimBackend::<u64>::new(&nl, BackendKind::Delta);
        assert_eq!(csr.kind(), BackendKind::Csr);
        assert_eq!(delta.kind(), BackendKind::Delta);
        assert_eq!(csr.node_count(), delta.node_count());
        let mut a = vec![0u64; csr.node_count()];
        let mut b = vec![0u64; delta.node_count()];
        for salt in 0..4u64 {
            let inputs: Vec<u64> = (0..nl.num_inputs() as u64)
                .map(|i| (salt ^ i).wrapping_mul(0x9e37_79b9_7f4a_7c15))
                .collect();
            csr.eval_into(&inputs, &mut a);
            delta.eval_into(&inputs, &mut b);
            assert_eq!(a, b, "salt {salt}");
        }
    }

    #[test]
    fn backends_agree_on_frames() {
        let mut b = iddq_netlist::NetlistBuilder::new("toggle");
        let a = b.add_input("a");
        let q = b.add_dff("q").unwrap();
        let n = b
            .add_gate("n", iddq_netlist::CellKind::Not, vec![q])
            .unwrap();
        b.set_dff_input(q, n);
        let y = b
            .add_gate("y", iddq_netlist::CellKind::Xor, vec![a, q])
            .unwrap();
        b.mark_output(y);
        let nl = b.build().unwrap();

        let mut csr = SimBackend::<u64>::new(&nl, BackendKind::Csr);
        let mut delta = SimBackend::<u64>::new(&nl, BackendKind::Delta);
        assert_eq!(csr.num_state_elements(), 1);
        let mut sa = vec![0u64; 1];
        let mut sb = vec![0u64; 1];
        let mut va = vec![0u64; csr.node_count()];
        let mut vb = vec![0u64; delta.node_count()];
        for t in 0..6u64 {
            let inputs = vec![t.wrapping_mul(0x2545_f491_4f6c_dd1d)];
            csr.step_frame(&inputs, &mut sa, &mut va);
            delta.step_frame(&inputs, &mut sb, &mut vb);
            assert_eq!(va, vb, "frame {t} values");
            assert_eq!(sa, sb, "frame {t} state");
        }
    }

    #[test]
    fn backend_kind_parses() {
        assert_eq!("csr".parse::<BackendKind>().unwrap(), BackendKind::Csr);
        assert_eq!("DELTA".parse::<BackendKind>().unwrap(), BackendKind::Delta);
        assert!("fast".parse::<BackendKind>().is_err());
        assert_eq!(BackendKind::default(), BackendKind::Csr);
        assert_eq!(BackendKind::Delta.to_string(), "delta");
    }
}
