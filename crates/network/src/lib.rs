//! Generic steady-state thermal resistive networks.
//!
//! The DATE 2011 TTSV paper exploits the electrical–thermal duality: heat
//! sources are current sources, temperatures are node voltages, and thermal
//! resistances are resistors. This crate provides the generic substrate —
//! build a network of nodes, resistors, heat sources and temperature pins,
//! then solve the Kirchhoff current-law system for every node temperature
//! by dense LU — on top of which `ttsv-core` expresses the paper's compact
//! Model A network. (Model B's π-segment ladder is banded, so `ttsv-core`
//! assembles and solves it directly with a block-tridiagonal kernel.)
//!
//! # Examples
//!
//! Heat flowing through two resistors in series into the sink:
//!
//! ```
//! use ttsv_network::{Terminal, ThermalNetwork};
//! use ttsv_units::{Power, ThermalResistance};
//!
//! let mut net = ThermalNetwork::new();
//! let top = net.add_node("top");
//! let mid = net.add_node("mid");
//! net.add_resistor(top, mid, ThermalResistance::from_kelvin_per_watt(10.0));
//! net.add_resistor(mid, Terminal::Ground, ThermalResistance::from_kelvin_per_watt(5.0));
//! net.add_source(top, Power::from_watts(2.0));
//!
//! let solution = net.solve()?;
//! assert!((solution.temperature(top).as_kelvin() - 30.0).abs() < 1e-9);
//! assert!((solution.temperature(mid).as_kelvin() - 10.0).abs() < 1e-9);
//! # Ok::<(), ttsv_network::NetworkError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod network;
mod solution;

pub use error::NetworkError;
pub use network::{NodeId, Terminal, ThermalNetwork};
pub use solution::{BranchFlow, NetworkSolution};
