//! Network construction and the KCL solve.

use ttsv_linalg::{CooBuilder, DenseMatrix};
use ttsv_units::{Power, TemperatureDelta, ThermalResistance};

use crate::error::NetworkError;
use crate::solution::NetworkSolution;

/// Handle to a node created by [`ThermalNetwork::add_node`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

/// One endpoint of a resistor: either a created node or the ground
/// (heat-sink reference, temperature 0 by definition).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Terminal {
    /// The temperature reference (the paper's heat-sink-adjacent surface).
    Ground,
    /// An interior node.
    Node(NodeId),
}

impl From<NodeId> for Terminal {
    fn from(id: NodeId) -> Self {
        Terminal::Node(id)
    }
}

#[derive(Debug, Clone)]
pub(crate) struct Resistor {
    pub(crate) a: Terminal,
    pub(crate) b: Terminal,
    pub(crate) resistance: ThermalResistance,
}

/// A steady-state thermal resistive network (builder + solver).
///
/// See the [crate docs](crate) for an end-to-end example.
#[derive(Debug, Clone, Default)]
pub struct ThermalNetwork {
    pub(crate) node_names: Vec<String>,
    pub(crate) resistors: Vec<Resistor>,
    /// Heat injected per node (watts), dense over node ids.
    pub(crate) sources: Vec<(NodeId, Power)>,
    /// Nodes pinned to a fixed temperature above the reference.
    pub(crate) pins: Vec<(NodeId, TemperatureDelta)>,
}

impl ThermalNetwork {
    /// Creates an empty network.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node; the name is used only in diagnostics.
    pub fn add_node(&mut self, name: impl Into<String>) -> NodeId {
        self.node_names.push(name.into());
        NodeId(self.node_names.len() - 1)
    }

    /// Number of nodes created so far (excluding ground).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.node_names.len()
    }

    /// Number of resistors added so far.
    #[must_use]
    pub fn resistor_count(&self) -> usize {
        self.resistors.len()
    }

    /// The diagnostic name given to `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` belongs to a different network.
    #[must_use]
    pub fn node_name(&self, node: NodeId) -> &str {
        &self.node_names[node.0]
    }

    /// Connects two terminals with a thermal resistor. Returns the branch
    /// index usable with
    /// [`NetworkSolution::branch_flow`](crate::NetworkSolution::branch_flow).
    ///
    /// # Panics
    ///
    /// Panics if the resistance is not strictly positive and finite, if a
    /// terminal refers to a node that does not exist, or if both terminals
    /// are the same node.
    pub fn add_resistor(
        &mut self,
        a: impl Into<Terminal>,
        b: impl Into<Terminal>,
        resistance: ThermalResistance,
    ) -> usize {
        let (a, b) = (a.into(), b.into());
        assert!(
            resistance.as_kelvin_per_watt() > 0.0 && resistance.is_finite(),
            "resistance must be positive and finite, got {resistance}"
        );
        self.check_terminal(a);
        self.check_terminal(b);
        assert!(a != b, "resistor endpoints must differ, got {a:?} twice");
        self.resistors.push(Resistor { a, b, resistance });
        self.resistors.len() - 1
    }

    /// Injects heat into a node (a current source to ground in the
    /// electrical analogy). Multiple sources on one node accumulate.
    ///
    /// # Panics
    ///
    /// Panics if the node does not exist or the power is not finite.
    pub fn add_source(&mut self, node: NodeId, power: Power) {
        assert!(power.is_finite(), "source power must be finite");
        self.check_terminal(Terminal::Node(node));
        self.sources.push((node, power));
    }

    /// Pins a node to a fixed temperature above the reference (a Dirichlet
    /// condition / ideal temperature source).
    ///
    /// # Panics
    ///
    /// Panics if the node does not exist, is already pinned, or the
    /// temperature is not finite.
    pub fn pin_temperature(&mut self, node: NodeId, temperature: TemperatureDelta) {
        assert!(temperature.is_finite(), "pinned temperature must be finite");
        self.check_terminal(Terminal::Node(node));
        assert!(
            self.pins.iter().all(|(n, _)| *n != node),
            "node '{}' is already pinned",
            self.node_name(node)
        );
        self.pins.push((node, temperature));
    }

    fn check_terminal(&self, t: Terminal) {
        if let Terminal::Node(NodeId(i)) = t {
            assert!(
                i < self.node_names.len(),
                "node id {i} does not exist (only {} nodes)",
                self.node_names.len()
            );
        }
    }

    /// Total heat injected by all sources.
    #[must_use]
    pub fn total_source_power(&self) -> Power {
        self.sources.iter().map(|(_, p)| *p).sum()
    }

    /// Solves the KCL system `G·T = q` for all node temperatures by dense
    /// LU — exact, `O(n³)`, and sized for the compact networks this crate
    /// serves (Model A has `2·planes + 1` nodes).
    ///
    /// # Errors
    ///
    /// * [`NetworkError::NoReference`] — nothing ties the network to a
    ///   temperature reference, so the system is singular by construction.
    /// * [`NetworkError::FloatingNode`] — some node has no path to the
    ///   reference.
    /// * [`NetworkError::Solver`] — the LU factorization hit a singular
    ///   pivot.
    pub fn solve(&self) -> Result<NetworkSolution, NetworkError> {
        let n = self.node_names.len();
        let has_ground_tie = self
            .resistors
            .iter()
            .any(|r| r.a == Terminal::Ground || r.b == Terminal::Ground);
        if !has_ground_tie && self.pins.is_empty() {
            return Err(NetworkError::NoReference);
        }
        self.check_connectivity()?;

        // Unknowns: all nodes that are not pinned. Pinned temperatures are
        // moved to the right-hand side.
        let mut unknown_index = vec![usize::MAX; n];
        let mut unknowns = Vec::new();
        let pinned: Vec<Option<TemperatureDelta>> = {
            let mut v = vec![None; n];
            for (node, t) in &self.pins {
                v[node.0] = Some(*t);
            }
            v
        };
        for i in 0..n {
            if pinned[i].is_none() {
                unknown_index[i] = unknowns.len();
                unknowns.push(i);
            }
        }
        let m = unknowns.len();

        // Known temperature of a terminal, if any (ground or pinned).
        let known_t = |t: Terminal| -> Option<f64> {
            match t {
                Terminal::Ground => Some(0.0),
                Terminal::Node(NodeId(i)) => pinned[i].map(TemperatureDelta::as_kelvin),
            }
        };

        let mut rhs = vec![0.0; m];
        for (node, p) in &self.sources {
            if let Some(row) = unknown_slot(&unknown_index, node.0) {
                rhs[row] += p.as_watts();
            }
            // Sources on pinned nodes flow straight into the pin; they do not
            // enter the unknown system.
        }

        let mut coo = CooBuilder::new(m.max(1), m.max(1));
        for r in &self.resistors {
            let g = 1.0 / r.resistance.as_kelvin_per_watt();
            let slot_a = terminal_slot(&unknown_index, r.a);
            let slot_b = terminal_slot(&unknown_index, r.b);
            match (slot_a, slot_b) {
                (Some(i), Some(j)) => {
                    coo.add(i, i, g);
                    coo.add(j, j, g);
                    coo.add(i, j, -g);
                    coo.add(j, i, -g);
                }
                (Some(i), None) => {
                    coo.add(i, i, g);
                    if let Some(t) = known_t(r.b) {
                        rhs[i] += g * t;
                    }
                }
                (None, Some(j)) => {
                    coo.add(j, j, g);
                    if let Some(t) = known_t(r.a) {
                        rhs[j] += g * t;
                    }
                }
                (None, None) => {} // between two knowns: no unknown coupling
            }
        }

        let temps_unknown: Vec<f64> = if m == 0 {
            Vec::new()
        } else {
            let csr = coo.to_csr();
            let mut dense = DenseMatrix::zeros(m, m);
            for i in 0..m {
                for (j, v) in csr.row_entries(i) {
                    dense[(i, j)] = v;
                }
            }
            dense.solve(&rhs)?
        };

        // Scatter back to full node order.
        let mut temperatures = vec![TemperatureDelta::ZERO; n];
        for (slot, &node) in unknowns.iter().enumerate() {
            temperatures[node] = TemperatureDelta::from_kelvin(temps_unknown[slot]);
        }
        for (node, t) in &self.pins {
            temperatures[node.0] = *t;
        }

        Ok(NetworkSolution::new(self.clone(), temperatures))
    }

    /// Thevenin equivalent resistance between two terminals: all heat
    /// sources zeroed, `b` taken as the reference, 1 W injected at `a`;
    /// the resulting temperature at `a` *is* the equivalent resistance.
    ///
    /// This is the compact-model reduction the paper's \[10\]/\[11\] lineage
    /// performs on full-circuit networks.
    ///
    /// # Errors
    ///
    /// * [`NetworkError::FloatingNode`] if parts of the network cannot
    ///   reach `b`.
    /// * Any solver error from the underlying solve.
    ///
    /// # Panics
    ///
    /// Panics if a terminal refers to a node that does not exist, or if
    /// `a == b` (the equivalent resistance of a terminal to itself is not
    /// meaningful).
    pub fn equivalent_resistance(
        &self,
        a: impl Into<Terminal>,
        b: impl Into<Terminal>,
    ) -> Result<ThermalResistance, NetworkError> {
        let (a, b) = (a.into(), b.into());
        self.check_terminal(a);
        self.check_terminal(b);
        assert!(a != b, "equivalent resistance needs two distinct terminals");

        // Rebuild without sources/pins, re-referenced at `b`.
        let mut probe = ThermalNetwork {
            node_names: self.node_names.clone(),
            resistors: self.resistors.clone(),
            sources: Vec::new(),
            pins: Vec::new(),
        };
        // Ground plays no special role here; when it participates (as a
        // terminal of some resistor or of the probe), alias it to a real
        // node so `b` can become the reference instead.
        let ground_participates = a == Terminal::Ground
            || b == Terminal::Ground
            || self
                .resistors
                .iter()
                .any(|r| r.a == Terminal::Ground || r.b == Terminal::Ground);
        let ground_alias = ground_participates.then(|| {
            let alias = probe.add_node("(ground alias)");
            for r in &mut probe.resistors {
                if r.a == Terminal::Ground {
                    r.a = Terminal::Node(alias);
                }
                if r.b == Terminal::Ground {
                    r.b = Terminal::Node(alias);
                }
            }
            alias
        });
        let as_node = |t: Terminal| match t {
            Terminal::Ground => ground_alias.expect("ground participates"),
            Terminal::Node(id) => id,
        };
        let (a, b) = (as_node(a), as_node(b));
        probe.pin_temperature(b, TemperatureDelta::ZERO);
        probe.add_source(a, Power::from_watts(1.0));
        let solution = probe.solve()?;
        Ok(ThermalResistance::from_kelvin_per_watt(
            solution.temperature(a).as_kelvin(),
        ))
    }

    /// Verifies every node reaches the reference through resistors.
    fn check_connectivity(&self) -> Result<(), NetworkError> {
        let n = self.node_names.len();
        if n == 0 {
            return Ok(());
        }
        // Union-find-free BFS from all reference terminals.
        let mut adjacency: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut frontier: Vec<usize> = Vec::new();
        let mut reached = vec![false; n];
        for (node, _) in &self.pins {
            if !reached[node.0] {
                reached[node.0] = true;
                frontier.push(node.0);
            }
        }
        for r in &self.resistors {
            match (r.a, r.b) {
                (Terminal::Node(NodeId(i)), Terminal::Node(NodeId(j))) => {
                    adjacency[i].push(j);
                    adjacency[j].push(i);
                }
                (Terminal::Ground, Terminal::Node(NodeId(i)))
                | (Terminal::Node(NodeId(i)), Terminal::Ground) => {
                    if !reached[i] {
                        reached[i] = true;
                        frontier.push(i);
                    }
                }
                (Terminal::Ground, Terminal::Ground) => {}
            }
        }
        while let Some(i) = frontier.pop() {
            for &j in &adjacency[i] {
                if !reached[j] {
                    reached[j] = true;
                    frontier.push(j);
                }
            }
        }
        if let Some(i) = reached.iter().position(|&r| !r) {
            return Err(NetworkError::FloatingNode {
                name: self.node_names[i].clone(),
            });
        }
        Ok(())
    }
}

fn unknown_slot(unknown_index: &[usize], node: usize) -> Option<usize> {
    let s = unknown_index[node];
    (s != usize::MAX).then_some(s)
}

fn terminal_slot(unknown_index: &[usize], t: Terminal) -> Option<usize> {
    match t {
        Terminal::Ground => None,
        Terminal::Node(NodeId(i)) => unknown_slot(unknown_index, i),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(v: f64) -> ThermalResistance {
        ThermalResistance::from_kelvin_per_watt(v)
    }

    #[test]
    fn series_divider() {
        let mut net = ThermalNetwork::new();
        let a = net.add_node("a");
        let b = net.add_node("b");
        net.add_resistor(a, b, r(10.0));
        net.add_resistor(b, Terminal::Ground, r(5.0));
        net.add_source(a, Power::from_watts(2.0));
        let sol = net.solve().unwrap();
        assert!((sol.temperature(a).as_kelvin() - 30.0).abs() < 1e-10);
        assert!((sol.temperature(b).as_kelvin() - 10.0).abs() < 1e-10);
    }

    #[test]
    fn parallel_resistors_halve() {
        let mut net = ThermalNetwork::new();
        let a = net.add_node("a");
        net.add_resistor(a, Terminal::Ground, r(10.0));
        net.add_resistor(a, Terminal::Ground, r(10.0));
        net.add_source(a, Power::from_watts(1.0));
        let sol = net.solve().unwrap();
        assert!((sol.temperature(a).as_kelvin() - 5.0).abs() < 1e-10);
    }

    #[test]
    fn pinned_node_acts_as_source() {
        // a --10-- b(pinned at 7K), no heat sources: a floats to 7K.
        let mut net = ThermalNetwork::new();
        let a = net.add_node("a");
        let b = net.add_node("b");
        net.add_resistor(a, b, r(10.0));
        net.pin_temperature(b, TemperatureDelta::from_kelvin(7.0));
        let sol = net.solve().unwrap();
        assert!((sol.temperature(a).as_kelvin() - 7.0).abs() < 1e-10);
        assert!((sol.temperature(b).as_kelvin() - 7.0).abs() < 1e-10);
    }

    #[test]
    fn pin_between_source_and_ground_splits_flow() {
        // source 1W → a --1-- b(pinned 0) --1-- ground.
        // a = pin + 1W·1Ω = 1K; all source power exits via the pin.
        let mut net = ThermalNetwork::new();
        let a = net.add_node("a");
        let b = net.add_node("b");
        net.add_resistor(a, b, r(1.0));
        net.add_resistor(b, Terminal::Ground, r(1.0));
        net.add_source(a, Power::from_watts(1.0));
        net.pin_temperature(b, TemperatureDelta::ZERO);
        let sol = net.solve().unwrap();
        assert!((sol.temperature(a).as_kelvin() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn no_reference_is_detected() {
        let mut net = ThermalNetwork::new();
        let a = net.add_node("a");
        let b = net.add_node("b");
        net.add_resistor(a, b, r(1.0));
        net.add_source(a, Power::from_watts(1.0));
        assert_eq!(net.solve().unwrap_err(), NetworkError::NoReference);
    }

    #[test]
    fn floating_node_is_detected_by_name() {
        let mut net = ThermalNetwork::new();
        let a = net.add_node("connected");
        let b = net.add_node("floating");
        let c = net.add_node("floating2");
        net.add_resistor(a, Terminal::Ground, r(1.0));
        net.add_resistor(b, c, r(1.0));
        match net.solve().unwrap_err() {
            NetworkError::FloatingNode { name } => assert!(name.starts_with("floating")),
            other => panic!("expected FloatingNode, got {other:?}"),
        }
    }

    #[test]
    fn dense_matches_series_ladder_closed_form() {
        // A 300-node chain to ground: every watt injected at node `k` or
        // above crosses each resistor below it, so the temperatures follow
        // in closed form from the series resistances and suffix sums of the
        // sources.
        let mut net = ThermalNetwork::new();
        let nodes: Vec<NodeId> = (0..300).map(|i| net.add_node(format!("n{i}"))).collect();
        net.add_resistor(nodes[0], Terminal::Ground, r(1.0));
        for w in nodes.windows(2) {
            net.add_resistor(w[0], w[1], r(0.5));
        }
        let source = |i: usize| if i.is_multiple_of(7) { 0.01 } else { 0.0 };
        for (i, n) in nodes.iter().enumerate() {
            if source(i) > 0.0 {
                net.add_source(*n, Power::from_watts(source(i)));
            }
        }
        let sol = net.solve().unwrap();
        let mut above: f64 = (0..nodes.len()).map(source).sum();
        let mut expected = 1.0 * above;
        for (i, n) in nodes.iter().enumerate() {
            if i > 0 {
                expected += 0.5 * above;
            }
            above -= source(i);
            let got = sol.temperature(*n).as_kelvin();
            assert!(
                (got - expected).abs() <= 1e-9 * expected,
                "node {i}: {got} vs closed form {expected}"
            );
        }
    }

    #[test]
    fn superposition_holds() {
        // Linear network ⇒ response to q1+q2 equals sum of responses.
        let build = |q1: f64, q2: f64| {
            let mut net = ThermalNetwork::new();
            let a = net.add_node("a");
            let b = net.add_node("b");
            net.add_resistor(a, b, r(3.0));
            net.add_resistor(b, Terminal::Ground, r(2.0));
            net.add_resistor(a, Terminal::Ground, r(7.0));
            if q1 != 0.0 {
                net.add_source(a, Power::from_watts(q1));
            }
            if q2 != 0.0 {
                net.add_source(b, Power::from_watts(q2));
            }
            let sol = net.solve().unwrap();
            (
                sol.temperature(a).as_kelvin(),
                sol.temperature(b).as_kelvin(),
            )
        };
        let (a1, b1) = build(2.0, 0.0);
        let (a2, b2) = build(0.0, 5.0);
        let (a12, b12) = build(2.0, 5.0);
        assert!((a1 + a2 - a12).abs() < 1e-10);
        assert!((b1 + b2 - b12).abs() < 1e-10);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_resistance_rejected() {
        let mut net = ThermalNetwork::new();
        let a = net.add_node("a");
        net.add_resistor(a, Terminal::Ground, ThermalResistance::ZERO);
    }

    #[test]
    #[should_panic(expected = "endpoints must differ")]
    fn self_loop_rejected() {
        let mut net = ThermalNetwork::new();
        let a = net.add_node("a");
        net.add_resistor(a, a, r(1.0));
    }

    #[test]
    #[should_panic(expected = "already pinned")]
    fn double_pin_rejected() {
        let mut net = ThermalNetwork::new();
        let a = net.add_node("a");
        net.pin_temperature(a, TemperatureDelta::ZERO);
        net.pin_temperature(a, TemperatureDelta::from_kelvin(1.0));
    }

    #[test]
    fn equivalent_resistance_of_series_chain() {
        let mut net = ThermalNetwork::new();
        let a = net.add_node("a");
        let b = net.add_node("b");
        net.add_resistor(a, b, r(10.0));
        net.add_resistor(b, Terminal::Ground, r(5.0));
        let eq = net.equivalent_resistance(a, Terminal::Ground).unwrap();
        assert!((eq.as_kelvin_per_watt() - 15.0).abs() < 1e-10);
        let eq_ab = net.equivalent_resistance(a, b).unwrap();
        assert!((eq_ab.as_kelvin_per_watt() - 10.0).abs() < 1e-10);
    }

    #[test]
    fn equivalent_resistance_of_parallel_pair() {
        let mut net = ThermalNetwork::new();
        let a = net.add_node("a");
        net.add_resistor(a, Terminal::Ground, r(10.0));
        net.add_resistor(a, Terminal::Ground, r(40.0));
        let eq = net.equivalent_resistance(a, Terminal::Ground).unwrap();
        assert!((eq.as_kelvin_per_watt() - 8.0).abs() < 1e-10);
    }

    #[test]
    fn equivalent_resistance_of_wheatstone_bridge() {
        // Balanced bridge: the middle resistor carries nothing and the
        // equivalent is (1+1) ∥ (1+1) = 1.
        let mut net = ThermalNetwork::new();
        let top = net.add_node("top");
        let left = net.add_node("left");
        let right = net.add_node("right");
        net.add_resistor(top, left, r(1.0));
        net.add_resistor(top, right, r(1.0));
        net.add_resistor(left, Terminal::Ground, r(1.0));
        net.add_resistor(right, Terminal::Ground, r(1.0));
        net.add_resistor(left, right, r(3.0)); // bridge
        let eq = net.equivalent_resistance(top, Terminal::Ground).unwrap();
        assert!((eq.as_kelvin_per_watt() - 1.0).abs() < 1e-10, "{eq}");
    }

    #[test]
    fn equivalent_resistance_ignores_existing_sources() {
        let mut net = ThermalNetwork::new();
        let a = net.add_node("a");
        net.add_resistor(a, Terminal::Ground, r(7.0));
        net.add_source(a, Power::from_watts(123.0)); // must not matter
        let eq = net.equivalent_resistance(a, Terminal::Ground).unwrap();
        assert!((eq.as_kelvin_per_watt() - 7.0).abs() < 1e-10);
    }

    #[test]
    #[should_panic(expected = "distinct terminals")]
    fn equivalent_resistance_needs_two_terminals() {
        let mut net = ThermalNetwork::new();
        let a = net.add_node("a");
        net.add_resistor(a, Terminal::Ground, r(1.0));
        let _ = net.equivalent_resistance(a, a);
    }
}
