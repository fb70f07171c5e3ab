//! Net structure: places, transitions, arcs, guards.

use std::fmt;
use std::sync::Arc;

use crate::{Marking, SrnError};

/// Identifier of a place within its net.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PlaceId(pub(crate) usize);

impl PlaceId {
    /// The raw index of the place.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Identifier of a transition within its net.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TransId(pub(crate) usize);

impl TransId {
    /// The raw index of the transition.
    pub fn index(self) -> usize {
        self.0
    }

    /// Reconstructs an id from a raw index (e.g. one obtained from
    /// [`index`](Self::index)). Using an index from a different net is a
    /// logic error that later methods will catch.
    pub fn from_index(index: usize) -> Self {
        TransId(index)
    }
}

/// Marking-dependent rate function of a timed transition.
pub(crate) type RateFn = Arc<dyn Fn(&Marking) -> f64 + Send + Sync>;
/// Guard predicate; a transition is enabled only when its guard is true.
pub(crate) type GuardFn = Arc<dyn Fn(&Marking) -> bool + Send + Sync>;

/// Whether a transition is timed (exponential) or immediate.
#[derive(Clone)]
pub enum TransitionKind {
    /// Fires after an exponentially distributed delay whose rate may depend
    /// on the current marking.
    Timed {
        /// Rate function, evaluated per tangible marking.
        rate: RateFn,
    },
    /// Fires in zero time; conflicts among enabled immediates of the same
    /// (maximal) priority are resolved probabilistically by weight.
    Immediate {
        /// Relative firing weight (> 0).
        weight: f64,
        /// Priority; only the highest-priority enabled immediates compete.
        priority: u32,
    },
}

impl fmt::Debug for TransitionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransitionKind::Timed { .. } => f.write_str("Timed"),
            TransitionKind::Immediate { weight, priority } => f
                .debug_struct("Immediate")
                .field("weight", weight)
                .field("priority", priority)
                .finish(),
        }
    }
}

pub(crate) struct Place {
    pub name: String,
    pub initial: u32,
}

pub(crate) struct Transition {
    pub name: String,
    pub kind: TransitionKind,
    pub guard: Option<GuardFn>,
    /// `(place, multiplicity)` input arcs.
    pub inputs: Vec<(PlaceId, u32)>,
    /// `(place, multiplicity)` output arcs.
    pub outputs: Vec<(PlaceId, u32)>,
    /// `(place, threshold)` inhibitor arcs: disabled when tokens ≥ threshold.
    pub inhibitors: Vec<(PlaceId, u32)>,
}

/// A stochastic reward net.
///
/// Build the structure with the `add_*` methods, then call
/// [`solve`](Srn::solve) (or [`state_space`](Srn::state_space) for manual
/// control) to generate and solve the underlying CTMC.
///
/// See the [crate-level documentation](crate) for a complete example.
pub struct Srn {
    name: String,
    pub(crate) places: Vec<Place>,
    pub(crate) transitions: Vec<Transition>,
}

impl fmt::Debug for Srn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Srn")
            .field("name", &self.name)
            .field("places", &self.places.len())
            .field("transitions", &self.transitions.len())
            .finish()
    }
}

impl Srn {
    /// Creates an empty net with a diagnostic name.
    pub fn new(name: impl Into<String>) -> Self {
        Srn {
            name: name.into(),
            places: Vec::new(),
            transitions: Vec::new(),
        }
    }

    /// The net's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of places.
    pub fn place_count(&self) -> usize {
        self.places.len()
    }

    /// Number of transitions.
    pub fn transition_count(&self) -> usize {
        self.transitions.len()
    }

    /// Adds a place holding `initial` tokens in the initial marking.
    pub fn add_place(&mut self, name: impl Into<String>, initial: u32) -> PlaceId {
        self.places.push(Place {
            name: name.into(),
            initial,
        });
        PlaceId(self.places.len() - 1)
    }

    /// Adds a timed transition with a constant rate.
    pub fn add_timed(&mut self, name: impl Into<String>, rate: f64) -> TransId {
        self.add_timed_fn(name, move |_| rate)
    }

    /// Adds a timed transition with a marking-dependent rate.
    ///
    /// SPNP calls these *marking dependent firing rates*; the paper uses
    /// them for the `#Psvcup · λ` rates of its upper-layer model.
    pub fn add_timed_fn<F>(&mut self, name: impl Into<String>, rate: F) -> TransId
    where
        F: Fn(&Marking) -> f64 + Send + Sync + 'static,
    {
        self.transitions.push(Transition {
            name: name.into(),
            kind: TransitionKind::Timed {
                rate: Arc::new(rate),
            },
            guard: None,
            inputs: Vec::new(),
            outputs: Vec::new(),
            inhibitors: Vec::new(),
        });
        TransId(self.transitions.len() - 1)
    }

    /// Adds an immediate transition with weight 1 and priority 0.
    pub fn add_immediate(&mut self, name: impl Into<String>) -> TransId {
        self.add_immediate_weighted(name, 1.0, 0)
    }

    /// Adds an immediate transition with an explicit weight and priority.
    pub fn add_immediate_weighted(
        &mut self,
        name: impl Into<String>,
        weight: f64,
        priority: u32,
    ) -> TransId {
        self.transitions.push(Transition {
            name: name.into(),
            kind: TransitionKind::Immediate { weight, priority },
            guard: None,
            inputs: Vec::new(),
            outputs: Vec::new(),
            inhibitors: Vec::new(),
        });
        TransId(self.transitions.len() - 1)
    }

    fn check_place(&self, p: PlaceId) -> Result<(), SrnError> {
        if p.0 >= self.places.len() {
            Err(SrnError::UnknownPlace { index: p.0 })
        } else {
            Ok(())
        }
    }

    fn check_trans(&self, t: TransId) -> Result<(), SrnError> {
        if t.0 >= self.transitions.len() {
            Err(SrnError::UnknownTransition { index: t.0 })
        } else {
            Ok(())
        }
    }

    /// Adds an input arc `place → transition` with the given multiplicity.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown ids or zero multiplicity.
    pub fn add_input(&mut self, t: TransId, p: PlaceId, multiplicity: u32) -> Result<(), SrnError> {
        self.check_place(p)?;
        self.check_trans(t)?;
        if multiplicity == 0 {
            return Err(SrnError::ZeroMultiplicity);
        }
        self.transitions[t.0].inputs.push((p, multiplicity));
        Ok(())
    }

    /// Adds an output arc `transition → place` with the given multiplicity.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown ids or zero multiplicity.
    pub fn add_output(
        &mut self,
        t: TransId,
        p: PlaceId,
        multiplicity: u32,
    ) -> Result<(), SrnError> {
        self.check_place(p)?;
        self.check_trans(t)?;
        if multiplicity == 0 {
            return Err(SrnError::ZeroMultiplicity);
        }
        self.transitions[t.0].outputs.push((p, multiplicity));
        Ok(())
    }

    /// Adds an inhibitor arc: the transition is disabled while `place`
    /// holds at least `threshold` tokens.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown ids or zero threshold.
    pub fn add_inhibitor(
        &mut self,
        t: TransId,
        p: PlaceId,
        threshold: u32,
    ) -> Result<(), SrnError> {
        self.check_place(p)?;
        self.check_trans(t)?;
        if threshold == 0 {
            return Err(SrnError::ZeroMultiplicity);
        }
        self.transitions[t.0].inhibitors.push((p, threshold));
        Ok(())
    }

    /// Convenience: input + output pair moving one token `from → to`
    /// through the transition.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown ids.
    pub fn add_move(&mut self, t: TransId, from: PlaceId, to: PlaceId) -> Result<(), SrnError> {
        self.add_input(t, from, 1)?;
        self.add_output(t, to, 1)
    }

    /// Attaches a guard predicate to a transition (SPNP guard function).
    ///
    /// The transition can fire only in markings where the guard is true.
    /// Attaching a second guard replaces the first.
    ///
    /// # Errors
    ///
    /// Returns an error for an unknown transition id.
    pub fn set_guard<F>(&mut self, t: TransId, guard: F) -> Result<(), SrnError>
    where
        F: Fn(&Marking) -> bool + Send + Sync + 'static,
    {
        self.check_trans(t)?;
        self.transitions[t.0].guard = Some(Arc::new(guard));
        Ok(())
    }

    /// The initial marking derived from the places' initial token counts.
    pub fn initial_marking(&self) -> Marking {
        Marking::from_tokens(self.places.iter().map(|p| p.initial).collect())
    }

    /// Name of a place.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this net.
    pub fn place_name(&self, p: PlaceId) -> &str {
        &self.places[p.0].name
    }

    /// Name of a transition.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this net.
    pub fn transition_name(&self, t: TransId) -> &str {
        &self.transitions[t.0].name
    }

    /// Kind of a transition.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this net.
    pub fn transition_kind(&self, t: TransId) -> &TransitionKind {
        &self.transitions[t.0].kind
    }

    /// All place ids in definition order.
    pub fn place_ids(&self) -> impl Iterator<Item = PlaceId> {
        (0..self.places.len()).map(PlaceId)
    }

    /// All transition ids in definition order.
    pub fn transition_ids(&self) -> impl Iterator<Item = TransId> {
        (0..self.transitions.len()).map(TransId)
    }

    /// Looks up a place by name.
    pub fn find_place(&self, name: &str) -> Option<PlaceId> {
        self.places.iter().position(|p| p.name == name).map(PlaceId)
    }

    /// Looks up a transition by name.
    pub fn find_transition(&self, name: &str) -> Option<TransId> {
        self.transitions
            .iter()
            .position(|t| t.name == name)
            .map(TransId)
    }

    /// Whether transition `t` is enabled in marking `m` (tokens, inhibitors
    /// and guard; immediate-priority competition is resolved by the
    /// reachability generator, not here).
    ///
    /// # Panics
    ///
    /// Panics if `t` does not belong to this net or `m` has the wrong
    /// number of places.
    pub fn is_enabled(&self, t: TransId, m: &Marking) -> bool {
        assert_eq!(m.len(), self.places.len(), "marking has wrong arity");
        let tr = &self.transitions[t.0];
        for &(p, mult) in &tr.inputs {
            if m.tokens(p) < mult {
                return false;
            }
        }
        for &(p, thresh) in &tr.inhibitors {
            if m.tokens(p) >= thresh {
                return false;
            }
        }
        if let Some(g) = &tr.guard {
            if !g(m) {
                return false;
            }
        }
        true
    }

    /// The marking after firing `t` in `m`.
    ///
    /// # Panics
    ///
    /// Panics if the transition is not enabled (callers must check first)
    /// or the ids are foreign.
    pub fn fire(&self, t: TransId, m: &Marking) -> Marking {
        assert!(self.is_enabled(t, m), "fired a disabled transition");
        let tr = &self.transitions[t.0];
        let mut next = m.clone();
        for &(p, mult) in &tr.inputs {
            next.tokens_mut()[p.index()] -= mult;
        }
        for &(p, mult) in &tr.outputs {
            next.tokens_mut()[p.index()] += mult;
        }
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_net() -> (Srn, PlaceId, PlaceId, TransId) {
        let mut net = Srn::new("t");
        let a = net.add_place("A", 1);
        let b = net.add_place("B", 0);
        let t = net.add_timed("T", 1.0);
        net.add_move(t, a, b).unwrap();
        (net, a, b, t)
    }

    #[test]
    fn enablement_requires_tokens() {
        let (net, a, b, t) = simple_net();
        let m0 = net.initial_marking();
        assert!(net.is_enabled(t, &m0));
        let m1 = net.fire(t, &m0);
        assert_eq!(m1.tokens(a), 0);
        assert_eq!(m1.tokens(b), 1);
        assert!(!net.is_enabled(t, &m1));
    }

    #[test]
    fn inhibitor_disables() {
        let (mut net, _a, b, t) = simple_net();
        net.add_inhibitor(t, b, 1).unwrap();
        let m0 = net.initial_marking();
        assert!(net.is_enabled(t, &m0));
        // Put a token in B by hand.
        let m = Marking::from_tokens(vec![1, 1]);
        assert!(!net.is_enabled(t, &m));
    }

    #[test]
    fn guard_disables() {
        let (mut net, _a, b, t) = simple_net();
        net.set_guard(t, move |m| m.tokens(b) == 0).unwrap();
        assert!(net.is_enabled(t, &net.initial_marking()));
        let m = Marking::from_tokens(vec![1, 1]);
        assert!(!net.is_enabled(t, &m));
    }

    #[test]
    fn multiplicity_is_respected() {
        let mut net = Srn::new("m");
        let a = net.add_place("A", 3);
        let b = net.add_place("B", 0);
        let t = net.add_timed("T", 1.0);
        net.add_input(t, a, 2).unwrap();
        net.add_output(t, b, 5).unwrap();
        let m0 = net.initial_marking();
        assert!(net.is_enabled(t, &m0));
        let m1 = net.fire(t, &m0);
        assert_eq!(m1.tokens(a), 1);
        assert_eq!(m1.tokens(b), 5);
        assert!(!net.is_enabled(t, &m1));
    }

    #[test]
    fn zero_multiplicity_rejected() {
        let (mut net, a, _b, t) = simple_net();
        assert_eq!(net.add_input(t, a, 0), Err(SrnError::ZeroMultiplicity));
        assert_eq!(net.add_inhibitor(t, a, 0), Err(SrnError::ZeroMultiplicity));
    }

    #[test]
    fn foreign_ids_rejected() {
        let (mut net, a, _b, _t) = simple_net();
        let bad_t = TransId(99);
        let bad_p = PlaceId(99);
        assert!(matches!(
            net.add_input(bad_t, a, 1),
            Err(SrnError::UnknownTransition { .. })
        ));
        let t0 = TransId(0);
        assert!(matches!(
            net.add_input(t0, bad_p, 1),
            Err(SrnError::UnknownPlace { .. })
        ));
    }

    #[test]
    fn lookup_by_name() {
        let (net, a, _b, t) = simple_net();
        assert_eq!(net.find_place("A"), Some(a));
        assert_eq!(net.find_transition("T"), Some(t));
        assert_eq!(net.find_place("missing"), None);
        assert_eq!(net.place_name(a), "A");
        assert_eq!(net.transition_name(t), "T");
    }

    #[test]
    #[should_panic(expected = "disabled transition")]
    fn firing_disabled_transition_panics() {
        let (net, _a, _b, t) = simple_net();
        let empty = Marking::from_tokens(vec![0, 0]);
        let _ = net.fire(t, &empty);
    }
}
