//! Lifecycle state machine for a (model, machine) serving group.
//!
//! A group moves through a small, fixed set of states while the daemon
//! retrains and evaluates a candidate model in the background:
//!
//! ```text
//!                        +--------------------------------------+
//!                        v                                      |
//! idle ---> queued ---> training ---> shadow ---> promoted --> rolled-back
//!   ^          ^            |            |  \         |
//!   |          |            v            |   +-> rejected
//!   |          +------- (re-queue) <-----+        |
//!   +---------------------------------------------+
//! ```
//!
//! Only the pairs enumerated in [`TRANSITIONS`] are counted as valid
//! transitions; anything else is applied (the state is authoritative) but
//! not counted, so a buggy caller cannot inflate the transition counters.

/// State of one (model, machine) group in the retrain/shadow/promote loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LifecycleState {
    /// No candidate in flight; the serving model answers alone.
    Idle,
    /// A retrain job is waiting in the trainer queue.
    Queued,
    /// The background trainer is fitting a candidate right now.
    Training,
    /// A candidate silently scores live traffic alongside the serving model.
    Shadow,
    /// The last candidate was promoted into the registry.
    Promoted,
    /// The last candidate was rejected (fit failure, poison, or guardband).
    Rejected,
    /// The serving model was rolled back to its pre-promotion version.
    RolledBack,
}

impl LifecycleState {
    /// Every state, in gauge-code order.
    pub const ALL: [LifecycleState; 7] = [
        LifecycleState::Idle,
        LifecycleState::Queued,
        LifecycleState::Training,
        LifecycleState::Shadow,
        LifecycleState::Promoted,
        LifecycleState::Rejected,
        LifecycleState::RolledBack,
    ];

    /// Stable numeric code exported on the per-group state gauge.
    pub fn code(self) -> u8 {
        match self {
            LifecycleState::Idle => 0,
            LifecycleState::Queued => 1,
            LifecycleState::Training => 2,
            LifecycleState::Shadow => 3,
            LifecycleState::Promoted => 4,
            LifecycleState::Rejected => 5,
            LifecycleState::RolledBack => 6,
        }
    }

    /// Metric/JSON labels, indexed by `state as usize`.
    pub const LABELS: [&'static str; 7] =
        ["idle", "queued", "training", "shadow", "promoted", "rejected", "rolled-back"];

    /// Metric/JSON label for this state.
    pub const fn label(self) -> &'static str {
        LifecycleState::LABELS[self as usize]
    }
}

/// The complete set of valid state transitions.
///
/// Terminal-ish states (`Promoted`, `Rejected`, `RolledBack`) re-enter the
/// loop via `Queued` when the next retrain trigger fires. Rollback is an
/// operator action and is accepted from any settled state; `Queued` and
/// `Training` groups cannot roll back because the in-flight candidate still
/// owns the group.
pub const TRANSITIONS: [(LifecycleState, LifecycleState); 13] = [
    (LifecycleState::Idle, LifecycleState::Queued),
    (LifecycleState::Promoted, LifecycleState::Queued),
    (LifecycleState::Rejected, LifecycleState::Queued),
    (LifecycleState::RolledBack, LifecycleState::Queued),
    (LifecycleState::Queued, LifecycleState::Training),
    (LifecycleState::Training, LifecycleState::Shadow),
    (LifecycleState::Training, LifecycleState::Rejected),
    (LifecycleState::Shadow, LifecycleState::Promoted),
    (LifecycleState::Shadow, LifecycleState::Rejected),
    (LifecycleState::Idle, LifecycleState::RolledBack),
    (LifecycleState::Promoted, LifecycleState::RolledBack),
    (LifecycleState::Rejected, LifecycleState::RolledBack),
    (LifecycleState::Shadow, LifecycleState::RolledBack),
];

/// Whether `from -> to` is one of the enumerated valid transitions.
pub fn is_valid_transition(from: LifecycleState, to: LifecycleState) -> bool {
    TRANSITIONS.iter().any(|&(f, t)| f == from && t == to)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_dense() {
        for (i, s) in LifecycleState::ALL.iter().enumerate() {
            assert_eq!(s.code() as usize, i);
        }
    }

    #[test]
    fn labels_are_unique() {
        let labels: Vec<&str> = LifecycleState::ALL.iter().map(|s| s.label()).collect();
        for (i, a) in labels.iter().enumerate() {
            for b in &labels[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn transition_table_is_irreflexive_and_deduped() {
        for (i, &(f, t)) in TRANSITIONS.iter().enumerate() {
            assert_ne!(f, t, "self-transition in table");
            for &(f2, t2) in &TRANSITIONS[i + 1..] {
                assert!(!(f == f2 && t == t2), "duplicate transition in table");
            }
        }
    }

    #[test]
    fn happy_path_is_valid() {
        use LifecycleState::*;
        for (f, t) in [(Idle, Queued), (Queued, Training), (Training, Shadow), (Shadow, Promoted)] {
            assert!(is_valid_transition(f, t), "{f:?} -> {t:?} should be valid");
        }
        assert!(is_valid_transition(Promoted, RolledBack));
        assert!(is_valid_transition(RolledBack, Queued));
    }

    #[test]
    fn invalid_pairs_are_rejected() {
        use LifecycleState::*;
        for (f, t) in [
            (Idle, Training),
            (Queued, Shadow),
            (Training, Promoted),
            (Queued, RolledBack),
            (Training, RolledBack),
        ] {
            assert!(!is_valid_transition(f, t), "{f:?} -> {t:?} should be invalid");
        }
    }
}
