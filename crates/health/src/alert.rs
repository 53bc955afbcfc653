//! The alert state machine: ok → pending → firing → resolved, with
//! hysteresis streaks on both edges so a single noisy evaluation can
//! neither fire nor silence an alert.

/// Lifecycle state of one SLO's alert.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AlertState {
    /// Objective met; no recent breach.
    Ok,
    /// Breaching, but not for long enough to fire yet.
    Pending,
    /// Breaching for at least `pending_evals` consecutive evaluations.
    Firing,
    /// Was firing, has been healthy for `clear_evals` evaluations; one
    /// more healthy streak returns it to [`AlertState::Ok`].
    Resolved,
}

impl AlertState {
    /// Every state, in severity order (used to pre-register metric
    /// label values and to compute the overall verdict).
    pub const ALL: [AlertState; 4] =
        [AlertState::Ok, AlertState::Pending, AlertState::Firing, AlertState::Resolved];

    /// Stable lowercase labels for metrics and JSON, indexed by
    /// [`AlertState::index`].
    pub const LABELS: [&'static str; 4] = ["ok", "pending", "firing", "resolved"];

    /// Stable lowercase label for metrics and JSON.
    pub fn label(self) -> &'static str {
        AlertState::LABELS[self.index()]
    }

    /// Dense index for per-state counters.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// One observed state change, with the evaluation that caused it.
#[derive(Debug, Clone, PartialEq)]
pub struct Transition {
    /// SLO name.
    pub slo: String,
    /// State before the evaluation.
    pub from: AlertState,
    /// State after the evaluation.
    pub to: AlertState,
    /// Wall-clock of the evaluation, microseconds since epoch.
    pub unix_us: u64,
    /// Fast-window signal value at the transition (NaN when the
    /// signal had no data).
    pub value: f64,
    /// Configured threshold.
    pub threshold: f64,
    /// Whether the SLO is marked critical (drives readiness 503s).
    pub critical: bool,
}

/// Per-SLO state machine. `step` is called once per evaluation with
/// the breach verdict; it returns the transition taken, if any.
#[derive(Debug, Clone)]
pub struct AlertMachine {
    state: AlertState,
    /// Consecutive breaching evaluations (reset by any healthy one).
    breach_streak: u32,
    /// Consecutive healthy evaluations (reset by any breach).
    ok_streak: u32,
    /// Breach streak needed to go pending → firing.
    pending_evals: u32,
    /// Healthy streak needed to leave pending/firing/resolved.
    clear_evals: u32,
    /// When the current state was entered.
    since_us: u64,
}

impl AlertMachine {
    /// A machine in [`AlertState::Ok`] with the given hysteresis.
    /// `pending_evals` counts breaches *including* the one that moved
    /// ok → pending, so with `pending_evals = 2` a sustained breach
    /// fires on the second consecutive breaching evaluation.
    pub fn new(pending_evals: u32, clear_evals: u32) -> Self {
        AlertMachine {
            state: AlertState::Ok,
            breach_streak: 0,
            ok_streak: 0,
            pending_evals: pending_evals.max(1),
            clear_evals: clear_evals.max(1),
            since_us: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> AlertState {
        self.state
    }

    /// When the current state was entered (microseconds since epoch;
    /// 0 until the first transition).
    pub fn since_us(&self) -> u64 {
        self.since_us
    }

    /// Feed one evaluation verdict; returns `Some` when the state
    /// changed.
    pub fn step(&mut self, breaching: bool, unix_us: u64) -> Option<(AlertState, AlertState)> {
        if breaching {
            self.breach_streak += 1;
            self.ok_streak = 0;
        } else {
            self.ok_streak += 1;
            self.breach_streak = 0;
        }
        let next = match self.state {
            AlertState::Ok if breaching => AlertState::Pending,
            AlertState::Pending if breaching && self.breach_streak >= self.pending_evals => {
                AlertState::Firing
            }
            AlertState::Pending if !breaching && self.ok_streak >= self.clear_evals => {
                AlertState::Ok
            }
            AlertState::Firing if !breaching && self.ok_streak >= self.clear_evals => {
                AlertState::Resolved
            }
            AlertState::Resolved if breaching => AlertState::Pending,
            AlertState::Resolved if !breaching && self.ok_streak >= self.clear_evals => {
                AlertState::Ok
            }
            current => current,
        };
        if next != self.state {
            let from = self.state;
            self.state = next;
            self.since_us = unix_us;
            Some((from, next))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(m: &mut AlertMachine, verdicts: &[bool]) -> Vec<(AlertState, AlertState)> {
        verdicts.iter().enumerate().filter_map(|(i, &b)| m.step(b, i as u64)).collect()
    }

    #[test]
    fn sustained_breach_walks_ok_pending_firing() {
        let mut m = AlertMachine::new(2, 3);
        let t = drive(&mut m, &[true, true]);
        assert_eq!(
            t,
            vec![(AlertState::Ok, AlertState::Pending), (AlertState::Pending, AlertState::Firing),]
        );
    }

    #[test]
    fn recovery_walks_firing_resolved_ok() {
        let mut m = AlertMachine::new(1, 2);
        m.step(true, 0); // ok -> pending
        m.step(true, 1); // pending -> firing (pending_evals clamped to 1... streak 2)
        assert_eq!(m.state(), AlertState::Firing);
        let t = drive(&mut m, &[false, false, false, false]);
        assert_eq!(
            t,
            vec![
                (AlertState::Firing, AlertState::Resolved),
                (AlertState::Resolved, AlertState::Ok),
            ]
        );
    }

    #[test]
    fn blip_in_pending_returns_to_ok_without_firing() {
        let mut m = AlertMachine::new(3, 2);
        drive(&mut m, &[true, false, false]);
        assert_eq!(m.state(), AlertState::Ok);
    }

    #[test]
    fn single_ok_does_not_silence_firing() {
        let mut m = AlertMachine::new(1, 3);
        m.step(true, 0);
        m.step(true, 1);
        assert_eq!(m.state(), AlertState::Firing);
        m.step(false, 2);
        m.step(false, 3);
        assert_eq!(m.state(), AlertState::Firing, "ok streak below clear_evals");
        m.step(true, 4);
        m.step(false, 5);
        m.step(false, 6);
        assert_eq!(m.state(), AlertState::Firing, "breach reset the ok streak");
        m.step(false, 7);
        assert_eq!(m.state(), AlertState::Resolved);
    }

    #[test]
    fn resolved_rebreach_goes_back_to_pending() {
        let mut m = AlertMachine::new(1, 1);
        m.step(true, 0);
        m.step(true, 1);
        m.step(false, 2);
        assert_eq!(m.state(), AlertState::Resolved);
        let t = m.step(true, 3);
        assert_eq!(t, Some((AlertState::Resolved, AlertState::Pending)));
    }

    #[test]
    fn since_tracks_entry_time() {
        let mut m = AlertMachine::new(1, 1);
        m.step(true, 10);
        assert_eq!(m.since_us(), 10);
        m.step(true, 20);
        assert_eq!(m.since_us(), 20);
        m.step(true, 30); // still firing, no transition
        assert_eq!(m.since_us(), 20);
    }
}
