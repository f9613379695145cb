//! The flow ledger every circuit backend settles through.
//!
//! PAPER §4's accounting rule, written once: a circuit delivers its
//! transmit time after δ, a flow finishes when its last demand is
//! credited, and a Coflow finishes when its last flow does. The
//! [`OnlineStepper`](crate::OnlineStepper),
//! [`KCoreBackend`](crate::KCoreBackend) and
//! [`CircuitBackend`](crate::CircuitBackend) keep their Coflows'
//! accounts in one [`FlowBook`] and take their completions from it. How
//! a shortfall is retried stays with each backend: the stepper defers
//! the flow and re-plans its Coflow, `KCoreBackend` queues a retry of
//! the flow alone, `CircuitBackend` returns it to the aggregate.

use crate::stepper::{Completion, SettleHook};
use ocs_model::{Coflow, Dur, Fabric, Reservation, ScheduleOutcome, Time};

/// One admitted, unfinished Coflow's account.
#[derive(Debug)]
struct Account {
    id: u64,
    arrival: Time,
    /// Unserved processing time per flow.
    remaining: Vec<Dur>,
    /// Finish instant per flow, set when its `remaining` reaches zero.
    finish: Vec<Time>,
    /// Flows with demand left.
    unfinished: usize,
    /// Earliest instant credited service began, for queue-latency
    /// telemetry.
    first_service: Option<Time>,
    /// Circuits settled.
    setups: u64,
}

/// What settling one circuit did to its flow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Settled {
    /// The circuit delivered what it offered; the flow may have demand
    /// left in other circuits.
    Served,
    /// The flow's last demand was credited.
    Finished,
    /// The circuit under-delivered: the flow may be re-planned from
    /// this instant on, which is strictly after the settle.
    Short(Time),
}

/// The accounts of the admitted, unfinished Coflows, in slots the
/// owning backend picks (the stepper's admission index; the next
/// unused slot elsewhere). A completed Coflow's account is dropped.
#[derive(Debug, Default)]
pub(crate) struct FlowBook {
    accounts: Vec<Option<Account>>,
    open: usize,
    /// Unserved processing time across every open account.
    outstanding: Dur,
}

impl FlowBook {
    /// Open `coflow`'s account at the vacant `slot`, every flow owing
    /// its full processing time on `fabric`.
    pub(crate) fn admit(&mut self, slot: usize, coflow: &Coflow, fabric: &Fabric) {
        let remaining: Vec<Dur> = coflow
            .flows()
            .iter()
            .map(|f| fabric.processing_time(f.bytes))
            .collect();
        self.outstanding += remaining.iter().copied().sum::<Dur>();
        if slot >= self.accounts.len() {
            self.accounts.resize_with(slot + 1, || None);
        }
        debug_assert!(self.accounts[slot].is_none(), "slot {slot} is taken");
        self.accounts[slot] = Some(Account {
            id: coflow.id(),
            arrival: coflow.arrival(),
            finish: vec![coflow.arrival(); remaining.len()],
            unfinished: remaining.len(),
            remaining,
            first_service: None,
            setups: 0,
        });
        self.open += 1;
    }

    /// The first slot never used.
    pub(crate) fn next_slot(&self) -> usize {
        self.accounts.len()
    }

    fn account(&self, slot: usize) -> &Account {
        self.accounts[slot].as_ref().expect("no open account")
    }

    fn account_mut(&mut self, slot: usize) -> &mut Account {
        self.accounts[slot].as_mut().expect("no open account")
    }

    /// Unserved processing time per flow of the account at `slot`.
    pub(crate) fn remaining(&self, slot: usize) -> &[Dur] {
        &self.account(slot).remaining
    }

    /// True when every flow of the account at `slot` has finished.
    pub(crate) fn is_done(&self, slot: usize) -> bool {
        self.account(slot).unfinished == 0
    }

    /// Open accounts.
    pub(crate) fn open(&self) -> usize {
        self.open
    }

    /// Unserved processing time across every open account.
    pub(crate) fn outstanding(&self) -> Dur {
        self.outstanding
    }

    /// Credit `served` (at most the flow's remaining demand) to flow
    /// `fi` at `slot`, from service that began at `svc` on a circuit
    /// released at `end`. Returns true when this credit finished the
    /// flow.
    pub(crate) fn credit(
        &mut self,
        slot: usize,
        fi: usize,
        served: Dur,
        svc: Time,
        end: Time,
    ) -> bool {
        if served.is_zero() {
            return false;
        }
        self.outstanding -= served;
        let a = self.account_mut(slot);
        a.remaining[fi] -= served;
        a.first_service = Some(a.first_service.map_or(svc, |f| f.min(svc)));
        if !a.remaining[fi].is_zero() {
            return false;
        }
        a.finish[fi] = end;
        a.unfinished -= 1;
        true
    }

    /// Settle the planned circuit `resv` of the account at `slot` at
    /// `at`: it offers its transmit time after `delta`, capped by what
    /// the flow still owes; `hook` judges what it delivered.
    pub(crate) fn settle(
        &mut self,
        slot: usize,
        resv: &Reservation,
        delta: Dur,
        at: Time,
        hook: &mut dyn SettleHook,
    ) -> Settled {
        let fi = resv.flow.flow_idx;
        let a = self.account_mut(slot);
        a.setups += 1;
        let transmit = resv.end.since(resv.start).saturating_sub(delta);
        let available = transmit.min(a.remaining[fi]);
        let verdict = hook.on_settle(resv, available, at);
        let credited = verdict.served.min(available);
        if self.credit(slot, fi, credited, resv.start + delta, resv.end) {
            Settled::Finished
        } else if credited < available {
            let retry = at + verdict.retry_after.unwrap_or(Dur::ZERO);
            Settled::Short(retry.max(at + Dur::from_ps(1)))
        } else {
            Settled::Served
        }
    }

    /// Close the finished account at `slot` and report it.
    pub(crate) fn complete(&mut self, slot: usize) -> Completion {
        let a = self.accounts[slot].take().expect("no open account");
        debug_assert_eq!(a.unfinished, 0, "completing an unfinished coflow");
        self.open -= 1;
        Completion {
            outcome: ScheduleOutcome {
                coflow: a.id,
                start: a.arrival,
                finish: a
                    .finish
                    .iter()
                    .copied()
                    .max()
                    .expect("coflows are non-empty"),
                flow_finish: a.finish,
                circuit_setups: a.setups,
            },
            first_service: a.first_service,
        }
    }
}
