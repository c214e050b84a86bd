//! The admission gate: how many evaluations may run at once, and how many
//! may wait for a turn.
//!
//! An evaluation runs on the thread that brought the request; the gate only
//! decides *whether* and *when* it may start. It is one [`Mutex`] over three
//! integers plus one [`Condvar`]. The mutex is held to count, never across
//! an evaluation, a cache access or another lock.
//!
//! [`Gate::enter`] has three outcomes: a free slot (`running < workers`) is
//! taken at once; with no slot free the caller parks while fewer than
//! `queue_depth` others are parked; otherwise it is refused with
//! [`ServiceError::Overloaded`] before any work is done. The slot is the
//! RAII [`Permit`]: dropping it — also while unwinding from a panic inside
//! the evaluation — frees the slot and wakes a parked entrant.
//!
//! The order in which parked entrants are released is **unspecified**: a
//! freed slot goes to whichever thread takes the mutex next, which may be a
//! newcomer that never parked.
//!
//! [`Gate::close`] refuses every later entrant with
//! [`ServiceError::ShuttingDown`] and returns once nobody runs and nobody is
//! parked. Entrants parked before the close still get their turn.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use crate::error::{Result, ServiceError};

#[derive(Default)]
struct State {
    /// Permits currently held.
    running: usize,
    /// Entrants parked in [`Gate::enter`].
    waiting: usize,
    closed: bool,
}

/// See the module docs.
pub(crate) struct Gate {
    workers: usize,
    queue_depth: usize,
    state: Mutex<State>,
    /// Signalled when a permit drops while someone is parked or closing.
    changed: Condvar,
}

/// One running evaluation's slot; dropping it frees the slot.
pub(crate) struct Permit<'g>(&'g Gate);

impl Gate {
    /// A gate that lets `workers` (at least 1) permits be held at once and
    /// `queue_depth` entrants park.
    pub(crate) fn new(workers: usize, queue_depth: usize) -> Gate {
        Gate {
            workers: workers.max(1),
            queue_depth,
            state: Mutex::default(),
            changed: Condvar::new(),
        }
    }

    /// Every update below is a single integer step, so the state is valid
    /// at every instant and a poisoned lock (only a panicking `admitted`
    /// callback could poison it) is recovered rather than propagated —
    /// [`Permit`]'s `Drop` takes this lock and must not panic.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Take a slot, parking for one if allowed. `admitted` runs (under the
    /// gate's mutex, so keep it to a counter bump) as soon as the entrant is
    /// accepted — into a slot *or* into the waiting set, before it parks.
    ///
    /// # Errors
    /// [`ServiceError::ShuttingDown`] after [`Gate::close`];
    /// [`ServiceError::Overloaded`] when every slot is taken and
    /// `queue_depth` entrants are already parked.
    pub(crate) fn enter(&self, admitted: impl FnOnce()) -> Result<Permit<'_>> {
        let mut state = self.lock();
        if state.closed {
            return Err(ServiceError::ShuttingDown);
        }
        let must_park = state.running >= self.workers;
        if must_park && state.waiting >= self.queue_depth {
            return Err(ServiceError::Overloaded {
                queue_depth: self.queue_depth,
            });
        }
        admitted();
        if must_park {
            state.waiting += 1;
            state = self
                .changed
                .wait_while(state, |s| s.running >= self.workers)
                .unwrap_or_else(PoisonError::into_inner);
            state.waiting -= 1;
        }
        state.running += 1;
        Ok(Permit(self))
    }

    /// Refuse every later entrant, then block until no permit is held and
    /// nobody is parked. Idempotent.
    pub(crate) fn close(&self) {
        let mut state = self.lock();
        state.closed = true;
        drop(
            self.changed
                .wait_while(state, |s| s.running + s.waiting > 0)
                .unwrap_or_else(PoisonError::into_inner),
        );
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut state = self.0.lock();
        state.running -= 1;
        // Parked entrants and closers share the condvar, so wake them all:
        // a single wake-up could land on a closer and strand an entrant.
        if state.waiting > 0 || state.closed {
            self.0.changed.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::{mpsc, Barrier};
    use std::thread;

    #[test]
    fn at_most_workers_permits_are_held_at_once() {
        let gate = Gate::new(2, 8);
        let (held, peak, finished) = (
            AtomicUsize::new(0),
            AtomicUsize::new(0),
            AtomicUsize::new(0),
        );
        // A permit is released only once a second one is held next to it
        // (eight entrants leave in four pairs), so the peak is exactly 2,
        // not merely at most 2.
        let pair = Barrier::new(2);
        thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let _permit = gate.enter(|| ()).unwrap();
                    peak.fetch_max(held.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
                    pair.wait();
                    held.fetch_sub(1, Ordering::SeqCst);
                    finished.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(finished.load(Ordering::SeqCst), 8);
        assert_eq!(peak.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn one_runs_one_parks_the_third_is_refused_at_once() {
        let gate = Gate::new(1, 1);
        let first = gate.enter(|| ()).unwrap();
        let (parked_tx, parked_rx) = mpsc::channel();
        let (ran_tx, ran_rx) = mpsc::channel();
        thread::scope(|s| {
            s.spawn(|| {
                let _permit = gate.enter(|| parked_tx.send(()).unwrap()).unwrap();
                ran_tx.send(()).unwrap();
            });
            // The callback fires under the gate's mutex, before the second
            // entrant parks: once it is seen, the waiting set is full.
            parked_rx.recv().unwrap();
            let mut admitted = false;
            let third = gate.enter(|| admitted = true);
            assert!(matches!(
                third,
                Err(ServiceError::Overloaded { queue_depth: 1 })
            ));
            assert!(!admitted, "a refused entrant is not admitted");
            assert!(ran_rx.try_recv().is_err(), "the second is still parked");
            drop(first);
            ran_rx.recv().unwrap();
        });
    }

    #[test]
    fn queue_depth_zero_never_waits() {
        let gate = Gate::new(1, 0);
        let held = gate.enter(|| ()).unwrap();
        assert!(matches!(
            gate.enter(|| ()),
            Err(ServiceError::Overloaded { queue_depth: 0 })
        ));
        drop(held);
        assert!(gate.enter(|| ()).is_ok());
    }

    #[test]
    fn close_refuses_newcomers_and_waits_for_the_parked() {
        let gate = Gate::new(1, 1);
        let first = gate.enter(|| ()).unwrap();
        let (parked_tx, parked_rx) = mpsc::channel();
        let (closed_tx, closed_rx) = mpsc::channel();
        let parked_done = AtomicBool::new(false);
        thread::scope(|s| {
            s.spawn(|| {
                let _permit = gate.enter(|| parked_tx.send(()).unwrap()).unwrap();
                parked_done.store(true, Ordering::SeqCst);
            });
            parked_rx.recv().unwrap();
            s.spawn(|| {
                gate.close();
                // The parked entrant's permit dropped before close returned.
                closed_tx.send(parked_done.load(Ordering::SeqCst)).unwrap();
            });
            // Newcomers are refused as soon as the closer holds the mutex
            // once; until then they find the waiting set full.
            loop {
                match gate.enter(|| ()) {
                    Err(ServiceError::ShuttingDown) => break,
                    Err(ServiceError::Overloaded { .. }) => thread::yield_now(),
                    other => panic!("a closing gate admitted: {:?}", other.map(|_| ())),
                }
            }
            assert!(
                closed_rx.try_recv().is_err(),
                "close returned while a permit was held"
            );
            drop(first);
            assert!(closed_rx.recv().unwrap());
        });
        gate.close();
        assert!(matches!(gate.enter(|| ()), Err(ServiceError::ShuttingDown)));
    }

    #[test]
    fn a_permit_dropped_while_unwinding_frees_its_slot() {
        let gate = Gate::new(1, 0);
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            let _permit = gate.enter(|| ()).unwrap();
            panic!("an engine panicked");
        }));
        assert!(unwound.is_err());
        assert!(gate.enter(|| ()).is_ok());
    }
}
