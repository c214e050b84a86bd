//! The execution governor: resource limits for engines that are
//! super-polynomial by nature.
//!
//! Every evaluator in this crate can blow up on adversarial inputs — that is
//! the point of Theorems 1 and 3 (`n^q` time is "likely optimal"), and even
//! the Theorem 2 color-coding algorithm carries its `g(v)` factor. A service
//! embedding these engines therefore needs a way to say *stop*: after a
//! wall-clock deadline, after materializing too many intermediate tuples,
//! past a recursion depth, or when a caller cancels from another thread.
//!
//! [`ExecutionContext`] carries those four limits. Engines poll it at loop
//! heads ([`ExecutionContext::tick`]), charge every materialized intermediate
//! tuple against the budget ([`ExecutionContext::charge_tuples`]), and wrap
//! recursive descents in an RAII depth guard ([`ExecutionContext::recurse`]).
//! When a limit trips, the engine unwinds with
//! [`EngineError::ResourceExhausted`] — a structured "gave up" distinct from
//! an empty answer — and the context's counters report how far it got.
//!
//! Deadline checks are amortized: `tick` looks at the wall clock only once
//! every [`TICKS_PER_CLOCK_CHECK`] calls, so governed hot loops do not pay a
//! syscall per tuple.
//!
//! Fault injection (`cfg(any(test, feature = "fault-injection"))`): a
//! `FaultSpec` arms the context to fail deterministically at the `n`-th
//! tick with a chosen [`ResourceKind`], letting tests drive every
//! resource-exhaustion path through every engine without real clocks or
//! threads.
//!
//! # `Cell` vs. atomics: the two budget modes
//!
//! [`ExecutionContext`] keeps its counters in `Cell`s and is deliberately
//! `!Sync`. That is the right default: a single-threaded evaluation charges
//! its budget with plain loads and stores — no lock prefixes, no cache-line
//! contention — and the type system guarantees nobody shares the context
//! across threads by accident.
//!
//! [`ExecutionContext::with_pool`] is the opt-in to the other side of the
//! trade, and the *only* switch between serial and intra-query parallel
//! execution: every `*_governed` engine entry point runs at whatever degree
//! the context it is handed carries. Attaching a pool of degree > 1 *moves*
//! the limits and counters into `AtomicU64`s behind an `Arc` (one shared
//! envelope), and the context's fan-out methods
//! ([`ExecutionContext::try_run`], [`ExecutionContext::find_first`]) hand
//! every pool task a worker context that delegates charging to those
//! atomics. Every worker then draws down **one** tuple budget against
//! **one** deadline, so exhaustion in any worker makes every other worker's
//! next charge fail too — a single resource envelope governs the whole
//! parallel query, exactly as it would govern the serial one. With no pool,
//! or a degree-1 pool, the same fan-out methods loop inline and hand the
//! closure the context itself: same `Cell` counters, same tick and charge
//! sequence, no atomics. Engine closures never capture the context (it is
//! `!Sync`); they receive the one to charge as an argument.
//!
//! The charging *protocol* (what counts as a tick, what gets charged, when
//! the clock is consulted) is identical in both modes; only the memory
//! primitive differs, and the tests below hold the two modes to that.
//! Worker-local state that is semantically per-thread — the recursion depth
//! and the tick-amortization counter — stays in `Cell`s on each worker
//! context. Workers carry no pool, so fan-out never nests.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
#[cfg(any(test, feature = "fault-injection"))]
use std::sync::Mutex;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use pq_exec::{Pool, Verdict};

use crate::error::{EngineError, Result};

/// Which resource ran out. Carried by [`EngineError::ResourceExhausted`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ResourceKind {
    /// The wall-clock deadline passed.
    Timeout,
    /// The intermediate-tuple budget was spent.
    TupleBudget,
    /// The recursion-depth limit was reached.
    DepthLimit,
    /// The cancellation token was triggered.
    Cancelled,
}

impl std::fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ResourceKind::Timeout => "deadline exceeded",
            ResourceKind::TupleBudget => "tuple budget exhausted",
            ResourceKind::DepthLimit => "recursion depth limit reached",
            ResourceKind::Cancelled => "cancelled",
        })
    }
}

/// A shareable cancellation flag. Clone it into another thread and call
/// [`CancellationToken::cancel`]; every governed engine polling the paired
/// [`ExecutionContext`] unwinds with [`ResourceKind::Cancelled`] at its next
/// loop head.
#[derive(Debug, Clone, Default)]
pub struct CancellationToken {
    flag: Arc<AtomicBool>,
}

impl CancellationToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation (idempotent, callable from any thread).
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Has cancellation been requested?
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// How often `tick` consults the wall clock / cancellation flag: once per
/// this many calls. Power of two so the check compiles to a mask.
pub const TICKS_PER_CLOCK_CHECK: u64 = 256;

/// Deterministic fault injection: fail as if `kind` had tripped once the
/// context has seen `after_ticks` ticks.
///
/// The fault is **one-shot**: it fires at the first qualifying tick and then
/// disarms, so a fallback engine retrying on the same context runs normally —
/// exactly the scenario the planner's degradation chain needs to exercise.
#[cfg(any(test, feature = "fault-injection"))]
#[derive(Debug, Clone, Copy)]
pub struct FaultSpec {
    /// Trip at the first tick whose ordinal is `>= after_ticks`.
    pub after_ticks: u64,
    /// The kind of exhaustion to report.
    pub kind: ResourceKind,
}

/// Resource limits and live counters for one evaluation.
///
/// Interior mutability (`Cell`) lets engines share one `&ExecutionContext`
/// down arbitrarily nested call chains; the context is intentionally not
/// `Sync` — cross-thread signalling goes through [`CancellationToken`].
///
/// A context is reusable across engines: the budget and deadline are *spent*,
/// not reset, so handing the same context to a fallback engine naturally
/// gives it only the remaining allowance (what `pq-core`'s planner fallback
/// chain does).
///
/// Deliberately not `Clone`: a copy would fork the budget counters, silently
/// doubling the allowance.
#[derive(Debug, Default)]
pub struct ExecutionContext {
    deadline: Option<Instant>,
    tuples_remaining: Option<Cell<u64>>,
    max_depth: Option<usize>,
    cancel: Option<CancellationToken>,
    ticks: Cell<u64>,
    depth: Cell<usize>,
    atoms_processed: Cell<u64>,
    tuples_materialized: Cell<u64>,
    /// When set, this is a handle of a shared envelope: limits and
    /// cumulative counters live in the shared atomics, and the local fields
    /// above only track per-thread state (depth, tick amortization) plus any
    /// *additional* local limits (e.g. a per-race cancellation token).
    shared: Option<Arc<SharedState>>,
    /// The fan-out pool; set only by [`ExecutionContext::with_pool`] at
    /// degree > 1, never on the worker handles given to pool tasks.
    pool: Option<Pool>,
    #[cfg(any(test, feature = "fault-injection"))]
    fault: Cell<Option<FaultSpec>>,
}

impl ExecutionContext {
    /// A context with no limits (what the ungoverned public entry points
    /// use). All accounting still happens, so counters stay meaningful.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Start from no limits; chain `with_*` to add them.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fail with [`ResourceKind::Timeout`] once `budget` of wall-clock time
    /// has elapsed (measured from this call).
    #[must_use]
    pub fn with_deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some(Instant::now() + budget);
        self
    }

    /// Fail with [`ResourceKind::TupleBudget`] once engines have materialized
    /// more than `budget` intermediate tuples.
    #[must_use]
    pub fn with_tuple_budget(mut self, budget: u64) -> Self {
        self.tuples_remaining = Some(Cell::new(budget));
        self
    }

    /// Fail with [`ResourceKind::DepthLimit`] when governed recursion nests
    /// deeper than `depth`.
    #[must_use]
    pub fn with_max_depth(mut self, depth: usize) -> Self {
        self.max_depth = Some(depth);
        self
    }

    /// Poll `token` at loop heads; fail with [`ResourceKind::Cancelled`] once
    /// it trips.
    #[must_use]
    pub fn with_cancellation(mut self, token: CancellationToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Arm deterministic fault injection: the first tick at or past
    /// `spec.after_ticks` fails with `spec.kind`, then the fault disarms.
    #[cfg(any(test, feature = "fault-injection"))]
    #[must_use]
    pub fn with_fault(mut self, spec: FaultSpec) -> Self {
        self.fault = Cell::new(Some(spec));
        self
    }

    // ---- intra-query parallelism ----

    /// Run governed engines on this context with intra-query fan-out on
    /// `pool`. At degree > 1 the limits and counters move into one shared
    /// envelope that every pool task charges; a degree-1 pool leaves the
    /// context exactly as it was (serial, `Cell`-counted). Attach the pool
    /// last: limits added afterwards stay on this handle and do not reach
    /// the pool's workers.
    #[must_use]
    pub fn with_pool(mut self, pool: &Pool) -> Self {
        if pool.threads() <= 1 {
            return self;
        }
        if self.shared.is_none() {
            self = worker(&self.into_shared());
        }
        self.pool = Some(pool.clone());
        self
    }

    /// The pool engines hand to the data-parallel relation kernels
    /// (`par_semijoin`, `par_natural_join`): the attached one, or a degree-1
    /// pool (on which those kernels are the serial ones) when none was.
    pub fn pool(&self) -> &Pool {
        static INLINE: OnceLock<Pool> = OnceLock::new();
        self.pool
            .as_ref()
            .unwrap_or_else(|| INLINE.get_or_init(|| Pool::new(1)))
    }

    /// Apply `f` to every item and return the outputs in item order, or the
    /// error of the smallest-indexed failing item ([`Pool::try_run`]). `f`
    /// receives the context to charge: a fresh worker of the shared envelope
    /// per item when a pool is attached, `self` (looping inline, in item
    /// order) otherwise.
    pub fn try_run<I, O, E, F>(&self, items: &[I], f: F) -> std::result::Result<Vec<O>, E>
    where
        I: Sync,
        O: Send,
        E: Send,
        F: Fn(&ExecutionContext, usize, &I) -> std::result::Result<O, E> + Sync,
    {
        match (&self.pool, &self.shared) {
            (Some(pool), Some(state)) => pool.try_run(items, |i, it| f(&worker(state), i, it)),
            _ => items
                .iter()
                .enumerate()
                .map(|(i, it)| f(self, i, it))
                .collect(),
        }
    }

    /// Race `f` over the items and return the witness of the
    /// smallest-indexed item that produced one, `None` when every item came
    /// back empty, or the error a sequential scan would have hit first
    /// ([`Pool::find_first`]). Serially that *is* a sequential scan on
    /// `self`; with a pool attached each task gets a worker of the shared
    /// envelope plus a race-scoped cancellation token that the first witness
    /// trips, and tasks that stop on that token retire without counting as
    /// failures.
    pub fn find_first<I, O, F>(&self, items: &[I], f: F) -> Result<Option<O>>
    where
        I: Sync,
        O: Send,
        F: Fn(&ExecutionContext, usize, &I) -> Result<Option<O>> + Sync,
    {
        let (Some(pool), Some(state)) = (&self.pool, &self.shared) else {
            for (i, it) in items.iter().enumerate() {
                if let Some(o) = f(self, i, it)? {
                    return Ok(Some(o));
                }
            }
            return Ok(None);
        };
        let race = CancellationToken::new();
        let hit = pool.find_first(items, |i, it| {
            let ctx = worker(state).with_cancellation(race.clone());
            match f(&ctx, i, it) {
                Ok(Some(o)) => {
                    race.cancel();
                    Verdict::Hit(o)
                }
                Ok(None) => Verdict::Miss,
                // A task cancelled because the race was already won is not a
                // failure; a cancellation from the *shared* envelope without
                // a winner still surfaces as an abort.
                Err(EngineError::ResourceExhausted {
                    kind: ResourceKind::Cancelled,
                    ..
                }) if race.is_cancelled() => Verdict::Retire,
                Err(e) => Verdict::Abort(e),
            }
        })?;
        Ok(hit.map(|(_, o)| o))
    }

    /// Move this context's limits and counters into a shared envelope.
    /// Consumes `self` (the budget must not survive in two places). Depth
    /// already entered on `self` is per-thread state and does not transfer.
    fn into_shared(self) -> Arc<SharedState> {
        Arc::new(SharedState {
            deadline: self.deadline,
            budgeted: self.tuples_remaining.is_some(),
            tuples_remaining: AtomicU64::new(self.tuples_remaining.as_ref().map_or(0, Cell::get)),
            max_depth: self.max_depth,
            cancel: self.cancel,
            ticks: AtomicU64::new(self.ticks.get()),
            atoms_processed: AtomicU64::new(self.atoms_processed.get()),
            tuples_materialized: AtomicU64::new(self.tuples_materialized.get()),
            #[cfg(any(test, feature = "fault-injection"))]
            fault_armed: AtomicBool::new(self.fault.get().is_some()),
            #[cfg(any(test, feature = "fault-injection"))]
            fault: Mutex::new(self.fault.get()),
        })
    }

    // ---- accounting reads ----

    /// Ticks seen so far (loop-head polls across all engines on this
    /// context; in shared mode, across all workers of the envelope).
    pub fn ticks(&self) -> u64 {
        match &self.shared {
            Some(sh) => sh.ticks.load(Ordering::Relaxed),
            None => self.ticks.get(),
        }
    }

    /// Atoms (or operators/rules, per engine) processed so far.
    pub fn atoms_processed(&self) -> u64 {
        match &self.shared {
            Some(sh) => sh.atoms_processed.load(Ordering::Relaxed),
            None => self.atoms_processed.get(),
        }
    }

    /// Intermediate tuples charged so far.
    pub fn tuples_materialized(&self) -> u64 {
        match &self.shared {
            Some(sh) => sh.tuples_materialized.load(Ordering::Relaxed),
            None => self.tuples_materialized.get(),
        }
    }

    /// Tuples still allowed, or `None` when unbudgeted.
    pub fn tuples_remaining(&self) -> Option<u64> {
        if let Some(sh) = &self.shared {
            return sh
                .budgeted
                .then(|| sh.tuples_remaining.load(Ordering::Relaxed));
        }
        self.tuples_remaining.as_ref().map(Cell::get)
    }

    /// Is any limit or fault configured? (`false` for
    /// [`ExecutionContext::unlimited`]; used by planners to skip
    /// fallback machinery when nothing can trip.)
    pub fn is_limited(&self) -> bool {
        #[cfg(any(test, feature = "fault-injection"))]
        if self.fault.get().is_some() {
            return true;
        }
        if let Some(sh) = &self.shared {
            #[cfg(any(test, feature = "fault-injection"))]
            if sh.fault_armed.load(Ordering::Relaxed) {
                return true;
            }
            if sh.deadline.is_some() || sh.budgeted || sh.max_depth.is_some() || sh.cancel.is_some()
            {
                return true;
            }
        }
        self.deadline.is_some()
            || self.tuples_remaining.is_some()
            || self.max_depth.is_some()
            || self.cancel.is_some()
    }

    // ---- charging ----

    /// Loop-head poll. Cheap (counter increment); consults the wall clock and
    /// cancellation flag once every [`TICKS_PER_CLOCK_CHECK`] calls.
    #[inline]
    pub fn tick(&self, engine: &'static str) -> Result<()> {
        // The local counter always advances (per-thread diagnostics), but
        // clock-check amortization runs on the *cumulative* count: in shared
        // mode each worker may only ever see a handful of ticks, so keying
        // the check on the local counter would let a cancelled envelope go
        // unnoticed that the serial engine — one counter for all the work —
        // would have caught.
        let t = self.ticks.get() + 1;
        self.ticks.set(t);
        #[cfg(any(test, feature = "fault-injection"))]
        if let Some(f) = self.fault.get() {
            if t >= f.after_ticks {
                self.fault.set(None); // one-shot: disarm so fallbacks proceed
                return Err(self.exhausted(f.kind, engine));
            }
        }
        let cumulative = if let Some(sh) = &self.shared {
            let global = sh.ticks.fetch_add(1, Ordering::Relaxed) + 1;
            #[cfg(any(test, feature = "fault-injection"))]
            if sh.fault_armed.load(Ordering::Relaxed) {
                let mut slot = sh.fault.lock().expect("fault slot poisoned");
                if let Some(f) = *slot {
                    if global >= f.after_ticks {
                        *slot = None; // one-shot, envelope-wide
                        sh.fault_armed.store(false, Ordering::Relaxed);
                        return Err(self.exhausted(f.kind, engine));
                    }
                }
            }
            global
        } else {
            t
        };
        if cumulative.is_multiple_of(TICKS_PER_CLOCK_CHECK) {
            self.check_clock_and_cancel(engine)?;
        }
        Ok(())
    }

    /// Count one processed atom/operator/rule (diagnostics only; never fails).
    #[inline]
    pub fn note_atom(&self) {
        match &self.shared {
            Some(sh) => {
                sh.atoms_processed.fetch_add(1, Ordering::Relaxed);
            }
            None => self.atoms_processed.set(self.atoms_processed.get() + 1),
        }
    }

    /// Charge `n` materialized intermediate tuples against the budget.
    #[inline]
    pub fn charge_tuples(&self, engine: &'static str, n: u64) -> Result<()> {
        if let Some(sh) = &self.shared {
            sh.tuples_materialized.fetch_add(n, Ordering::Relaxed);
            if sh.budgeted {
                let mut have = sh.tuples_remaining.load(Ordering::Relaxed);
                loop {
                    if n > have {
                        // Sticky zero: every other worker's next charge also
                        // fails, so exhaustion anywhere stops the envelope.
                        sh.tuples_remaining.store(0, Ordering::Relaxed);
                        return Err(self.exhausted(ResourceKind::TupleBudget, engine));
                    }
                    match sh.tuples_remaining.compare_exchange_weak(
                        have,
                        have - n,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => break,
                        Err(actual) => have = actual,
                    }
                }
            }
            return Ok(());
        }
        self.tuples_materialized
            .set(self.tuples_materialized.get() + n);
        if let Some(rem) = &self.tuples_remaining {
            let have = rem.get();
            if n > have {
                rem.set(0);
                return Err(self.exhausted(ResourceKind::TupleBudget, engine));
            }
            rem.set(have - n);
        }
        Ok(())
    }

    /// Enter one level of governed recursion. The returned guard releases the
    /// level when dropped; hold it for the duration of the recursive call:
    ///
    /// ```
    /// # use pq_engine::governor::ExecutionContext;
    /// # fn walk(ctx: &ExecutionContext, n: u32) -> pq_engine::Result<u32> {
    /// let _depth = ctx.recurse("demo")?;
    /// if n == 0 { return Ok(0); }
    /// walk(ctx, n - 1)
    /// # }
    /// # let ctx = ExecutionContext::new().with_max_depth(8);
    /// # assert!(walk(&ctx, 5).is_ok());
    /// # assert!(walk(&ctx, 50).is_err());
    /// ```
    #[inline]
    pub fn recurse(&self, engine: &'static str) -> Result<DepthGuard<'_>> {
        let d = self.depth.get() + 1;
        // Depth is per-thread (it mirrors a call stack), but the *limit* may
        // come from the shared envelope.
        let max_depth = self
            .max_depth
            .or_else(|| self.shared.as_ref().and_then(|sh| sh.max_depth));
        if let Some(max) = max_depth {
            if d > max {
                return Err(self.exhausted(ResourceKind::DepthLimit, engine));
            }
        }
        self.depth.set(d);
        Ok(DepthGuard { ctx: self })
    }

    /// Build the structured exhaustion error for this context's counters.
    /// Public so engines can report engine-specific trip points (e.g. a
    /// trial-loop bound) with consistent accounting.
    pub fn exhausted(&self, kind: ResourceKind, engine: &'static str) -> EngineError {
        EngineError::ResourceExhausted {
            kind,
            engine,
            atoms_processed: self.atoms_processed(),
            tuples_materialized: self.tuples_materialized(),
        }
    }

    fn check_clock_and_cancel(&self, engine: &'static str) -> Result<()> {
        // A worker's own token (e.g. a per-race cancel) is checked first,
        // then the shared envelope's token and deadline.
        if let Some(tok) = &self.cancel {
            if tok.is_cancelled() {
                return Err(self.exhausted(ResourceKind::Cancelled, engine));
            }
        }
        if let Some(sh) = &self.shared {
            if let Some(tok) = &sh.cancel {
                if tok.is_cancelled() {
                    return Err(self.exhausted(ResourceKind::Cancelled, engine));
                }
            }
            if let Some(deadline) = sh.deadline {
                if Instant::now() > deadline {
                    return Err(self.exhausted(ResourceKind::Timeout, engine));
                }
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() > deadline {
                return Err(self.exhausted(ResourceKind::Timeout, engine));
            }
        }
        Ok(())
    }
}

/// The `Sync` shared-budget mode of the governor (see the module docs for the
/// `Cell`-vs-atomic trade): one resource envelope charged by every worker of
/// a context that [`ExecutionContext::with_pool`] made parallel.
#[derive(Debug)]
struct SharedState {
    deadline: Option<Instant>,
    /// Whether a tuple budget is in force (`tuples_remaining` is only
    /// meaningful when set — an `AtomicU64` has no `None`).
    budgeted: bool,
    tuples_remaining: AtomicU64,
    max_depth: Option<usize>,
    cancel: Option<CancellationToken>,
    ticks: AtomicU64,
    atoms_processed: AtomicU64,
    tuples_materialized: AtomicU64,
    /// Fast-path flag so unarmed contexts never touch the mutex in `tick`.
    #[cfg(any(test, feature = "fault-injection"))]
    fault_armed: AtomicBool,
    #[cfg(any(test, feature = "fault-injection"))]
    fault: Mutex<Option<FaultSpec>>,
}

/// Mint a handle of a shared envelope: an [`ExecutionContext`] whose charging
/// delegates to `state`. Per-thread state (recursion depth, tick
/// amortization) is fresh, and it carries no pool.
fn worker(state: &Arc<SharedState>) -> ExecutionContext {
    ExecutionContext {
        shared: Some(Arc::clone(state)),
        ..ExecutionContext::default()
    }
}

/// RAII guard for one governed recursion level (see
/// [`ExecutionContext::recurse`]).
#[derive(Debug)]
pub struct DepthGuard<'a> {
    ctx: &'a ExecutionContext,
}

impl Drop for DepthGuard<'_> {
    fn drop(&mut self) {
        self.ctx.depth.set(self.ctx.depth.get() - 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_context_never_trips() {
        let ctx = ExecutionContext::unlimited();
        for _ in 0..10_000 {
            ctx.tick("t").unwrap();
        }
        ctx.charge_tuples("t", u64::MAX / 2).unwrap();
        assert!(!ctx.is_limited());
        assert_eq!(ctx.ticks(), 10_000);
    }

    #[test]
    fn tuple_budget_trips_at_the_boundary() {
        let ctx = ExecutionContext::new().with_tuple_budget(10);
        ctx.charge_tuples("t", 10).unwrap();
        let err = ctx.charge_tuples("t", 1).unwrap_err();
        match err {
            EngineError::ResourceExhausted {
                kind,
                engine,
                tuples_materialized,
                ..
            } => {
                assert_eq!(kind, ResourceKind::TupleBudget);
                assert_eq!(engine, "t");
                assert_eq!(tuples_materialized, 11);
            }
            other => panic!("wrong error: {other:?}"),
        }
    }

    #[test]
    fn deadline_trips_only_on_clock_check_ticks() {
        let ctx = ExecutionContext::new().with_deadline(Duration::ZERO);
        // Below the check interval nothing trips (amortization)…
        for _ in 0..TICKS_PER_CLOCK_CHECK - 1 {
            ctx.tick("t").unwrap();
        }
        // …and the check-interval tick observes the expired deadline.
        let err = ctx.tick("t").unwrap_err();
        assert!(matches!(
            err,
            EngineError::ResourceExhausted {
                kind: ResourceKind::Timeout,
                ..
            }
        ));
    }

    #[test]
    fn cancellation_is_observed_from_the_token() {
        let token = CancellationToken::new();
        let ctx = ExecutionContext::new().with_cancellation(token.clone());
        for _ in 0..TICKS_PER_CLOCK_CHECK {
            ctx.tick("t").unwrap();
        }
        token.cancel();
        let mut tripped = None;
        for _ in 0..TICKS_PER_CLOCK_CHECK {
            if let Err(e) = ctx.tick("t") {
                tripped = Some(e);
                break;
            }
        }
        assert!(matches!(
            tripped,
            Some(EngineError::ResourceExhausted {
                kind: ResourceKind::Cancelled,
                ..
            })
        ));
    }

    #[test]
    fn depth_guard_releases_on_drop() {
        let ctx = ExecutionContext::new().with_max_depth(2);
        let g1 = ctx.recurse("t").unwrap();
        let g2 = ctx.recurse("t").unwrap();
        assert!(matches!(
            ctx.recurse("t"),
            Err(EngineError::ResourceExhausted {
                kind: ResourceKind::DepthLimit,
                ..
            })
        ));
        drop(g2);
        let g2b = ctx.recurse("t").unwrap();
        drop(g2b);
        drop(g1);
        // Both levels free again.
        let _a = ctx.recurse("t").unwrap();
        let _b = ctx.recurse("t").unwrap();
    }

    #[test]
    fn budget_is_shared_across_uses_for_fallback_semantics() {
        let ctx = ExecutionContext::new().with_tuple_budget(100);
        ctx.charge_tuples("first-engine", 70).unwrap();
        assert_eq!(ctx.tuples_remaining(), Some(30));
        // A second engine on the same context only gets what is left.
        assert!(ctx.charge_tuples("second-engine", 40).is_err());
    }

    /// Run the same charging script in serial and shared mode and compare
    /// every observable: counters, remaining budget, and the trip point.
    #[test]
    fn shared_and_serial_modes_charge_identically() {
        let script = |ctx: &ExecutionContext| -> (Vec<bool>, u64, u64, u64, Option<u64>) {
            let mut outcomes = Vec::new();
            for step in 0..20u64 {
                let ok = ctx.tick("t").is_ok() && ctx.charge_tuples("t", step).is_ok();
                ctx.note_atom();
                outcomes.push(ok);
            }
            (
                outcomes,
                ctx.ticks(),
                ctx.atoms_processed(),
                ctx.tuples_materialized(),
                ctx.tuples_remaining(),
            )
        };
        let serial = ExecutionContext::new().with_tuple_budget(100);
        let shared = ExecutionContext::new().with_tuple_budget(100).into_shared();
        assert_eq!(script(&serial), script(&worker(&shared)));
    }

    #[test]
    fn into_shared_carries_counters_budget_and_depth_limit() {
        let ctx = ExecutionContext::new()
            .with_tuple_budget(100)
            .with_max_depth(1);
        ctx.charge_tuples("t", 30).unwrap();
        ctx.tick("t").unwrap();
        ctx.note_atom();

        let shared = ctx.into_shared();
        let w = worker(&shared);
        assert!(w.is_limited());
        w.charge_tuples("t", 20).unwrap();
        w.tick("t").unwrap();
        assert_eq!(w.tuples_remaining(), Some(50));
        assert_eq!(w.tuples_materialized(), 50);
        assert_eq!(w.ticks(), 2);
        assert_eq!(w.atoms_processed(), 1);
        // The envelope keeps enforcing the same budget…
        assert!(w.charge_tuples("t", 50).is_ok());
        let err = w.charge_tuples("t", 1).unwrap_err();
        assert!(matches!(
            err,
            EngineError::ResourceExhausted {
                kind: ResourceKind::TupleBudget,
                ..
            }
        ));
        // …and the same depth limit, per worker.
        let _level = w.recurse("t").unwrap();
        assert!(w.recurse("t").is_err());
    }

    #[test]
    fn degree_one_pool_leaves_the_context_unshared() {
        let ctx = ExecutionContext::new()
            .with_tuple_budget(10)
            .with_pool(&Pool::new(1));
        assert!(ctx.shared.is_none() && ctx.pool.is_none());
        assert_eq!(ctx.pool().threads(), 1);
        // Fan-out loops inline on the context itself: `Cell` counters.
        let seen = ctx
            .try_run(&[1u64, 2, 3], |c, _, n| c.charge_tuples("t", *n))
            .map(|v| v.len());
        assert_eq!(seen, Ok(3));
        assert_eq!(ctx.tuples_remaining.as_ref().map(Cell::get), Some(4));

        let par = ExecutionContext::new()
            .with_tuple_budget(10)
            .with_pool(&Pool::new(4));
        assert!(par.shared.is_some());
        assert_eq!(par.pool().threads(), 4);
        assert_eq!(par.tuples_remaining(), Some(10));
    }

    #[test]
    fn degree_four_counters_equal_the_serial_ones_on_the_same_query() {
        use pq_data::{tuple, Database};
        let mut db = Database::new();
        for (name, attrs) in [("P", ["c", "x"]), ("Q", ["c", "y"]), ("W", ["c", "z"])] {
            let rows = (0..40i64).map(|i| tuple![i % 7, i]);
            db.add_table(name, attrs, rows).unwrap();
        }
        db.add_table("H", ["c"], (0..5i64).map(|i| tuple![i]))
            .unwrap();
        // A star: three leaves under one hub, so every pass has a
        // multi-node level that fans out at degree 4. A chain: every level
        // has one parent and runs the data-parallel kernels instead. A fork
        // (GYO roots it at Q, with P(x, y) and W(z, w) each carrying a
        // leaf): a bottom-up level with two parents. The hypertree engine
        // walks the same sweep over width-1 bags, color coding over its
        // hash-extended nodes (one `I1` pair each).
        let star = "G(c, x) :- H(c), P(c, x), Q(c, y), W(c, z)";
        let chain = "G(a, d) :- P(a, b), Q(b, c), W(c, d)";
        let fork = "G(x, w) :- Q(y, z), P(x, y), P(x, y2), W(z, w), W(z2, w)";
        type Engine = fn(
            &pq_query::ConjunctiveQuery,
            &Database,
            &ExecutionContext,
        ) -> Result<pq_data::Relation>;
        let engines: [(Engine, [String; 3]); 3] = [
            (
                crate::yannakakis::evaluate_governed,
                [format!("{star}."), format!("{chain}."), format!("{fork}.")],
            ),
            (
                crate::hypertree::evaluate_governed,
                [format!("{star}."), format!("{chain}."), format!("{fork}.")],
            ),
            (
                |q, db, ctx| crate::colorcoding::evaluate_governed(q, db, &Default::default(), ctx),
                [
                    format!("{star}, x != y."),
                    format!("{chain}, a != d."),
                    format!("{fork}, x != w."),
                ],
            ),
        ];
        for (evaluate, queries) in engines {
            for src in queries {
                let q = pq_query::parse_cq(&src).unwrap();
                let counters = |ctx: ExecutionContext| {
                    let out = evaluate(&q, &db, &ctx).unwrap();
                    (
                        out,
                        ctx.ticks(),
                        ctx.atoms_processed(),
                        ctx.tuples_materialized(),
                        ctx.tuples_remaining(),
                    )
                };
                let budget = || ExecutionContext::new().with_tuple_budget(100_000);
                let serial = counters(budget());
                assert!(!serial.0.is_empty(), "{src}");
                assert_eq!(serial, counters(budget().with_pool(&Pool::new(4))), "{src}");
            }
        }
    }

    #[test]
    fn shared_budget_exhaustion_in_one_worker_stops_the_others() {
        let shared = ExecutionContext::new().with_tuple_budget(10).into_shared();
        let w1 = worker(&shared);
        let w2 = worker(&shared);
        w1.charge_tuples("t", 8).unwrap();
        assert!(w2.charge_tuples("t", 5).is_err(), "w2 overdraws");
        // Sticky zero: w1 is also out, even for a tiny charge.
        let err = w1.charge_tuples("t", 1).unwrap_err();
        assert!(matches!(
            err,
            EngineError::ResourceExhausted {
                kind: ResourceKind::TupleBudget,
                ..
            }
        ));
        assert_eq!(w2.tuples_remaining(), Some(0));
    }

    #[test]
    fn shared_cancellation_reaches_every_worker() {
        let token = CancellationToken::new();
        let shared = ExecutionContext::new()
            .with_cancellation(token.clone())
            .into_shared();
        token.cancel();
        for _ in 0..2 {
            let w = worker(&shared);
            let mut tripped = None;
            for _ in 0..TICKS_PER_CLOCK_CHECK {
                if let Err(e) = w.tick("t") {
                    tripped = Some(e);
                    break;
                }
            }
            assert!(matches!(
                tripped,
                Some(EngineError::ResourceExhausted {
                    kind: ResourceKind::Cancelled,
                    ..
                })
            ));
        }
    }

    #[test]
    fn worker_local_cancel_composes_with_the_shared_envelope() {
        let race = CancellationToken::new();
        let shared = ExecutionContext::new()
            .with_tuple_budget(1000)
            .into_shared();
        let w = worker(&shared).with_cancellation(race.clone());
        race.cancel();
        let mut tripped = None;
        for _ in 0..TICKS_PER_CLOCK_CHECK {
            if let Err(e) = w.tick("t") {
                tripped = Some(e);
                break;
            }
        }
        assert!(matches!(
            tripped,
            Some(EngineError::ResourceExhausted {
                kind: ResourceKind::Cancelled,
                ..
            })
        ));
        // The envelope itself is untouched: a fresh worker proceeds.
        assert!(worker(&shared).charge_tuples("t", 1).is_ok());
    }

    #[test]
    fn shared_fault_is_one_shot_across_workers() {
        let shared = ExecutionContext::new()
            .with_fault(FaultSpec {
                after_ticks: 3,
                kind: ResourceKind::Timeout,
            })
            .into_shared();
        let w1 = worker(&shared);
        let w2 = worker(&shared);
        assert!(w1.is_limited());
        w1.tick("t").unwrap();
        w2.tick("t").unwrap();
        // Third global tick trips, whoever takes it.
        assert!(matches!(
            w1.tick("t"),
            Err(EngineError::ResourceExhausted {
                kind: ResourceKind::Timeout,
                ..
            })
        ));
        // One-shot: disarmed for every worker afterwards.
        for _ in 0..10 {
            w2.tick("t").unwrap();
        }
        assert!(!w1.is_limited());
    }

    #[test]
    fn fault_injection_trips_exactly_at_the_requested_tick() {
        let ctx = ExecutionContext::new().with_fault(FaultSpec {
            after_ticks: 5,
            kind: ResourceKind::Timeout,
        });
        for _ in 0..4 {
            ctx.tick("t").unwrap();
        }
        assert!(matches!(
            ctx.tick("t"),
            Err(EngineError::ResourceExhausted {
                kind: ResourceKind::Timeout,
                ..
            })
        ));
        // One-shot: the fault disarms after firing, so a fallback engine
        // reusing the context runs normally.
        for _ in 0..100 {
            ctx.tick("t").unwrap();
        }
        assert!(!ctx.is_limited());
    }
}
