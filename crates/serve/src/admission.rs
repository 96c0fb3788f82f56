//! Two-class fair admission control: bounded in-flight permits with a FIFO
//! wait queue and a separate cap on the heavy class.
//!
//! The serving workload mixes cheap probes (single/batched BFS — the
//! *light* class) with expensive analytics (PageRank — the *heavy* class).
//! A single shared permit count would let a burst of heavies occupy every
//! permit and push probe latency from microseconds to seconds, so the
//! queue enforces two rules:
//!
//! 1. **Bounded concurrency** — at most `total` requests run at once
//!    (matched to the scratch-pool slot count, so every admitted request
//!    gets warm scratch).
//! 2. **Class fairness** — at most `heavy_cap < total` of them are heavy.
//!    Within a class admission is strict FIFO; across classes the oldest
//!    waiter that its class cap *allows* goes first, so lights overtake
//!    only cap-blocked heavies (lights never starve behind a heavy
//!    backlog) while a waiting heavy still holds its place for the next
//!    permit its cap allows (heavies never starve behind a light flood
//!    of later arrivals).
//!
//! The queue honors each request's
//! [`RunBudget`](essentials_parallel::RunBudget) wall-clock deadline: a
//! request still waiting at its deadline gives up its place and fails with
//! [`AdmissionError::QueueDeadline`] — the same deadline the operators
//! would enforce mid-run, applied to the wait as well. A cancelled token
//! is observed at the polling granularity (`CANCEL_POLL`).
//!
//! Plain `std` mutex + condvar: admission runs once per *request*, three
//! to six orders of magnitude rarer than the per-edge hot paths, so
//! contention here is irrelevant next to correctness and debuggability.
//! Lock poisoning is deliberately forgiven (`relock`): the state is a pair
//! of counters plus a queue of copyable tickets, consistent at every await
//! point, and a panicking *worker* must not wedge admissions forever.

use essentials_parallel::CancelToken;
use std::collections::VecDeque;
use std::fmt;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// How often a queued request re-checks its cancellation token while
/// blocked on the condvar.
const CANCEL_POLL: Duration = Duration::from_millis(10);

/// Admission class of a request (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Cheap, latency-sensitive probes (BFS, batched BFS, reachability).
    Light,
    /// Expensive, throughput-oriented analytics (PageRank and friends).
    Heavy,
}

impl Class {
    /// Stable lowercase label for observability rows.
    pub fn name(self) -> &'static str {
        match self {
            Class::Light => "light",
            Class::Heavy => "heavy",
        }
    }
}

/// Why a request was never admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionError {
    /// The request's deadline expired while it was still queued.
    QueueDeadline,
    /// The request's cancellation token fired while it was still queued.
    Cancelled,
    /// The deadline-feasibility gate predicted, at arrival, that the
    /// request could not finish before its deadline given the current
    /// backlog, and rejected it without queueing (DESIGN.md §16). Raised
    /// by the serving engine, not the gate itself — the gate only defines
    /// the rejection vocabulary.
    Shed,
}

impl AdmissionError {
    /// Stable label (matches the [`essentials_parallel::BudgetReason`]
    /// vocabulary where the concepts overlap).
    pub fn kind(self) -> &'static str {
        match self {
            AdmissionError::QueueDeadline => "queue-deadline",
            AdmissionError::Cancelled => "cancelled",
            AdmissionError::Shed => "shed",
        }
    }
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::QueueDeadline => {
                write!(f, "deadline expired while queued for admission")
            }
            AdmissionError::Cancelled => write!(f, "cancelled while queued for admission"),
            AdmissionError::Shed => {
                write!(f, "shed on arrival: predicted to miss its deadline")
            }
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Mutable admission state, guarded by the mutex.
struct State {
    in_flight: usize,
    heavy_in_flight: usize,
    next_ticket: u64,
    /// Waiting requests in arrival (= ticket) order. Entries are removed
    /// from anywhere (admission from the front region, deadline expiry
    /// from wherever the loser sits), which keeps the remainder sorted.
    queue: VecDeque<(u64, Class)>,
}

/// The admission gate (see module docs).
pub struct Admission {
    total: usize,
    heavy_cap: usize,
    state: Mutex<State>,
    cv: Condvar,
}

/// An admitted request's permit; released on drop.
pub struct Permit<'a> {
    adm: &'a Admission,
    class: Class,
}

impl Permit<'_> {
    /// The admitted class.
    pub fn class(&self) -> Class {
        self.class
    }
}

impl fmt::Debug for Permit<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Permit")
            .field("class", &self.class)
            .finish_non_exhaustive()
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.adm.release(self.class);
    }
}

impl Admission {
    /// A gate with `total` permits, at most `heavy_cap` of them held by
    /// heavy requests at once. `heavy_cap` is clamped into
    /// `1..=total` — zero would deadlock every heavy forever, and more
    /// than `total` is meaningless.
    pub fn new(total: usize, heavy_cap: usize) -> Self {
        assert!(total > 0, "admission needs at least one permit");
        Admission {
            total,
            heavy_cap: heavy_cap.clamp(1, total),
            state: Mutex::new(State {
                in_flight: 0,
                heavy_in_flight: 0,
                next_ticket: 0,
                queue: VecDeque::new(),
            }),
            cv: Condvar::new(),
        }
    }

    /// Total permit count.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Heavy-class cap.
    pub fn heavy_cap(&self) -> usize {
        self.heavy_cap
    }

    /// Snapshot of `(in_flight, heavy_in_flight, queued)` for tests and
    /// telemetry.
    pub fn snapshot(&self) -> (usize, usize, usize) {
        let st = relock(self.state.lock());
        (st.in_flight, st.heavy_in_flight, st.queue.len())
    }

    /// Blocks until admitted, the deadline expires, or the token cancels.
    /// FIFO within class; across classes see the module-level fairness
    /// rules.
    pub fn acquire(
        &self,
        class: Class,
        deadline: Option<Instant>,
        cancel: Option<&CancelToken>,
    ) -> Result<Permit<'_>, AdmissionError> {
        let mut st = relock(self.state.lock());
        // Fast path: nobody queued and the caps admit us right now.
        if st.queue.is_empty() && self.fits(&st, class) {
            grant(&mut st, class);
            return Ok(Permit { adm: self, class });
        }
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        st.queue.push_back((ticket, class));
        loop {
            if let Some(token) = cancel {
                if token.is_cancelled() {
                    remove_ticket(&mut st, ticket);
                    drop(st);
                    // Our departure may unblock a younger waiter.
                    self.cv.notify_all();
                    return Err(AdmissionError::Cancelled);
                }
            }
            if self.my_turn(&st, ticket, class) {
                remove_ticket(&mut st, ticket);
                grant(&mut st, class);
                drop(st);
                self.cv.notify_all();
                return Ok(Permit { adm: self, class });
            }
            let now = Instant::now();
            if let Some(d) = deadline {
                if now >= d {
                    remove_ticket(&mut st, ticket);
                    drop(st);
                    self.cv.notify_all();
                    return Err(AdmissionError::QueueDeadline);
                }
            }
            // Sleep until something changes. With a deadline or a cancel
            // token the sleep is bounded so the limit is observed; spurious
            // wakeups just re-run the checks above.
            st = match (deadline, cancel.is_some()) {
                (None, false) => relock(self.cv.wait(st)),
                (d, polled) => {
                    let mut dur = d.map_or(Duration::MAX, |d| d.saturating_duration_since(now));
                    if polled {
                        dur = dur.min(CANCEL_POLL);
                    }
                    match self.cv.wait_timeout(st, dur) {
                        Ok((g, _)) => g,
                        Err(poisoned) => poisoned.into_inner().0,
                    }
                }
            };
        }
    }

    /// Whether the caps alone admit a `class` request right now.
    fn fits(&self, st: &State, class: Class) -> bool {
        st.in_flight < self.total && (class != Class::Heavy || st.heavy_in_flight < self.heavy_cap)
    }

    /// Whether `ticket` is the oldest waiter its class cap allows: every
    /// older waiter must be a heavy currently blocked by the heavy cap
    /// (the only overtakable state).
    fn my_turn(&self, st: &State, ticket: u64, class: Class) -> bool {
        if !self.fits(st, class) {
            return false;
        }
        for &(t, c) in &st.queue {
            if t == ticket {
                return true;
            }
            let overtakable = c == Class::Heavy && st.heavy_in_flight >= self.heavy_cap;
            if !overtakable {
                return false;
            }
        }
        // Unreachable: our ticket is always in the queue while we wait.
        false
    }

    /// Returns a permit (called from [`Permit::drop`]).
    fn release(&self, class: Class) {
        let mut st = relock(self.state.lock());
        st.in_flight -= 1;
        if class == Class::Heavy {
            st.heavy_in_flight -= 1;
        }
        drop(st);
        self.cv.notify_all();
    }
}

/// Books a grant into the state (caller already verified the caps).
fn grant(st: &mut State, class: Class) {
    st.in_flight += 1;
    if class == Class::Heavy {
        st.heavy_in_flight += 1;
    }
}

/// Drops `ticket` from wherever it sits in the queue.
fn remove_ticket(st: &mut State, ticket: u64) {
    if let Some(i) = st.queue.iter().position(|&(t, _)| t == ticket) {
        st.queue.remove(i);
    }
}

/// Forgives lock poisoning (see module docs for why that is sound here).
fn relock<'a>(
    r: Result<MutexGuard<'a, State>, std::sync::PoisonError<MutexGuard<'a, State>>>,
) -> MutexGuard<'a, State> {
    match r {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn caps_are_enforced_and_released() {
        let adm = Admission::new(2, 1);
        let a = adm.acquire(Class::Heavy, None, None).expect("heavy 1");
        assert_eq!(adm.snapshot(), (1, 1, 0));
        let b = adm.acquire(Class::Light, None, None).expect("light");
        assert_eq!(adm.snapshot(), (2, 1, 0));
        drop(a);
        drop(b);
        assert_eq!(adm.snapshot(), (0, 0, 0));
    }

    #[test]
    fn queue_deadline_fires_for_a_blocked_request() {
        let adm = Admission::new(1, 1);
        let hold = adm.acquire(Class::Light, None, None).expect("holder");
        let err = adm
            .acquire(
                Class::Light,
                Some(Instant::now() + Duration::from_millis(30)),
                None,
            )
            .expect_err("must time out in queue");
        assert_eq!(err, AdmissionError::QueueDeadline);
        assert_eq!(adm.snapshot(), (1, 0, 0), "loser left the queue");
        drop(hold);
    }

    #[test]
    fn cancel_token_unblocks_a_queued_request() {
        let adm = Arc::new(Admission::new(1, 1));
        let hold = adm.acquire(Class::Light, None, None).expect("holder");
        let token = CancelToken::new();
        let t2 = token.clone();
        let a2 = adm.clone();
        let waiter = std::thread::spawn(move || a2.acquire(Class::Light, None, Some(&t2)).err());
        std::thread::sleep(Duration::from_millis(30));
        token.cancel();
        assert_eq!(
            waiter.join().expect("no panic"),
            Some(AdmissionError::Cancelled)
        );
        drop(hold);
    }

    #[test]
    fn cancelling_a_parked_waiter_unblocks_promptly_and_leaves_no_fifo_hole() {
        // The race under test: the token fires while the waiter is parked
        // *inside* the condvar wait (not on the pre-wait check). The
        // bounded CANCEL_POLL sleep must observe it promptly, and the
        // departing waiter must remove its own ticket so the waiter queued
        // behind it is not stranded behind a ghost entry.
        let adm = Arc::new(Admission::new(1, 1));
        let hold = adm.acquire(Class::Light, None, None).expect("holder");
        // Waiter A: queued first, no cancel token, will eventually win.
        let a_adm = adm.clone();
        let waiter_a =
            std::thread::spawn(move || a_adm.acquire(Class::Light, None, None).map(drop).is_ok());
        while adm.snapshot().2 < 1 {
            std::thread::yield_now();
        }
        // Waiter B: queued behind A with a cancel token.
        let token = CancelToken::new();
        let t2 = token.clone();
        let b_adm = adm.clone();
        let waiter_b =
            std::thread::spawn(move || b_adm.acquire(Class::Light, None, Some(&t2)).err());
        while adm.snapshot().2 < 2 {
            std::thread::yield_now();
        }
        // Give B time to park in the condvar wait, then cancel.
        std::thread::sleep(Duration::from_millis(30));
        let fired = Instant::now();
        token.cancel();
        assert_eq!(
            waiter_b.join().expect("no panic"),
            Some(AdmissionError::Cancelled)
        );
        assert!(
            fired.elapsed() < Duration::from_millis(500),
            "cancellation must unblock within the polling bound, took {:?}",
            fired.elapsed()
        );
        // B's ticket is gone (no FIFO hole): only A still waits...
        assert_eq!(adm.snapshot(), (1, 0, 1), "cancelled ticket released");
        // ...and releasing the holder admits A normally.
        drop(hold);
        assert!(
            waiter_a.join().expect("no panic"),
            "A admitted after B left"
        );
        assert_eq!(adm.snapshot(), (0, 0, 0));
    }

    #[test]
    fn lights_overtake_cap_blocked_heavies_but_heavies_keep_their_place() {
        let adm = Arc::new(Admission::new(2, 1));
        let heavy_running = adm.acquire(Class::Heavy, None, None).expect("heavy runs");
        let order = Arc::new(AtomicUsize::new(0));

        // A heavy queued behind the cap...
        let (a2, o2) = (adm.clone(), order.clone());
        let queued_heavy = std::thread::spawn(move || {
            let p = a2.acquire(Class::Heavy, None, None).expect("eventually");
            let at = o2.fetch_add(1, Ordering::Relaxed);
            drop(p);
            at
        });
        while adm.snapshot().2 < 1 {
            std::thread::yield_now();
        }
        // ...must not block a later light while the cap is the only
        // obstacle.
        let (a3, o3) = (adm.clone(), order.clone());
        let light = std::thread::spawn(move || {
            let p = a3.acquire(Class::Light, None, None).expect("immediately");
            let at = o3.fetch_add(1, Ordering::Relaxed);
            drop(p);
            at
        });
        let light_at = light.join().expect("light runs while heavy is capped");
        assert_eq!(light_at, 0, "light admitted before the queued heavy");
        // Freeing the running heavy lets the queued heavy through.
        drop(heavy_running);
        let heavy_at = queued_heavy.join().expect("heavy eventually admitted");
        assert_eq!(heavy_at, 1);
        assert_eq!(adm.snapshot(), (0, 0, 0));
    }
}
