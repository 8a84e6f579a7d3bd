//! The workspace's one worker runtime: a small persistent pool of parked
//! threads under both parallel backends.
//!
//! [`run`] executes `f(0), …, f(parts − 1)` concurrently — part 0 on the
//! caller, part `k` on pool worker `k` — and returns when all are done.
//! Every parallel loop reaches it: this crate's chunk helpers
//! ([`for_chunks`](crate::for_chunks), [`map_chunks`](crate::map_chunks);
//! `Parallel` and Ref) and `graphblas`'s sharded supersteps
//! (`Distributed`), so what a kernel call pays for parallelism is this
//! file and nothing else. `run` is a thin generic shell: the protocol
//! below is compiled once, in the non-generic `run_job`, not once per
//! closure type.
//!
//! * **Spin, then park.** An idle worker polls its mailbox for
//!   `SPIN`, offering its CPU to any runnable thread between polls, and
//!   then parks. HPCG issues kernels back to back, tens of microseconds
//!   apart, and finds the workers still polling; a server between jobs
//!   finds them asleep and its own threads keep the CPUs. The budget is
//!   fixed and time-bounded: a longer one makes idle workers compete with
//!   whatever else the process runs.
//! * **All parts are live at once.** The pool grows to the largest
//!   `parts − 1` ever asked for and every part has a thread of its own,
//!   so parts may wait on each other (a superstep's parts block in
//!   `bsp::Exchange`) however few CPUs the host has.
//! * **One region at a time.** Concurrent callers queue on the region
//!   lock instead of oversubscribing the host.
//! * **Nested calls run inline.** A call from inside a region (from a
//!   pool worker, or from the caller's own part 0) runs its parts in
//!   order on the calling thread; such parts must not wait on each other.
//! * **Panics propagate.** A panicking part is caught, the region still
//!   completes, and the panic resumes on the caller; the pool stays
//!   usable.
//!
//! Workers are detached and live as long as the process; idle ones are
//! parked and hold nothing but their stack.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::Thread;
use std::time::{Duration, Instant};

/// How long an idle worker (or a caller waiting for its region) polls
/// before it sleeps. Long enough to bridge the gap between two kernels of
/// one solve, including the serial fold or cost bookkeeping between two
/// supersteps; short next to a scheduler wake-up and to a served job.
const SPIN: Duration = Duration::from_micros(50);

/// A region's work, type-erased: `call(data, part)` runs `f(part)`.
/// Lives on the caller's stack for the duration of the region.
struct Job {
    data: *const (),
    call: unsafe fn(*const (), usize),
}

/// What a region's caller and one worker share.
struct Mailbox {
    /// The job to run, or null. Set by the region's caller (only while
    /// null, under the region lock), cleared by the worker when taken.
    job: AtomicPtr<Job>,
    /// Set by the worker before it parks, so the caller knows to unpark.
    parked: AtomicBool,
}

struct Worker {
    mailbox: Arc<Mailbox>,
    thread: Thread,
}

type Panic = Box<dyn Any + Send + 'static>;

struct Pool {
    /// Serialises regions; owns the worker list (index `k − 1` runs part `k`).
    region: Mutex<Vec<Worker>>,
    /// Parts of the current region that workers have not finished yet.
    pending: AtomicUsize,
    /// The first panic a worker caught in the current region.
    panic: Mutex<Option<Panic>>,
    /// Set while the region's caller sleeps on `done`.
    caller_parked: AtomicBool,
    done_lock: Mutex<()>,
    done: Condvar,
}

static POOL: Pool = Pool {
    region: Mutex::new(Vec::new()),
    pending: AtomicUsize::new(0),
    panic: Mutex::new(None),
    caller_parked: AtomicBool::new(false),
    done_lock: Mutex::new(()),
    done: Condvar::new(),
};

thread_local! {
    /// True on pool workers always, on a caller while its region runs.
    static IN_REGION: Cell<bool> = const { Cell::new(false) };
}

/// A lock that stays usable after a panic: every critical section here
/// leaves its data valid at every step.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Polls `ready` for at most [`SPIN`]; whether it came true. The yield
/// between bursts costs nothing when every thread has a CPU and hands
/// the CPU over at once when parts outnumber CPUs (dist:4 on two: an
/// empty superstep took 121 µs without it, 3 µs with it).
fn spin_until(ready: impl Fn() -> bool) -> bool {
    let start = Instant::now();
    loop {
        for _ in 0..32 {
            if ready() {
                return true;
            }
            std::hint::spin_loop();
        }
        if start.elapsed() >= SPIN {
            return ready();
        }
        std::thread::yield_now();
    }
}

/// Runs `f(0), …, f(parts − 1)` concurrently, part 0 on the calling
/// thread, and returns once every part has returned. See the module docs
/// for the guarantees. If parts panic, one of the panics resumes here.
pub fn run<F: Fn(usize) + Sync>(parts: usize, f: F) {
    if parts <= 1 || IN_REGION.with(Cell::get) {
        for part in 0..parts {
            f(part);
        }
        return;
    }

    /// # Safety
    /// `data` must point to a live `F`.
    unsafe fn call<F: Fn(usize)>(data: *const (), part: usize) {
        // SAFETY: guaranteed by the caller.
        unsafe { (*data.cast::<F>())(part) }
    }
    let job = Job {
        data: ptr::from_ref(&f).cast(),
        call: call::<F>,
    };
    run_job(parts, &job);
}

/// The region protocol behind [`run`], for `parts ≥ 2` outside a region.
/// `job` and the closure it points to stay borrowed until this returns.
#[inline(never)]
fn run_job(parts: usize, job: &Job) {
    let mut workers = lock(&POOL.region);
    while workers.len() < parts - 1 {
        let part = workers.len() + 1;
        workers.push(spawn_worker(part));
    }
    // SeqCst on `job`/`parked` and on `pending`/`caller_parked` below: each
    // pair is a store-then-load handshake between two threads (Dekker), so
    // at least one side must see the other's store.
    POOL.pending.store(parts - 1, Ordering::SeqCst);
    for worker in &workers[..parts - 1] {
        let posted = ptr::from_ref(job).cast_mut();
        worker.mailbox.job.store(posted, Ordering::SeqCst);
        if worker.mailbox.parked.load(Ordering::SeqCst) {
            worker.thread.unpark();
        }
    }

    IN_REGION.with(|r| r.set(true));
    // SAFETY: `run` built `job` from a closure that outlives this call.
    let mine = catch_unwind(AssertUnwindSafe(|| unsafe { (job.call)(job.data, 0) }));
    IN_REGION.with(|r| r.set(false));

    // The closure and `job` are borrowed by the workers until `pending` is
    // zero, so nothing — not even a panic in part 0 — leaves before that.
    let finished = || POOL.pending.load(Ordering::SeqCst) == 0;
    if !spin_until(finished) {
        let mut guard = lock(&POOL.done_lock);
        POOL.caller_parked.store(true, Ordering::SeqCst);
        while !finished() {
            guard = POOL.done.wait(guard).unwrap_or_else(|e| e.into_inner());
        }
        POOL.caller_parked.store(false, Ordering::SeqCst);
    }
    let theirs = lock(&POOL.panic).take();
    drop(workers);

    if let Err(payload) = mine {
        resume_unwind(payload);
    }
    if let Some(payload) = theirs {
        resume_unwind(payload);
    }
}

/// Spawns the worker that runs part `part` of every region wide enough.
fn spawn_worker(part: usize) -> Worker {
    let mailbox = Arc::new(Mailbox {
        job: AtomicPtr::new(ptr::null_mut()),
        parked: AtomicBool::new(false),
    });
    let theirs = Arc::clone(&mailbox);
    let handle = std::thread::Builder::new()
        .name(format!("grb-pool-{part}"))
        .spawn(move || {
            IN_REGION.with(|r| r.set(true));
            worker_loop(&theirs, part)
        })
        .expect("spawning a pool worker thread");
    Worker {
        mailbox,
        thread: handle.thread().clone(),
    }
}

fn worker_loop(me: &Mailbox, part: usize) -> ! {
    loop {
        let posted = || !me.job.load(Ordering::SeqCst).is_null();
        if !spin_until(posted) {
            me.parked.store(true, Ordering::SeqCst);
            while !posted() {
                std::thread::park();
            }
            me.parked.store(false, Ordering::SeqCst);
        }
        let job = me.job.swap(ptr::null_mut(), Ordering::SeqCst);
        // SAFETY: the caller that posted `job` keeps it, and the closure it
        // points to, alive until `pending` reaches zero, which this worker
        // only lets happen after the call below has returned.
        let outcome = catch_unwind(AssertUnwindSafe(|| unsafe {
            let job = &*job;
            (job.call)(job.data, part);
        }));
        if let Err(payload) = outcome {
            lock(&POOL.panic).get_or_insert(payload);
        }
        if POOL.pending.fetch_sub(1, Ordering::SeqCst) == 1
            && POOL.caller_parked.load(Ordering::SeqCst)
        {
            // Taking the lock orders this after the caller's `wait`.
            let _guard = lock(&POOL.done_lock);
            POOL.done.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::run;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Barrier, Mutex};
    use std::thread::ThreadId;

    #[test]
    fn concurrent_callers_both_complete() {
        let start = Barrier::new(2);
        let totals: Vec<usize> = std::thread::scope(|s| {
            let callers: Vec<_> = (0..2usize)
                .map(|caller| {
                    let start = &start;
                    s.spawn(move || {
                        start.wait();
                        let total = AtomicUsize::new(0);
                        for round in 0..200 {
                            run(3, |part| {
                                total.fetch_add(caller * 1000 + round + part, Ordering::Relaxed);
                            });
                        }
                        total.into_inner()
                    })
                })
                .collect();
            callers.into_iter().map(|c| c.join().unwrap()).collect()
        });
        let rounds: usize = (0..200).map(|round| 3 * round + 3).sum();
        assert_eq!(totals, vec![rounds, 200 * 3 * 1000 + rounds]);
    }

    #[test]
    fn nested_call_runs_inline_in_part_order() {
        let seen: Mutex<Vec<(usize, usize, ThreadId, ThreadId)>> = Mutex::new(Vec::new());
        run(2, |outer| {
            let outer_thread = std::thread::current().id();
            run(3, |inner| {
                let here = std::thread::current().id();
                seen.lock()
                    .unwrap()
                    .push((outer, inner, outer_thread, here));
            });
        });
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), 6);
        for outer in 0..2 {
            let inner: Vec<_> = seen.iter().filter(|s| s.0 == outer).collect();
            assert_eq!(inner.iter().map(|s| s.1).collect::<Vec<_>>(), [0, 1, 2]);
            assert!(
                inner.iter().all(|s| s.2 == s.3),
                "nested parts left their thread"
            );
        }
        let threads: Vec<_> = (0..2)
            .map(|outer| seen.iter().find(|s| s.0 == outer).unwrap().2)
            .collect();
        assert_ne!(threads[0], threads[1], "outer parts share a thread");
    }

    #[test]
    fn a_panicking_part_reaches_the_caller_and_the_pool_survives() {
        for bad in [0usize, 2] {
            let ran = AtomicUsize::new(0);
            let caught = catch_unwind(AssertUnwindSafe(|| {
                run(3, |part| {
                    ran.fetch_add(1, Ordering::Relaxed);
                    if part == bad {
                        panic!("part {part} failed");
                    }
                });
            }));
            let message = caught.expect_err("the panic must resume on the caller");
            assert_eq!(
                message.downcast_ref::<String>().map(String::as_str),
                Some(format!("part {bad} failed").as_str())
            );
            assert_eq!(ran.into_inner(), 3, "the other parts still ran to the end");
            let after = AtomicUsize::new(0);
            run(3, |part| {
                after.fetch_add(part + 1, Ordering::Relaxed);
            });
            assert_eq!(after.into_inner(), 6);
        }
    }

    /// More parts than this host has CPUs, every part blocked on all the
    /// others: only a pool that keeps all seven live at once gets through.
    #[test]
    fn parts_that_wait_on_each_other_all_run_at_once() {
        let p = 7;
        let exchange = bsp::Exchange::<usize>::new(p);
        let sums = Mutex::new(vec![0usize; p]);
        for round in 0..50 {
            run(p, |node| {
                exchange.post_allgather(node, &[round * 100 + node]);
                let mut sum = round * 100 + node;
                exchange.complete_allgather_with(node, |_, chunk| sum += chunk[0]);
                sums.lock().unwrap()[node] = sum;
            });
            let expect = p * round * 100 + (0..p).sum::<usize>();
            assert_eq!(*sums.lock().unwrap(), vec![expect; p]);
        }
    }
}
