//! Lost-wake-up detector for the worker-ring hand-off.
//!
//! The rings and the gate notify only a peer that is parked, so a
//! mistake in the waiter accounting shows as a thread asleep with work
//! (or a release) it will never hear about — a hang, not a wrong
//! answer. This test puts every blocking hand-off under contention at
//! once — two producers mixing `submit`, `try_submit` and
//! `submit_fanout` on shallow rings, a controller looping `flush` and
//! `quiesce`, one worker killed mid-stream and respawned — over many
//! fresh pools, under a watchdog, and closes the books each time:
//! every accepted item was run, or recovered from the dead ring.
//!
//! Each pool runs twice: with both shards on worker threads (`k = 0`),
//! and with shard 0 a caller slot (`k = 1`), whose queue is run by
//! whichever thread waits — the controller's `flush` and `quiesce`, or
//! a producer whose blocking submit finds it full. So the books, and
//! the quiesce's no-handler-running check, cover caller slots too.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use netkit_kernel::shard::{ShardHandler, ShardSpec, WorkerPool};

const POOLS: usize = 200;
const ITEMS_PER_PRODUCER: u32 = 600;
const POISON: u32 = 0;
const DEADLINE: Duration = Duration::from_secs(120);

#[derive(Default)]
struct Books {
    /// Items a submit call took (`Ok`, or counted by `submit_fanout`).
    accepted: AtomicU64,
    /// Items a submit call gave back.
    rejected: AtomicU64,
    /// Items the handlers ran to completion.
    ran: AtomicU64,
    /// Handlers inside an item right now; a quiesce must see none.
    running: AtomicUsize,
}

fn handler(books: &Arc<Books>) -> ShardHandler<u32> {
    let books = Arc::clone(books);
    Box::new(move |item| {
        books.running.fetch_add(1, Ordering::SeqCst);
        let poisoned = item == POISON;
        if !poisoned {
            books.ran.fetch_add(1, Ordering::SeqCst);
        }
        books.running.fetch_sub(1, Ordering::SeqCst);
        assert!(!poisoned, "injected fault");
    })
}

fn produce(pool: &WorkerPool<u32>, books: &Books, producer: u32) {
    let tally = |outcome: Result<(), u32>| {
        let side = match outcome {
            Ok(()) => &books.accepted,
            Err(_) => &books.rejected,
        };
        side.fetch_add(1, Ordering::SeqCst);
    };
    for i in 1..=ITEMS_PER_PRODUCER {
        // Producer 0 kills shard 0 halfway through.
        if producer == 0 && i == ITEMS_PER_PRODUCER / 2 {
            tally(pool.submit(0, POISON));
            continue;
        }
        let shard = ((i + producer) % 2) as usize;
        match i % 3 {
            0 => tally(pool.submit(shard, i)),
            1 => tally(pool.try_submit(shard, i)),
            _ => {
                let sent = pool.submit_fanout(
                    0..2,
                    |_| i,
                    |_, _| {
                        books.rejected.fetch_add(1, Ordering::SeqCst);
                    },
                );
                books.accepted.fetch_add(sent as u64, Ordering::SeqCst);
            }
        }
    }
}

/// Respawns shard 0 if it is dead; returns the items recovered from its
/// ring.
fn heal(pool: &WorkerPool<u32>, books: &Arc<Books>) -> u64 {
    let mut stranded = 0;
    if pool.worker_alive(0) == Some(false) {
        pool.respawn(0, handler(books), |_| stranded += 1)
            .expect("a dead worker respawns");
    }
    stranded
}

fn one_pool(caller_shards: usize) {
    let books = Arc::new(Books::default());
    let spec = ShardSpec {
        caller_shards,
        ..ShardSpec::new(2).with_ring_capacity(4)
    };
    let pool = WorkerPool::start(spec, |_| handler(&books));
    let producing = AtomicBool::new(true);
    let mut stranded = 0;
    std::thread::scope(|s| {
        let producers = [0, 1].map(|p| {
            let (pool, books) = (&pool, &books);
            s.spawn(move || produce(pool, books, p))
        });
        let controller = s.spawn(|| {
            let mut stranded = 0;
            while producing.load(Ordering::SeqCst) {
                pool.flush();
                let running = pool.quiesce(|| books.running.load(Ordering::SeqCst));
                assert_eq!(running, 0, "a handler ran inside a quiesce");
                stranded += heal(&pool, &books);
            }
            stranded
        });
        for producer in producers {
            producer.join().expect("producer");
        }
        producing.store(false, Ordering::SeqCst);
        stranded = controller.join().expect("controller");
    });
    // The poison may have been the last thing shard 0 saw; on a caller
    // slot it may still be queued, and this flush runs it.
    pool.flush();
    stranded += heal(&pool, &books);
    pool.flush();

    let accepted = books.accepted.load(Ordering::SeqCst);
    let rejected = books.rejected.load(Ordering::SeqCst);
    let ran = books.ran.load(Ordering::SeqCst);
    assert_eq!(
        ran + stranded + 1,
        accepted,
        "accepted = ran + recovered + the poison ({rejected} rejected)"
    );
    assert_eq!(pool.total_completed(), ran);
    assert_eq!(pool.in_flight(), 0);
    assert_eq!(pool.respawned(), 1);
    pool.shutdown(); // the rings disconnect; both workers must hear it
}

#[test]
fn every_handoff_under_contention_closes_its_books() {
    let (done_tx, done_rx) = mpsc::channel();
    let stress = std::thread::spawn(move || {
        for _ in 0..POOLS {
            for caller_shards in [0, 1] {
                one_pool(caller_shards);
            }
        }
        let _ = done_tx.send(());
    });
    match done_rx.recv_timeout(DEADLINE) {
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("hand-off wedged: no progress within {DEADLINE:?}")
        }
        // Finished, or panicked (which drops `done_tx`): the join tells.
        _ => stress.join().expect("stress thread"),
    }
}
