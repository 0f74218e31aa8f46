//! Offline stand-in for `crossbeam`.
//!
//! Provides the `crossbeam::channel` subset the workspace uses: MPMC
//! `bounded`/`unbounded` channels whose `Sender`/`Receiver` are both
//! `Send + Sync + Clone`, built on a `Mutex<VecDeque>` + `Condvar`.
//! Disconnection semantics match crossbeam: `recv` fails once every
//! sender is gone and the queue is drained; `send` fails once every
//! receiver is gone.
//!
//! Like the real crate, an operation enters the kernel only to park
//! (nothing to receive, or no room to send) or to wake a peer that is
//! parked: the waiter counts live in the mutex-protected state beside
//! the queue, and a push or pop that finds them zero skips its
//! `Condvar` notify — on Linux an unconditional `FUTEX_WAKE`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Multi-producer multi-consumer channels.
pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
    use std::time::Duration;

    /// Everything the channel's peers agree on, under one mutex: the
    /// notifier reads the waiter counts under the same lock the waiter
    /// raised them under, so "nobody is parked" is never stale.
    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
        /// Receivers inside a `not_empty` wait.
        recv_parked: usize,
        /// Senders inside a `not_full` wait.
        send_parked: usize,
        /// Condvar notifies issued for a push or a pop (not the
        /// disconnect broadcasts) — read by the wake-accounting tests.
        wakes: u64,
    }

    struct Chan<T> {
        state: Mutex<State<T>>,
        not_empty: Condvar,
        not_full: Condvar,
        capacity: Option<usize>,
    }

    impl<T> Chan<T> {
        fn lock(&self) -> MutexGuard<'_, State<T>> {
            self.state.lock().unwrap_or_else(PoisonError::into_inner)
        }

        /// Queues `msg` and wakes a receiver only if one is parked:
        /// `Condvar::notify_one` is a futex syscall whether or not
        /// anyone waits, so the steady state must not reach it.
        fn push(&self, mut st: MutexGuard<'_, State<T>>, msg: T) {
            st.queue.push_back(msg);
            let wake = st.recv_parked > 0;
            st.wakes += u64::from(wake);
            drop(st);
            if wake {
                self.not_empty.notify_one();
            }
        }

        /// Takes the oldest message, waking a sender only if one is
        /// parked on a full queue.
        fn pop<'a>(&self, mut st: MutexGuard<'a, State<T>>) -> Result<T, MutexGuard<'a, State<T>>> {
            let Some(msg) = st.queue.pop_front() else {
                return Err(st);
            };
            let wake = st.send_parked > 0;
            st.wakes += u64::from(wake);
            drop(st);
            if wake {
                self.not_full.notify_one();
            }
            Ok(msg)
        }

        fn is_full(&self, st: &State<T>) -> bool {
            self.capacity.is_some_and(|cap| st.queue.len() >= cap)
        }
    }

    /// Error returned by [`Sender::send`] when all receivers are gone;
    /// carries the unsent message.
    #[derive(PartialEq, Eq, Clone, Copy)]
    pub struct SendError<T>(pub T);

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "SendError(..)")
        }
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "sending on a disconnected channel")
        }
    }

    impl<T> std::error::Error for SendError<T> {}

    /// Error returned by [`Sender::try_send`]; carries the unsent
    /// message.
    #[derive(PartialEq, Eq, Clone, Copy)]
    pub enum TrySendError<T> {
        /// The (bounded) channel is at capacity.
        Full(T),
        /// All receivers are gone.
        Disconnected(T),
    }

    impl<T> TrySendError<T> {
        /// Recovers the message that could not be sent.
        pub fn into_inner(self) -> T {
            match self {
                TrySendError::Full(msg) | TrySendError::Disconnected(msg) => msg,
            }
        }

        /// True when the failure was a full channel (backpressure, not
        /// disconnection).
        pub fn is_full(&self) -> bool {
            matches!(self, TrySendError::Full(_))
        }
    }

    impl<T> fmt::Debug for TrySendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TrySendError::Full(_) => write!(f, "Full(..)"),
                TrySendError::Disconnected(_) => write!(f, "Disconnected(..)"),
            }
        }
    }

    impl<T> fmt::Display for TrySendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TrySendError::Full(_) => write!(f, "sending on a full channel"),
                TrySendError::Disconnected(_) => write!(f, "sending on a disconnected channel"),
            }
        }
    }

    impl<T> std::error::Error for TrySendError<T> {}

    /// Error returned by [`Receiver::recv`] when the channel is empty
    /// and all senders are gone.
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub struct RecvError;

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "receiving on an empty and disconnected channel")
        }
    }

    impl std::error::Error for RecvError {}

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum TryRecvError {
        /// Channel is currently empty.
        Empty,
        /// Channel is empty and all senders are gone.
        Disconnected,
    }

    impl fmt::Display for TryRecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TryRecvError::Empty => write!(f, "receiving on an empty channel"),
                TryRecvError::Disconnected => {
                    write!(f, "receiving on an empty and disconnected channel")
                }
            }
        }
    }

    impl std::error::Error for TryRecvError {}

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum RecvTimeoutError {
        /// The wait timed out with nothing received.
        Timeout,
        /// Channel is empty and all senders are gone.
        Disconnected,
    }

    impl fmt::Display for RecvTimeoutError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                RecvTimeoutError::Timeout => write!(f, "timed out waiting on channel"),
                RecvTimeoutError::Disconnected => {
                    write!(f, "channel is empty and disconnected")
                }
            }
        }
    }

    impl std::error::Error for RecvTimeoutError {}

    /// The sending half of a channel.
    pub struct Sender<T> {
        chan: Arc<Chan<T>>,
    }

    /// The receiving half of a channel.
    pub struct Receiver<T> {
        chan: Arc<Chan<T>>,
    }

    /// Creates a channel with unbounded capacity.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        with_capacity(None)
    }

    /// Creates a channel holding at most `cap` in-flight messages.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        with_capacity(Some(cap.max(1)))
    }

    fn with_capacity<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let chan = Arc::new(Chan {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
                recv_parked: 0,
                send_parked: 0,
                wakes: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
        });
        (
            Sender {
                chan: Arc::clone(&chan),
            },
            Receiver { chan },
        )
    }

    impl<T> Sender<T> {
        /// Sends `msg`, blocking while a bounded channel is full.
        ///
        /// # Errors
        ///
        /// Returns the message if every receiver has been dropped.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            let mut st = self.chan.lock();
            loop {
                if st.receivers == 0 {
                    return Err(SendError(msg));
                }
                if !self.chan.is_full(&st) {
                    break;
                }
                st.send_parked += 1;
                st = self
                    .chan
                    .not_full
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
                st.send_parked -= 1;
            }
            self.chan.push(st, msg);
            Ok(())
        }

        /// Sends `msg` without blocking.
        ///
        /// # Errors
        ///
        /// [`TrySendError::Full`] when a bounded channel is at capacity,
        /// [`TrySendError::Disconnected`] when every receiver is gone.
        pub fn try_send(&self, msg: T) -> Result<(), TrySendError<T>> {
            let st = self.chan.lock();
            if st.receivers == 0 {
                return Err(TrySendError::Disconnected(msg));
            }
            if self.chan.is_full(&st) {
                return Err(TrySendError::Full(msg));
            }
            self.chan.push(st, msg);
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.chan.lock().senders += 1;
            Self {
                chan: Arc::clone(&self.chan),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            // Count and broadcast under the queue lock: a receiver that
            // has seen `senders != 0` still holds the lock until its
            // wait releases it, so it is parked — and woken — before
            // the last sender can be seen gone. Unconditional: a
            // disconnect is not the steady state.
            let mut st = self.chan.lock();
            st.senders -= 1;
            if st.senders == 0 {
                self.chan.not_empty.notify_all();
            }
        }
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "Sender")
        }
    }

    impl<T> Receiver<T> {
        /// Receives a message, blocking until one is ready.
        ///
        /// # Errors
        ///
        /// Fails when the channel is empty and every sender is gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut st = self.chan.lock();
            loop {
                st = match self.chan.pop(st) {
                    Ok(msg) => return Ok(msg),
                    Err(st) => st,
                };
                if st.senders == 0 {
                    return Err(RecvError);
                }
                st.recv_parked += 1;
                st = self
                    .chan
                    .not_empty
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
                st.recv_parked -= 1;
            }
        }

        /// Receives a message without blocking.
        ///
        /// # Errors
        ///
        /// [`TryRecvError::Empty`] when nothing is queued,
        /// [`TryRecvError::Disconnected`] when additionally no sender
        /// remains.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            match self.chan.pop(self.chan.lock()) {
                Ok(msg) => Ok(msg),
                Err(st) if st.senders == 0 => Err(TryRecvError::Disconnected),
                Err(_) => Err(TryRecvError::Empty),
            }
        }

        /// Receives a message, waiting at most `timeout`.
        ///
        /// # Errors
        ///
        /// [`RecvTimeoutError::Timeout`] on expiry,
        /// [`RecvTimeoutError::Disconnected`] when the channel is empty
        /// with no senders left.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = std::time::Instant::now() + timeout;
            let mut st = self.chan.lock();
            loop {
                st = match self.chan.pop(st) {
                    Ok(msg) => return Ok(msg),
                    Err(st) => st,
                };
                if st.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = std::time::Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                st.recv_parked += 1;
                st = self
                    .chan
                    .not_empty
                    .wait_timeout(st, deadline - now)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
                st.recv_parked -= 1;
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.chan.lock().receivers += 1;
            Self {
                chan: Arc::clone(&self.chan),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            // Under the queue lock, for the reason `Sender::drop` gives.
            let mut st = self.chan.lock();
            st.receivers -= 1;
            if st.receivers == 0 {
                self.chan.not_full.notify_all();
            }
        }
    }

    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "Receiver")
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn send_recv_order() {
            let (tx, rx) = unbounded();
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv(), Ok(2));
        }

        #[test]
        fn disconnect_on_sender_drop() {
            let (tx, rx) = unbounded::<u8>();
            drop(tx);
            assert_eq!(rx.recv(), Err(RecvError));
        }

        #[test]
        fn disconnect_on_receiver_drop() {
            let (tx, rx) = unbounded();
            drop(rx);
            assert_eq!(tx.send(7), Err(SendError(7)));
        }

        #[test]
        fn try_send_backpressure_and_disconnect() {
            let (tx, rx) = bounded(1);
            tx.try_send(1).unwrap();
            assert!(matches!(tx.try_send(2), Err(TrySendError::Full(2))));
            assert!(tx.try_send(2).unwrap_err().is_full());
            assert_eq!(rx.recv(), Ok(1));
            tx.try_send(3).unwrap();
            drop(rx);
            assert!(matches!(tx.try_send(4), Err(TrySendError::Disconnected(4))));
            assert_eq!(tx.try_send(5).unwrap_err().into_inner(), 5);
        }

        #[test]
        fn cross_thread() {
            let (tx, rx) = bounded(1);
            let h = std::thread::spawn(move || {
                for i in 0..100 {
                    tx.send(i).unwrap();
                }
            });
            let got: Vec<i32> = (0..100).map(|_| rx.recv().unwrap()).collect();
            h.join().unwrap();
            assert_eq!(got, (0..100).collect::<Vec<_>>());
        }

        /// Spins until `parked` reads 1 — the peer is inside its wait
        /// (the count rises under the lock the wait releases).
        fn await_parked<T>(chan: &Chan<T>, parked: fn(&State<T>) -> usize) {
            while parked(&chan.lock()) != 1 {
                std::thread::yield_now();
            }
        }

        #[test]
        fn ring_operations_with_no_parked_peer_never_notify() {
            let (tx, rx) = bounded(4);
            for i in 0..10_000u32 {
                tx.try_send(i).unwrap();
                assert_eq!(rx.try_recv(), Ok(i));
            }
            // Failing and blocking-capable flavours that do not block.
            for i in 0..4 {
                tx.send(i).unwrap();
            }
            assert!(tx.try_send(9).unwrap_err().is_full());
            for i in 0..4 {
                assert_eq!(rx.recv(), Ok(i));
            }
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(1)),
                Err(RecvTimeoutError::Timeout)
            );
            assert_eq!(tx.chan.lock().wakes, 0);
        }

        #[test]
        fn a_parked_receiver_costs_one_wake_per_park() {
            const PARKS: u64 = 200;
            let (tx, rx) = unbounded::<u64>();
            let (ack_tx, ack_rx) = unbounded::<u64>();
            let consumer = std::thread::spawn(move || {
                while let Ok(n) = rx.recv() {
                    ack_tx.send(n).unwrap();
                }
            });
            for n in 0..PARKS {
                await_parked(&tx.chan, |st| st.recv_parked);
                tx.send(n).unwrap();
                assert_eq!(ack_rx.recv(), Ok(n));
            }
            assert_eq!(tx.chan.lock().wakes, PARKS);
            await_parked(&tx.chan, |st| st.recv_parked);
            drop(tx); // disconnect broadcast: wakes the park, not counted
            consumer.join().unwrap();
        }

        #[test]
        fn a_sender_parked_on_a_full_channel_is_woken_by_recv() {
            let (tx, rx) = bounded(1);
            tx.send(1).unwrap();
            let producer = {
                let tx = tx.clone();
                std::thread::spawn(move || tx.send(2))
            };
            await_parked(&tx.chan, |st| st.send_parked);
            assert_eq!(rx.try_recv(), Ok(1));
            producer.join().unwrap().unwrap();
            assert_eq!(rx.recv(), Ok(2));
            let st = tx.chan.lock();
            assert_eq!((st.wakes, st.send_parked, st.recv_parked), (1, 0, 0));
        }

        #[test]
        fn a_sender_parked_on_a_full_channel_sees_the_last_receiver_go() {
            let (tx, rx) = bounded(1);
            tx.send(1).unwrap();
            let producer = {
                let tx = tx.clone();
                std::thread::spawn(move || tx.send(2))
            };
            await_parked(&tx.chan, |st| st.send_parked);
            drop(rx);
            assert_eq!(producer.join().unwrap(), Err(SendError(2)));
        }

        /// Runs `body` on a thread of its own and fails the test if it
        /// has not returned by `deadline` — a lost wake-up is a hang,
        /// and a hang must fail rather than stall the suite.
        fn within(deadline: Duration, body: impl FnOnce() + Send + 'static) {
            let (done_tx, done_rx) = unbounded();
            let runner = std::thread::spawn(move || {
                body();
                let _ = done_tx.send(());
            });
            match done_rx.recv_timeout(deadline) {
                // A body that panicked drops `done_tx`: the join surfaces it.
                Ok(()) | Err(RecvTimeoutError::Disconnected) => runner.join().unwrap(),
                Err(RecvTimeoutError::Timeout) => panic!("no progress within {deadline:?}"),
            }
        }

        /// Races `block` (a blocking call on one endpoint) against the
        /// drop of the other endpoint, `ROUNDS` times, on two standing
        /// threads so the two land within the same few hundred
        /// nanoseconds; every blocked call must come back disconnected.
        fn race_drop_against<E, D, R>(
            split: fn(Sender<u8>, Receiver<u8>) -> (E, D),
            block: fn(E) -> R,
            disconnected: R,
        ) where
            E: Send + 'static,
            D: Send + 'static,
            R: Send + PartialEq + fmt::Debug + 'static,
        {
            const ROUNDS: usize = 100_000;
            within(Duration::from_secs(120), move || {
                let (block_tx, block_rx) = unbounded::<E>();
                let (drop_tx, drop_rx) = unbounded::<D>();
                let (out_tx, out_rx) = unbounded();
                let blocker = std::thread::spawn(move || {
                    while let Ok(end) = block_rx.recv() {
                        out_tx.send(block(end)).unwrap();
                    }
                });
                let dropper = std::thread::spawn(move || while drop_rx.recv().is_ok() {});
                for _ in 0..ROUNDS {
                    let (tx, rx) = bounded(1);
                    tx.send(0).unwrap(); // full: a second `send` blocks
                    let (blocked, dropped) = split(tx, rx);
                    block_tx.send(blocked).unwrap();
                    drop_tx.send(dropped).unwrap();
                    assert_eq!(out_rx.recv().unwrap(), disconnected);
                }
                drop((block_tx, drop_tx));
                blocker.join().unwrap();
                dropper.join().unwrap();
            });
        }

        #[test]
        fn last_sender_drop_never_strands_a_blocking_recv() {
            // Regression: the drop used to count down and broadcast
            // without the queue lock, so a `recv` between its
            // `senders != 0` check and its wait missed the only wake it
            // would ever get — a worker thread that never exits.
            race_drop_against(
                |tx, rx| (rx, tx),
                |rx| {
                    assert_eq!(rx.recv(), Ok(0));
                    rx.recv()
                },
                Err(RecvError),
            );
        }

        #[test]
        fn last_receiver_drop_never_strands_a_blocking_send() {
            race_drop_against(|tx, rx| (tx, rx), |tx| tx.send(1), Err(SendError(1)));
        }
    }
}
