//! The NIC's rings under concurrent wire and worker sides.
//!
//! Every rx queue gets an injector (the wire) and a bursting worker;
//! every tx queue a bursting worker and a draining wire — all at once,
//! on rings of 64 so that full-ring drops happen. Each side keeps its
//! own record of what the NIC accepted, and the books close per queue:
//! every accepted frame arrives exactly once and in the order it was
//! accepted, and the NIC's counters add up to what was offered. A lost
//! frame or a ring that wedges fails here; the watchdog turns a hang
//! into a failure.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::Duration;

use netkit_kernel::nic::{Nic, PortId};
use netkit_packet::batch::PacketBatch;
use netkit_packet::flow::FlowKey;
use netkit_packet::packet::{Packet, PacketBuilder};
use netkit_packet::pool::BufferPool;

const QUEUES: usize = 2;
const RING: usize = 64;
const BURST: usize = 32;
/// Frames each side offers per queue.
const FRAMES: u64 = 20_000;
/// Frames offered before the consuming side starts: a full ring and a
/// known number of drops however the threads are scheduled.
const PREFILL: u64 = RING as u64 + 36;
const DEADLINE: Duration = Duration::from_secs(120);

/// The sequence number a frame carries in its last eight bytes.
fn seq_of(frame: &[u8]) -> u64 {
    let tail: [u8; 8] = frame[frame.len() - 8..].try_into().expect("eight bytes");
    u64::from_be_bytes(tail)
}

/// The source port of a UDP flow the identity table puts on `queue`.
fn flow_on(queue: usize) -> u16 {
    (1u16..)
        .find(|&sport| {
            let probe = PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", sport, 80).build();
            FlowKey::from_packet(&probe).unwrap().shard_for(QUEUES) == queue
        })
        .expect("a flow for every queue")
}

/// Frame `seq` of the flow from `sport`.
fn rx_frame(sport: u16, seq: u64) -> Packet {
    PacketBuilder::udp_v4("10.0.0.1", "10.0.0.2", sport, 80)
        .payload(&seq.to_be_bytes())
        .build()
}

/// A 64-byte tx frame carrying `seq`.
fn tx_frame(seq: u64) -> Packet {
    let mut bytes = [0u8; 64];
    bytes[56..].copy_from_slice(&seq.to_be_bytes());
    Packet::from_slice(&bytes)
}

/// One rx queue: returns (seqs the NIC accepted, seqs the worker got).
fn rx_queue(nic: &Nic, queue: usize) -> (Vec<u64>, Vec<u64>) {
    let sport = flow_on(queue);
    let (go, done) = (AtomicBool::new(false), AtomicBool::new(false));
    std::thread::scope(|s| {
        let wire = s.spawn(|| {
            let mut accepted = Vec::new();
            for seq in 0..FRAMES {
                if seq == PREFILL {
                    go.store(true, Ordering::Release);
                }
                if nic.inject_rx_frame(rx_frame(sport, seq).data()) {
                    accepted.push(seq);
                }
            }
            done.store(true, Ordering::Release);
            accepted
        });
        let worker = s.spawn(|| {
            while !go.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            let mut got = Vec::new();
            loop {
                // Read `done` before the burst: an empty burst after the
                // wire finished means the queue is drained for good.
                let finished = done.load(Ordering::Acquire);
                let mut batch = PacketBatch::with_capacity(BURST);
                if nic.rx_burst_batch(queue, BURST, &mut batch) == 0 {
                    if finished {
                        return got;
                    }
                    std::thread::yield_now();
                }
                got.extend(batch.iter().map(|pkt| seq_of(pkt.data())));
            }
        });
        (
            wire.join().expect("rx wire"),
            worker.join().expect("rx worker"),
        )
    })
}

/// One tx queue: returns (seqs the NIC accepted, seqs the wire got).
fn tx_queue(nic: &Nic, queue: usize) -> (Vec<u64>, Vec<u64>) {
    let (go, done) = (AtomicBool::new(false), AtomicBool::new(false));
    std::thread::scope(|s| {
        let worker = s.spawn(|| {
            let mut accepted = Vec::new();
            let mut seq = 0;
            let mut burst_len = 1;
            while seq < FRAMES {
                if seq >= PREFILL {
                    go.store(true, Ordering::Release);
                }
                // Bursts of 1..=32, and a lone send now and then.
                burst_len = burst_len % BURST + 1;
                let end = (seq + burst_len as u64).min(FRAMES);
                if burst_len == 7 {
                    if nic.send_tx_packet(queue, tx_frame(seq)) {
                        accepted.push(seq);
                    }
                    seq += 1;
                    continue;
                }
                let batch: PacketBatch = (seq..end).map(tx_frame).collect();
                // Verdicts are first-k-accepted, then full.
                let k = nic.tx_burst_packets(queue, batch);
                accepted.extend(seq..seq + k as u64);
                seq = end;
            }
            go.store(true, Ordering::Release);
            done.store(true, Ordering::Release);
            accepted
        });
        let wire = s.spawn(|| {
            while !go.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            let mut got = Vec::new();
            loop {
                let finished = done.load(Ordering::Acquire);
                match nic.drain_tx_frame(queue) {
                    Some(frame) => got.push(seq_of(&frame)),
                    None if finished => return got,
                    None => std::thread::yield_now(),
                }
            }
        });
        (
            worker.join().expect("tx worker"),
            wire.join().expect("tx wire"),
        )
    })
}

fn stress() {
    let pool = BufferPool::new(2048, 0, 4 * RING);
    let rx = Nic::with_queues(PortId(0), QUEUES, RING, RING, 1_000_000_000).with_buffer_pool(pool);
    let tx = Nic::with_queues(PortId(1), QUEUES, RING, RING, 1_000_000_000);
    let (rx, tx) = (&rx, &tx);
    let (rx_books, tx_books) = std::thread::scope(|s| {
        let rx_sides: Vec<_> = (0..QUEUES)
            .map(|q| s.spawn(move || rx_queue(rx, q)))
            .collect();
        let tx_sides: Vec<_> = (0..QUEUES)
            .map(|q| s.spawn(move || tx_queue(tx, q)))
            .collect();
        let rx_books: Vec<_> = rx_sides
            .into_iter()
            .map(|h| h.join().expect("rx queue"))
            .collect();
        let tx_books: Vec<_> = tx_sides
            .into_iter()
            .map(|h| h.join().expect("tx queue"))
            .collect();
        (rx_books, tx_books)
    });
    // The prefill alone overflows a ring of 64 by at least this much.
    let least_dropped = PREFILL - RING as u64;

    let mut rx_accepted = 0;
    for (queue, (accepted, got)) in rx_books.iter().enumerate() {
        assert!(
            accepted.len() as u64 <= FRAMES - least_dropped,
            "rx queue {queue}: no drops"
        );
        assert_eq!(got, accepted, "rx queue {queue}: once each, in order");
        rx_accepted += accepted.len() as u64;
    }
    let s = rx.stats();
    assert_eq!(s.rx_frames, rx_accepted);
    assert_eq!(s.rx_frames + s.rx_dropped, FRAMES * QUEUES as u64);

    let mut tx_accepted = 0;
    for (queue, (accepted, got)) in tx_books.iter().enumerate() {
        assert!(
            accepted.len() as u64 <= FRAMES - least_dropped,
            "tx queue {queue}: no drops"
        );
        assert_eq!(got, accepted, "tx queue {queue}: once each, in order");
        tx_accepted += accepted.len() as u64;
    }
    let s = tx.stats();
    assert_eq!(s.tx_frames, tx_accepted);
    assert_eq!(s.tx_frames + s.tx_dropped, FRAMES * QUEUES as u64);
    assert_eq!(s.tx_bytes, 64 * tx_accepted);
}

#[test]
fn every_accepted_frame_arrives_once_and_in_order() {
    let (done_tx, done_rx) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        stress();
        let _ = done_tx.send(());
    });
    match done_rx.recv_timeout(DEADLINE) {
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("NIC rings wedged: no progress within {DEADLINE:?}")
        }
        // Finished, or panicked (which drops `done_tx`): the join tells.
        _ => runner.join().expect("stress thread"),
    }
}
