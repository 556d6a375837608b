//! Tests of the reliable-over-lossy transport (CVM's UDP layer).

use std::time::Duration;

use cvm_net::reliable::{LossConfig, ReliabilityStats};
use cvm_net::{ByteBreakdown, CorruptKind, FaultPlan, NetConfig, NetError, Network, TrafficClass};
use cvm_vclock::ProcId;

fn payload(i: u32) -> Vec<u8> {
    i.to_le_bytes().to_vec()
}

fn send_n(eps: &[cvm_net::Endpoint], from: usize, to: usize, n: u32) {
    let tx = eps[from].sender();
    for i in 0..n {
        tx.send(
            ProcId::from_index(to),
            u64::from(i),
            ByteBreakdown::single(TrafficClass::Data, 4),
            payload(i),
        )
        .unwrap();
    }
}

fn recv_all(eps: &[cvm_net::Endpoint], at: usize, n: u32) -> Vec<u32> {
    (0..n)
        .map(|_| {
            let pkt = eps[at].recv().expect("delivery");
            u32::from_le_bytes(pkt.payload[..4].try_into().unwrap())
        })
        .collect()
}

#[test]
fn zero_loss_behaves_like_direct() {
    let (eps, _, rstats) = Network::with_loss(2, NetConfig::default(), LossConfig::new(0.0, 1));
    send_n(&eps, 0, 1, 50);
    assert_eq!(recv_all(&eps, 1, 50), (0..50).collect::<Vec<_>>());
    let (drops, retx, dups) = rstats.snapshot();
    assert_eq!((drops, retx, dups), (0, 0, 0));
}

#[test]
fn heavy_loss_still_delivers_everything_in_order() {
    for seed in [1u64, 2, 3] {
        let (eps, _, rstats) =
            Network::with_loss(3, NetConfig::default(), LossConfig::new(0.4, seed));
        send_n(&eps, 0, 2, 200);
        send_n(&eps, 1, 2, 200);
        // Per-flow FIFO must survive 40% wire loss.
        let mut got0 = Vec::new();
        let mut got1 = Vec::new();
        for _ in 0..400 {
            let pkt = eps[2].recv().expect("delivery under loss");
            let v = u32::from_le_bytes(pkt.payload[..4].try_into().unwrap());
            if pkt.src == ProcId(0) {
                got0.push(v);
            } else {
                got1.push(v);
            }
        }
        assert_eq!(got0, (0..200).collect::<Vec<_>>(), "seed {seed}");
        assert_eq!(got1, (0..200).collect::<Vec<_>>(), "seed {seed}");
        let (drops, retx, _) = rstats.snapshot();
        assert!(drops > 0, "the wire must actually drop");
        assert!(retx > 0, "drops must be repaired by retransmission");
    }
}

#[test]
fn duplicates_are_suppressed() {
    // With ACK loss, data gets retransmitted after delivery: the receiver
    // must not see it twice.
    let (eps, _, rstats) = Network::with_loss(2, NetConfig::default(), LossConfig::new(0.3, 99));
    send_n(&eps, 0, 1, 100);
    assert_eq!(recv_all(&eps, 1, 100), (0..100).collect::<Vec<_>>());
    // Nothing further arrives even after retransmission windows pass.
    std::thread::sleep(std::time::Duration::from_millis(20));
    assert!(eps[1].try_recv().is_err(), "duplicate leaked to the app");
    let (_, _, dups) = rstats.snapshot();
    // (dups counts suppressed copies; with 30% ACK loss there are some.)
    let _ = dups;
}

#[test]
fn bidirectional_flows_are_independent() {
    let (eps, _, _) = Network::with_loss(2, NetConfig::default(), LossConfig::new(0.2, 7));
    send_n(&eps, 0, 1, 64);
    send_n(&eps, 1, 0, 64);
    assert_eq!(recv_all(&eps, 1, 64), (0..64).collect::<Vec<_>>());
    assert_eq!(recv_all(&eps, 0, 64), (0..64).collect::<Vec<_>>());
}

#[test]
fn loss_pattern_is_reproducible_per_seed() {
    let run = |seed| {
        let (eps, _, rstats) =
            Network::with_loss(2, NetConfig::default(), LossConfig::new(0.25, seed));
        send_n(&eps, 0, 1, 100);
        let _ = recv_all(&eps, 1, 100);
        // Wait for any trailing retransmissions/acks to settle so the drop
        // count is stable.
        std::thread::sleep(std::time::Duration::from_millis(20));
        rstats.snapshot().0
    };
    // The wire-drop sequence for the initial transmissions is seed-driven;
    // retransmission timing adds wall-clock noise, so compare only that
    // drops occur and differ across seeds (coarse determinism check).
    let a = run(5);
    let b = run(6);
    assert!(a > 0 && b > 0);
}

#[test]
fn same_plan_and_seed_reproduce_identical_stats() {
    // Every fault decision is keyed by datagram identity (destination,
    // sequence, attempt), never call order or wall clock, so two runs of
    // the same (plan, seed) must produce byte-identical statistics.  The
    // plan avoids the retransmission path (no drops, one-second RTO):
    // timer-driven resends fire on wall-clock boundaries, which makes
    // their *counts* scheduling-dependent even though each decision stays
    // keyed — the deterministic contract is the injection stream.
    let run = |seed: u64| {
        let plan = FaultPlan::clean(seed)
            .with_duplication(0.2)
            .with_rto(Duration::from_secs(1), Duration::from_secs(2));
        let (eps, _, rstats) = Network::with_loss(2, NetConfig::default(), plan);
        send_n(&eps, 0, 1, 150);
        assert_eq!(recv_all(&eps, 1, 150), (0..150).collect::<Vec<_>>());
        // Let trailing ACKs (and their injected duplicates) settle.
        std::thread::sleep(Duration::from_millis(20));
        rstats.full()
    };
    let first = run(0xFEED);
    let second = run(0xFEED);
    assert_eq!(first, second, "fault sequence must be seed-deterministic");
    assert!(first.dup_injected > 0, "the plan must actually duplicate");
    assert!(first.duplicates > 0, "duplicates must reach the suppressor");
    assert_eq!(first.wire_drops, 0);
    assert_eq!(first.retransmissions, 0);
    let other = run(0xBEEF);
    assert_ne!(first, other, "different seeds must differ");
}

#[test]
fn corruption_is_repaired_by_retransmission() {
    // A quarter of all frames are mutated on the wire; the receiver's
    // checksum rejects every one of them and the retransmit path fills the
    // gaps, so delivery stays complete, in order, and duplicate-free.
    for seed in [21u64, 22, 23] {
        let plan = FaultPlan::clean(seed).with_corruption(0.25);
        let (eps, _, rstats) = Network::with_loss(2, NetConfig::default(), plan);
        send_n(&eps, 0, 1, 150);
        assert_eq!(
            recv_all(&eps, 1, 150),
            (0..150).collect::<Vec<_>>(),
            "seed {seed}"
        );
        std::thread::sleep(Duration::from_millis(20));
        let snap = rstats.full();
        assert!(snap.corrupt_injected > 0, "seed {seed}: wire must corrupt");
        assert!(
            snap.corrupt_dropped > 0,
            "seed {seed}: checksum must reject"
        );
        assert_eq!(
            snap.decode_errors, 0,
            "seed {seed}: damage leaked past the frame gate"
        );
        assert!(
            snap.retransmissions > 0,
            "seed {seed}: corruption losses must be repaired"
        );
    }
}

#[test]
fn scripted_corruption_strikes_exact_frames() {
    // Only node 0's first two frames are mutated (one truncation, one
    // garbage tail); a 1-second RTO keeps retransmissions out of the
    // window, so the injected count is exactly the scripted two and both
    // are dropped at the receiver.
    let plan = FaultPlan::clean(5)
        .with_rto(Duration::from_secs(1), Duration::from_secs(2))
        .with_corrupt_at(ProcId(0), 1, CorruptKind::Truncate)
        .with_corrupt_at(ProcId(0), 2, CorruptKind::GarbageTail);
    let (eps, _, rstats) = Network::with_loss(2, NetConfig::default(), plan);
    send_n(&eps, 0, 1, 2);
    // Nothing can arrive until the corrupted originals are retransmitted.
    std::thread::sleep(Duration::from_millis(50));
    let snap = rstats.full();
    assert_eq!(snap.corrupt_injected, 2, "{snap:?}");
    assert_eq!(snap.corrupt_dropped, 2, "{snap:?}");
    assert!(
        eps[1].try_recv().is_err(),
        "corrupted frames must not deliver"
    );
}

#[test]
fn killed_node_is_declared_dead_by_its_peers() {
    // Node 1's engine dies after a handful of events; node 0's
    // retransmissions exhaust and it learns P1 is dead instead of
    // retrying forever.
    let plan = FaultPlan::clean(7)
        .with_rto(Duration::from_millis(1), Duration::from_millis(4))
        .with_max_retransmits(6)
        .with_kill(ProcId(1), 3);
    let (eps, _, rstats) = Network::with_loss(2, NetConfig::default(), plan);
    send_n(&eps, 0, 1, 20);
    match eps[0].recv() {
        Err(NetError::PeerDead { peer }) => assert_eq!(peer, ProcId(1)),
        other => panic!("expected peer-dead notification, got {other:?}"),
    }
    assert!(rstats.full().peers_declared_dead >= 1);
    // The killed node's endpoint drains whatever arrived before the kill,
    // then reports its engine gone.
    loop {
        match eps[1].recv() {
            Ok(_) => continue,
            Err(NetError::Disconnected) => break,
            other => panic!("expected disconnect at the killed node, got {other:?}"),
        }
    }
}

#[test]
fn partitioned_node_stops_exchanging_datagrams() {
    // Node 1 partitions immediately: everything it sends or receives is
    // dropped on the floor, and node 0 eventually gives up on it.
    let plan = FaultPlan::clean(11)
        .with_rto(Duration::from_millis(1), Duration::from_millis(4))
        .with_max_retransmits(6)
        .with_partition(ProcId(1), 0);
    let (eps, _, rstats) = Network::with_loss(2, NetConfig::default(), plan);
    send_n(&eps, 0, 1, 10);
    match eps[0].recv() {
        Err(NetError::PeerDead { peer }) => assert_eq!(peer, ProcId(1)),
        other => panic!("expected peer-dead notification, got {other:?}"),
    }
    let snap = rstats.full();
    assert!(snap.partition_drops > 0, "partition must eat datagrams");
    assert!(eps[1].try_recv().is_err(), "nothing crosses the partition");
}

#[test]
fn transient_partition_heals_and_flow_resumes() {
    // Node 1 is cut off for a window of its own wire-datagram stream and
    // then healed.  Retransmissions bridge the outage: every datagram
    // still arrives, in order, without node 1 ever being declared dead.
    let plan = FaultPlan::clean(13)
        .with_rto(Duration::from_millis(1), Duration::from_millis(4))
        .with_max_retransmits(40)
        .with_partition_healed(ProcId(1), 3, 20);
    let (eps, _, rstats) = Network::with_loss(2, NetConfig::default(), plan);
    send_n(&eps, 0, 1, 30);
    assert_eq!(recv_all(&eps, 1, 30), (0..30).collect::<Vec<_>>());
    let snap = rstats.full();
    assert!(snap.partition_drops > 0, "the window must eat datagrams");
    assert_eq!(snap.partitions_healed, 1, "the heal must be observed once");
    assert_eq!(snap.peers_declared_dead, 0, "a healed node is not dead");
}

#[test]
fn multiple_partition_windows_on_one_node_all_apply() {
    // Two disjoint outage windows scripted against the same node: both
    // must arm (the plan is not first-match-wins) and both must heal.
    let plan = FaultPlan::clean(17)
        .with_rto(Duration::from_millis(1), Duration::from_millis(4))
        .with_max_retransmits(60)
        .with_partition_healed(ProcId(1), 3, 12)
        .with_partition_healed(ProcId(1), 25, 40);
    let (eps, _, rstats) = Network::with_loss(2, NetConfig::default(), plan);
    send_n(&eps, 0, 1, 40);
    assert_eq!(recv_all(&eps, 1, 40), (0..40).collect::<Vec<_>>());
    let snap = rstats.full();
    assert_eq!(snap.partitions_healed, 2, "both windows must open and heal");
    assert!(snap.partition_drops > 0);
}

#[test]
fn heal_accounting_is_deterministic_per_plan_and_seed() {
    // Window membership is a pure function of the node-local wire-datagram
    // ordinal, so two runs of the same (plan, seed) agree exactly on how
    // many windows healed — even though retransmission *timing* is
    // wall-clock noise.
    let run = |seed: u64| {
        let plan = FaultPlan::clean(seed)
            .with_rto(Duration::from_millis(1), Duration::from_millis(4))
            .with_max_retransmits(40)
            .with_partition_healed(ProcId(1), 5, 18);
        let (eps, _, rstats) = Network::with_loss(2, NetConfig::default(), plan);
        send_n(&eps, 0, 1, 30);
        assert_eq!(recv_all(&eps, 1, 30), (0..30).collect::<Vec<_>>());
        rstats.full().partitions_healed
    };
    assert_eq!(run(0xACE), run(0xACE));
    assert_eq!(run(0xACE), 1);
}

#[test]
fn capacity_one_link_delivers_in_order_with_bounded_queue() {
    // The tightest possible credit window: one unacked datagram per flow.
    // 100 sends must still arrive complete and in order, with the in-flight
    // depth never exceeding the capacity.
    let plan = FaultPlan::clean(5).with_link_capacity(1);
    let (eps, _, rstats) = Network::with_loss(2, NetConfig::default(), plan);
    send_n(&eps, 0, 1, 100);
    assert_eq!(recv_all(&eps, 1, 100), (0..100).collect::<Vec<_>>());
    use std::sync::atomic::Ordering;
    assert!(
        rstats.queue_high_water.load(Ordering::Relaxed) <= 1,
        "window bound violated"
    );
    assert!(
        rstats.credit_stalls.load(Ordering::Relaxed) > 0,
        "100 sends through a 1-deep window must stall"
    );
    assert_eq!(
        rstats.credit_stalled_now.load(Ordering::Relaxed),
        0,
        "all stalls drained by completion"
    );
}

#[test]
fn slow_consumer_cannot_exhaust_sender_queues() {
    // Node 1 dwells 2 ms per arrival from its very first datagram; the
    // sender's credit window (capacity 2) closes against it instead of
    // buffering without bound, and everything still arrives in order.
    let plan = FaultPlan::clean(9)
        .with_link_capacity(2)
        .with_slow_consumer(ProcId(1), 0, Duration::from_millis(2));
    let (eps, _, rstats) = Network::with_loss(2, NetConfig::default(), plan);
    send_n(&eps, 0, 1, 30);
    assert_eq!(recv_all(&eps, 1, 30), (0..30).collect::<Vec<_>>());
    use std::sync::atomic::Ordering;
    assert!(
        rstats.queue_high_water.load(Ordering::Relaxed) <= 2,
        "a slow consumer must not deepen the in-flight window"
    );
    assert!(
        rstats.credit_stalls.load(Ordering::Relaxed) > 0,
        "the dwell must close the window at least once"
    );
}

#[test]
fn credit_window_is_invisible_to_loss_repair() {
    // Capacity composes with a lossy wire: drops are still repaired by
    // retransmission (which bypasses the window — those bytes are already
    // accounted in flight) and per-flow FIFO holds.
    for capacity in [1u32, 3] {
        let plan = FaultPlan::new(0.3, 21).with_link_capacity(capacity);
        let (eps, _, rstats) = Network::with_loss(2, NetConfig::default(), plan);
        send_n(&eps, 0, 1, 80);
        assert_eq!(
            recv_all(&eps, 1, 80),
            (0..80).collect::<Vec<_>>(),
            "capacity {capacity}"
        );
        let (drops, retx, _) = rstats.snapshot();
        assert!(drops > 0, "the wire must actually drop");
        assert!(retx > 0, "drops must be repaired under a finite window");
        use std::sync::atomic::Ordering;
        assert!(rstats.queue_high_water.load(Ordering::Relaxed) <= u64::from(capacity));
    }
}

#[test]
fn sender_clone_outliving_its_endpoint_keeps_delivering() {
    // The engine is told its senders are gone only when the node's *last*
    // sender clone drops.  Node 0's endpoint drops first here; a `with_src`
    // clone taken from it must still reach node 1, complete and in order.
    let (mut eps, _, _) = Network::with_loss(2, NetConfig::default(), FaultPlan::clean(3));
    let ep1 = eps.pop().expect("node 1");
    let ep0 = eps.pop().expect("node 0");
    let tx = ep0.sender().with_src(ProcId(0));
    // An engine told too early would see the note ahead of every send
    // below, find itself drained, and exit.
    drop(ep0);
    for i in 0..50 {
        tx.send(
            ProcId(1),
            u64::from(i),
            ByteBreakdown::single(TrafficClass::Data, 4),
            payload(i),
        )
        .expect("node 0's engine must outlive its endpoint");
    }
    for i in 0..50u32 {
        let pkt = ep1
            .recv_timeout(Duration::from_secs(5))
            .expect("delivery from the surviving clone");
        assert_eq!(pkt.payload, payload(i));
    }
}

#[test]
fn engine_exits_once_last_sender_drops_and_flow_drains() {
    // With node 0's endpoint and every sender clone gone and its flow
    // drained, node 0's engine exits and closes its inbox, so node 1's
    // frames to it start counting as `peer_closed`.
    let plan = FaultPlan::clean(4).with_rto(Duration::from_millis(1), Duration::from_millis(4));
    let (mut eps, _, rstats) = Network::with_loss(2, NetConfig::default(), plan);
    let clone = eps[0].sender().with_src(ProcId(0));
    send_n(&eps, 0, 1, 10);
    assert_eq!(recv_all(&eps, 1, 10), (0..10).collect::<Vec<_>>());
    let ep1 = eps.pop().expect("node 1");
    drop(eps);
    drop(clone);
    probe_until_node0_exits(&ep1, &rstats);
}

/// Sends from `prober` to node 0 until a frame finds node 0's engine
/// gone (`peer_closed` rises); fails if that takes over five seconds.
fn probe_until_node0_exits(prober: &cvm_net::Endpoint, rstats: &ReliabilityStats) {
    let tx = prober.sender();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    for i in 0.. {
        if rstats.full().peer_closed > 0 {
            return;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "node 0's engine still running after its last sender dropped"
        );
        let bytes = ByteBreakdown::single(TrafficClass::Data, 4);
        tx.send(ProcId(0), 0, bytes, payload(i))
            .expect("the prober's own engine is up");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn engine_exits_after_sending_to_an_already_dead_peer() {
    // Node 1 is partitioned from the start, so node 0 declares it dead.
    // Data node 0 sends to it *afterwards* must be abandoned too once its
    // retransmit budget runs out; otherwise node 0's flow never drains
    // and its engine outlives its last sender.  The exit is observed as
    // node 2's frames to node 0 counting as `peer_closed`.
    // A budget of 30 retransmits keeps node 2 from giving up on a busy
    // node 0 while it probes.
    let plan = FaultPlan::clean(19)
        .with_rto(Duration::from_millis(1), Duration::from_millis(4))
        .with_max_retransmits(30)
        .with_partition(ProcId(1), 0);
    let (mut eps, _, rstats) = Network::with_loss(3, NetConfig::default(), plan);
    send_n(&eps, 0, 1, 5);
    match eps[0].recv() {
        Err(NetError::PeerDead { peer }) => assert_eq!(peer, ProcId(1)),
        other => panic!("expected peer-dead notification, got {other:?}"),
    }
    send_n(&eps, 0, 1, 5);
    let ep2 = eps.pop().expect("node 2");
    // Node 1 stays up (partitioned, not closed) so nothing it is sent
    // counts as `peer_closed`.
    let _ep1 = eps.pop().expect("node 1");
    drop(eps);
    probe_until_node0_exits(&ep2, &rstats);
}
