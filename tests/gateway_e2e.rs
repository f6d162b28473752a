//! Gateway end-to-end: simulated receptors stream checksummed frames over
//! real TCP sockets into the sharded gateway, and the union of the shard
//! outputs must equal a single-process `EspProcessor` run over the same
//! readings — the determinism contract that makes the gateway a drop-in
//! scale-out of the paper's pipeline.

use esp_core::{Pipeline, SmoothStage};
use esp_gateway::{Gateway, GatewayClient, GatewayConfig};
use esp_integration_tests::gateway_harness::{
    groups, rendered, run_gateway_clients, single_process_trace,
};
use esp_receptors::wire::{self, Reading};
use esp_types::{ReceptorId, TimeDelta, Ts};

#[test]
fn sharded_gateway_output_matches_single_process_run() {
    let receptors = [0u32, 1, 2];
    let start = Ts::ZERO;
    let period = TimeDelta::from_millis(500);
    let lateness = TimeDelta::from_millis(100);

    let mut config = GatewayConfig::new(groups());
    config.n_shards = 4;
    config.period = period;
    config.start = start;
    config.min_connections = receptors.len();

    let gateway = Gateway::spawn(config, |_| Pipeline::raw()).unwrap();
    run_gateway_clients(&gateway, &receptors, lateness);
    let output = gateway.finish().unwrap();

    assert_eq!(output.stats.connections, 3);
    assert_eq!(output.stats.readings, 60);
    assert_eq!(output.stats.corrupt_frames, 0);
    assert_eq!(output.stats.unroutable, 0);

    let merged = output.merged_trace();
    // Epochs: 0, 500, …, first boundary covering max ts (1900 ms) ⇒ 5.
    let expected = single_process_trace(&Pipeline::raw(), &receptors, start, period, 5);
    assert_eq!(rendered(&merged), rendered(&expected));
    assert_eq!(merged.iter().map(|(_, b)| b.len()).sum::<usize>(), 60);
}

#[test]
fn stateful_pipeline_shards_deterministically() {
    // Smooth over a 5 s count window keyed by (granule, tag): window state
    // lives on whichever shard owns the granule, so the sharded result
    // must still equal the single-process result.
    let pipeline_factory = || {
        Pipeline::builder()
            .per_receptor("smooth", |_| {
                Ok(Box::new(SmoothStage::count_by_key(
                    "smooth",
                    TimeDelta::from_secs(5),
                    ["spatial_granule", "tag_id"],
                )))
            })
            .build()
    };
    let receptors = [0u32, 1];
    let period = TimeDelta::from_millis(500);

    let mut config = GatewayConfig::new(groups());
    config.n_shards = 2;
    config.period = period;
    config.min_connections = receptors.len();

    let gateway = Gateway::spawn(config, |_| pipeline_factory()).unwrap();
    run_gateway_clients(&gateway, &receptors, TimeDelta::from_millis(100));
    let output = gateway.finish().unwrap();

    let merged = output.merged_trace();
    let expected = single_process_trace(&pipeline_factory(), &receptors, Ts::ZERO, period, 5);
    assert_eq!(rendered(&merged), rendered(&expected));
    assert!(
        merged.iter().map(|(_, b)| b.len()).sum::<usize>() > 0,
        "smooth produced output"
    );
}

#[test]
fn corrupt_frames_are_counted_and_dropped_at_the_edge() {
    let mut config = GatewayConfig::new(groups());
    config.n_shards = 2;
    config.min_connections = 1;
    let gateway = Gateway::spawn(config, |_| Pipeline::raw()).unwrap();

    let mut client = GatewayClient::connect(gateway.local_addr(), TimeDelta::ZERO).unwrap();
    let mut sent_good = 0u64;
    for i in 0..30u64 {
        let reading = Reading::Tag {
            receptor: ReceptorId(0),
            ts: Ts::from_millis(i * 10),
            tag_id: format!("t{i}"),
        };
        if i % 3 == 0 {
            // Damage the frame in flight; the framing layer delivers it,
            // the checksum rejects it.
            let mut bad = wire::encode(&reading).to_vec();
            let mid = bad.len() / 2;
            bad[mid] ^= 0xff;
            client.send_raw(&bad).unwrap();
        } else {
            client.send(&reading).unwrap();
            sent_good += 1;
        }
    }
    client.finish().unwrap();
    let output = gateway.finish().unwrap();

    assert_eq!(output.stats.frames, 30);
    assert_eq!(output.stats.corrupt_frames, 10);
    assert_eq!(output.stats.readings, sent_good);
    assert_eq!(output.total_tuples() as u64, sent_good);
}

#[test]
fn tiny_shard_queues_backpressure_without_losing_data() {
    let mut config = GatewayConfig::new(groups());
    config.n_shards = 2;
    config.edge_capacity = 1;
    config.min_connections = 1;
    let gateway = Gateway::spawn(config, |_| Pipeline::raw()).unwrap();

    let mut client = GatewayClient::connect(gateway.local_addr(), TimeDelta::ZERO).unwrap();
    let n = 500u64;
    for i in 0..n {
        client
            .send(&Reading::Scalar {
                receptor: ReceptorId(2),
                ts: Ts::from_millis(i),
                value: i as f64,
            })
            .unwrap();
    }
    client.finish().unwrap();
    let output = gateway.finish().unwrap();

    assert_eq!(output.stats.readings, n);
    assert_eq!(output.total_tuples() as u64, n);
    // Every routed reading went through the counted send path.
    assert_eq!(output.stats.queue_sends, n);
}

#[test]
fn unroutable_receptors_are_counted_not_fatal() {
    let mut config = GatewayConfig::new(groups());
    config.n_shards = 2;
    let gateway = Gateway::spawn(config, |_| Pipeline::raw()).unwrap();

    let mut client = GatewayClient::connect(gateway.local_addr(), TimeDelta::ZERO).unwrap();
    client
        .send(&Reading::Scalar {
            receptor: ReceptorId(99),
            ts: Ts::from_millis(5),
            value: 1.0,
        })
        .unwrap();
    client
        .send(&Reading::Scalar {
            receptor: ReceptorId(2),
            ts: Ts::from_millis(10),
            value: 2.0,
        })
        .unwrap();
    client.finish().unwrap();
    let output = gateway.finish().unwrap();

    assert_eq!(output.stats.unroutable, 1);
    assert_eq!(output.stats.readings, 1);
    assert_eq!(output.total_tuples(), 1);
}

#[test]
fn silent_client_cannot_hang_finish() {
    // A peer that connects but never sends its hello must not pin a
    // reader thread forever: the handshake times out, the connection is
    // counted as an I/O error, and `finish` returns.
    let mut config = GatewayConfig::new(groups());
    config.n_shards = 2;
    let gateway = Gateway::spawn(config, |_| Pipeline::raw()).unwrap();

    let silent = std::net::TcpStream::connect(gateway.local_addr()).unwrap();
    // Connections are accepted in arrival order, so once this client's
    // handshake is acked the silent one has been accepted too.
    let mut client = GatewayClient::connect(gateway.local_addr(), TimeDelta::ZERO).unwrap();
    client
        .send(&Reading::Scalar {
            receptor: ReceptorId(2),
            ts: Ts::from_millis(10),
            value: 1.0,
        })
        .unwrap();
    client.finish().unwrap();

    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(gateway.finish());
    });
    let output = rx
        .recv_timeout(std::time::Duration::from_secs(30))
        .expect("finish must not wait on a client that never said hello")
        .unwrap();
    drop(silent);

    assert_eq!(output.stats.connections, 1);
    assert_eq!(output.stats.io_errors, 1);
    assert_eq!(output.stats.readings, 1);
    assert_eq!(output.total_tuples(), 1);
}
