//! A served shard runs exactly one background thread: its loop forces
//! group commits, drives checkpoints and compacts the log. Counting
//! threads needs a process of its own, so this file holds one test.

#![cfg(target_os = "linux")]
#![allow(clippy::unwrap_used)]

use mmdb_core::{Algorithm, CommitDurability, MmdbConfig};
use mmdb_server::{Server, ServerConfig};
use mmdb_shard::ShardedMmdb;
use mmdb_types::RecordId;
use mmdb_wire::Client;
use std::time::{Duration, Instant};

/// The name of every live thread of this process (as the kernel keeps
/// it: at most 15 bytes).
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim_end().to_owned())
        .collect()
}

#[test]
fn a_group_commit_server_runs_one_background_loop_per_shard() {
    let mut config = MmdbConfig::small(Algorithm::FuzzyCopy);
    config.commit_durability = CommitDurability::Group;
    let db = ShardedMmdb::open_in_memory(config, 2).unwrap();
    let handle = Server::spawn_sharded(
        db,
        ServerConfig {
            checkpoint_interval: Some(Duration::from_millis(5)),
            compact_interval: Some(Duration::from_millis(5)),
            ..ServerConfig::default()
        },
    )
    .unwrap();

    // A spawned thread carries its spawner's name until it sets its own.
    let mine: String = std::thread::current()
        .name()
        .unwrap()
        .chars()
        .take(15)
        .collect();
    let deadline = Instant::now() + Duration::from_secs(5);
    let names = loop {
        let names = thread_names();
        if names.iter().filter(|n| **n == mine).count() == 1 {
            break names;
        }
        assert!(Instant::now() < deadline, "threads never named: {names:?}");
        std::thread::sleep(Duration::from_millis(1));
    };
    let loops = names.iter().filter(|n| n.starts_with("mmdb-shard-"));
    assert_eq!(loops.count(), 2, "one loop per shard: {names:?}");
    for gone in ["mmdb-flush-", "mmdb-checkpoint", "mmdb-compactor"] {
        assert!(
            !names.iter().any(|n| n.starts_with(gone)),
            "no {gone}* thread: {names:?}"
        );
    }

    // All three duties run on those two threads.
    let mut client = Client::connect(handle.local_addr()).unwrap();
    let words = MmdbConfig::small(Algorithm::FuzzyCopy).params.db.s_rec as usize;
    for rid in 0..8u64 {
        client.put(RecordId(rid), &vec![rid as u32; words]).unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.checkpoints_completed() < 2 || handle.compaction_passes() < 2 {
        assert!(Instant::now() < deadline, "maintenance never ran");
        std::thread::sleep(Duration::from_millis(1));
    }
    drop(client);

    let engines = handle.shutdown_join().into_engines();
    assert_eq!(engines.len(), 2);
    // A joined thread can linger in /proc for a moment while the kernel
    // reaps it.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let names = thread_names();
        if !names.iter().any(|n| n.starts_with("mmdb-")) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "threads outlived shutdown: {names:?}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}
