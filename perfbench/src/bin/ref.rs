//! `perfbench-ref`: the reference task the gated latencies are divided by.
//!
//! ```text
//! perfbench-ref <log>
//! ```
//!
//! Reads a Zeek `ssl.log` and runs it through the same shape of pipeline
//! `analyze` uses: one reader thread splits rows into fields and hands
//! them in batches over bounded channels to one shard worker per core,
//! chosen by the hash of the chain field; each worker counts chains and
//! interns connection uids in hash maps as large as the log's connection
//! count; the distinct chains are sorted at the end. It is written against
//! `std` alone so that no change to the certchain crates changes it.
//! `run.py` times it beside the program's own commands; on a shared host
//! both slow down together (thread hand-offs and cache misses alike), so
//! their ratio follows the program and not the neighbours. Prints
//! `<distinct chains> <distinct uids> <field bytes>`, which a given log
//! always gives the same.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::process::ExitCode;
use std::sync::mpsc::sync_channel;

/// Rows per hand-off and batches in flight per worker, as in `analyze`.
const CHUNK: usize = 8192;
const CHANNEL_DEPTH: usize = 4;
/// Data-row field indices in an `ssl.log`.
const UID: usize = 1;
const CHAIN: usize = 9;

type Row<'a> = Vec<&'a [u8]>;

/// One shard: distinct chains in first-seen order, their counts, distinct
/// uids and the field bytes it was handed.
fn shard<'a>(rx: std::sync::mpsc::Receiver<Vec<Row<'a>>>) -> (Vec<(&'a [u8], u64)>, usize, u64) {
    let mut chain_ids: HashMap<&[u8], usize> = HashMap::new();
    let mut chains: Vec<(&[u8], u64)> = Vec::new();
    let mut uids: HashMap<&[u8], u32> = HashMap::new();
    let mut bytes = 0u64;
    while let Ok(batch) = rx.recv() {
        for row in batch {
            bytes += row.iter().map(|f| f.len() as u64).sum::<u64>();
            let chain = row.get(CHAIN).copied().unwrap_or_default();
            let id = *chain_ids.entry(chain).or_insert_with(|| {
                chains.push((chain, 0));
                chains.len() - 1
            });
            chains[id].1 += 1;
            *uids.entry(row.get(UID).copied().unwrap_or_default()).or_insert(0) += 1;
        }
    }
    (chains, uids.len(), bytes)
}

fn run(data: &[u8]) -> (usize, usize, u64) {
    let shards = std::thread::available_parallelism().map_or(1, |n| n.get());
    let parts = std::thread::scope(|scope| {
        let mut senders = Vec::with_capacity(shards);
        let mut handles = Vec::with_capacity(shards);
        for _ in 0..shards {
            let (tx, rx) = sync_channel::<Vec<Row<'_>>>(CHANNEL_DEPTH);
            senders.push(tx);
            handles.push(scope.spawn(move || shard(rx)));
        }
        let mut batches: Vec<Vec<Row<'_>>> = (0..shards).map(|_| Vec::new()).collect();
        let rows = data.split(|&b| b == b'\n').filter(|l| !l.is_empty() && l[0] != b'#');
        for (n, line) in rows.enumerate() {
            let row: Row<'_> = line.split(|&b| b == b'\t').collect();
            let mut h = DefaultHasher::new();
            row.get(CHAIN).copied().unwrap_or_default().hash(&mut h);
            batches[(h.finish() % shards as u64) as usize].push(row);
            if (n + 1) % CHUNK == 0 {
                for (tx, batch) in senders.iter().zip(batches.iter_mut()) {
                    // A worker only hangs up by panicking, which the join
                    // below reports.
                    let _ = tx.send(std::mem::take(batch));
                }
            }
        }
        for (tx, batch) in senders.iter().zip(batches) {
            let _ = tx.send(batch);
        }
        drop(senders);
        handles
            .into_iter()
            .map(|h| h.join().expect("perfbench-ref: a shard worker panicked"))
            .collect::<Vec<_>>()
    });
    let mut chains: Vec<(&[u8], u64)> = Vec::new();
    let (mut uids, mut bytes) = (0, 0);
    for (c, u, b) in parts {
        chains.extend(c);
        uids += u;
        bytes += b;
    }
    chains.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    (chains.len(), uids, bytes)
}

fn main() -> ExitCode {
    let Some(path) = std::env::args().nth(1) else {
        eprintln!("usage: perfbench-ref <log>");
        return ExitCode::FAILURE;
    };
    match std::fs::read(&path) {
        Ok(data) => {
            let (chains, uids, bytes) = run(&data);
            println!("{chains} {uids} {bytes}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench-ref: {path}: {e}");
            ExitCode::FAILURE
        }
    }
}
