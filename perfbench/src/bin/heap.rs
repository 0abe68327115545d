//! `perfbench-heap`: the heap held by a fully folded `PipelineState`.
//!
//! A binary of its own because it needs a counting global allocator: kept
//! out of `perfbench-traced`, the timed spans there run on the plain
//! `System` allocator the real `certchain` binary uses.
//!
//! ```text
//! perfbench-heap --data <dataset>
//! ```
//!
//! Folds `<dataset>/x509.log`, then `<dataset>/ssl.log`, into one state
//! and prints one JSON document with `chainlab.state_live_mib`: the live
//! heap bytes released when that state is dropped, in MiB.

use certchain_chainlab::{CrossSignRegistry, Pipeline, PipelineState};
use certchain_cli::dataset::{load_crosssign, load_ct_index, load_trust};
use certchain_netsim::{SslLogStream, X509LogStream};
use certchain_obs::json::JsonValue;
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Live heap bytes.
struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method delegates to the `System` allocator unchanged and
// only maintains an atomic side counter, so `GlobalAlloc`'s contract is
// inherited from `System` wholesale.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: contract inherited from the trait; `layout` is forwarded
    // to `System.alloc` untouched.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same non-zero-size `layout` the caller provided under
        // `GlobalAlloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Relaxed);
        }
        p
    }

    // SAFETY: contract inherited from the trait; the `ptr`/`layout` pair
    // is forwarded to `System.dealloc` untouched.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // with this `layout`, and every pointer it hands out is `System`'s.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    // SAFETY: contract inherited from the trait; `ptr`, `layout` and
    // `new_size` are forwarded to `System.realloc` untouched.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // with this `layout` and that `new_size` is valid for its
        // alignment; every pointer this allocator hands out is `System`'s.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_add(new_size, Relaxed);
            LIVE.fetch_sub(layout.size(), Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn data_dir() -> Result<PathBuf, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [flag, dir] if flag == "--data" => Ok(dir.into()),
        _ => Err("usage: perfbench-heap --data <dataset>".into()),
    }
}

fn open(path: &Path) -> Result<BufReader<std::fs::File>, String> {
    std::fs::File::open(path)
        .map(BufReader::new)
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Live MiB the folded state of `data` holds.
fn state_live_mib(data: &Path) -> Result<f64, String> {
    let trust = load_trust(data).map_err(|e| format!("trust: {e}"))?;
    let ct = load_ct_index(data).map_err(|e| format!("ct: {e}"))?;
    let crosssign = CrossSignRegistry::from_disclosures(
        &load_crosssign(data).map_err(|e| format!("crosssign: {e}"))?,
    );
    let pipeline = Pipeline::new(&trust, &ct, crosssign);
    let mut state = PipelineState::new();
    pipeline
        .fold_x509_stream(
            &mut state,
            X509LogStream::permissive(open(&data.join("x509.log"))?),
        )
        .map_err(|e| format!("x509 fold: {e}"))?;
    pipeline
        .fold_ssl_stream(
            &mut state,
            SslLogStream::permissive(open(&data.join("ssl.log"))?),
        )
        .map_err(|e| format!("ssl fold: {e}"))?;
    if state.ssl_records() == 0 {
        return Err("the folded state holds no ssl records".into());
    }
    let with_state = LIVE.load(Relaxed);
    drop(state);
    let without = LIVE.load(Relaxed);
    Ok(with_state.saturating_sub(without) as f64 / f64::from(1u32 << 20))
}

fn main() -> ExitCode {
    match data_dir().and_then(|data| state_live_mib(&data)) {
        Ok(mib) => {
            let doc = JsonValue::Obj(vec![(
                "chainlab.state_live_mib".into(),
                JsonValue::Num(mib),
            )]);
            println!("{}", doc.to_pretty());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench-heap: {e}");
            ExitCode::FAILURE
        }
    }
}
