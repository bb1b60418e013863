//! The workspace's one parallel runtime: an index-ordered parallel map.
//!
//! [`map_indexed`] runs `f(i)` for every `i in 0..n` on up to `jobs`
//! scoped worker threads. Workers claim indices through one atomic
//! cursor, so a slow chunk never idles the others, and each worker keeps
//! its results locally until the scope joins; the caller gets them back
//! in index order. `f` sees only the index, so how the work was spread
//! can never leak into the results. With `jobs <= 1` (or at most one
//! chunk) the same loop runs inline on the calling thread.
//!
//! Every chunk runs under [`std::panic::catch_unwind`], inline and
//! threaded alike, so a panic comes back as a typed [`ChunkPanic`]
//! naming the chunk instead of tearing down the caller. Once a chunk has
//! panicked, workers stop claiming new ones. Chunks are claimed in index
//! order, so for a deterministic `f` every chunk below the first
//! panicking one has run and the reported panic is the lowest-index one
//! — the same chunk an inline run stops at, whatever `jobs` is.
//!
//! ```
//! use bs_dsp::par::map_indexed;
//!
//! let squares = map_indexed(4, 10, |i| i * i).unwrap();
//! assert_eq!(squares, (0..10).map(|i| i * i).collect::<Vec<_>>());
//! ```

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A chunk of a [`map_indexed`] run panicked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkPanic {
    /// Index of the chunk that panicked (the lowest such index).
    pub chunk: usize,
    /// The panic message, or a placeholder for a non-string payload.
    pub message: String,
}

impl std::fmt::Display for ChunkPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "chunk {} panicked: {}", self.chunk, self.message)
    }
}

impl std::error::Error for ChunkPanic {}

/// Runs `f(i)` for every `i in 0..n` on up to `jobs` workers and returns
/// the results in index order (see the module docs for the scheduling
/// and panic contract).
///
/// # Errors
/// [`ChunkPanic`] naming the lowest-index chunk whose `f` panicked.
pub fn map_indexed<T, F>(jobs: usize, n: usize, f: F) -> Result<Vec<T>, ChunkPanic>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if jobs <= 1 || n <= 1 {
        return (0..n).map(|i| run_chunk(&f, i)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let (f, cursor) = (&f, &cursor);
    let per_worker: Vec<Vec<(usize, Result<T, ChunkPanic>)>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..jobs.min(n))
            .map(|_| {
                scope.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        // The cursor publishes no data (results travel
                        // through the join), so Relaxed suffices.
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let out = run_chunk(f, i);
                        if out.is_err() {
                            cursor.fetch_max(n, Ordering::Relaxed);
                        }
                        done.push((i, out));
                    }
                    done
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("chunk panics are caught inside the worker"))
            .collect()
    });

    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let mut first_panic: Option<ChunkPanic> = None;
    for (i, out) in per_worker.into_iter().flatten() {
        match out {
            Ok(v) => slots[i] = Some(v),
            Err(p) if first_panic.as_ref().is_none_or(|q| p.chunk < q.chunk) => {
                first_panic = Some(p);
            }
            Err(_) => {}
        }
    }
    if let Some(p) = first_panic {
        return Err(p);
    }
    Ok(slots
        .into_iter()
        .map(|v| v.expect("without a panic every chunk runs exactly once"))
        .collect())
}

fn run_chunk<T>(f: &impl Fn(usize) -> T, i: usize) -> Result<T, ChunkPanic> {
    catch_unwind(AssertUnwindSafe(|| f(i))).map_err(|payload| ChunkPanic {
        chunk: i,
        message: panic_message(payload.as_ref()),
    })
}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order_for_any_jobs() {
        let want: Vec<usize> = (0..37).map(|i| i * 3 + 1).collect();
        for jobs in [0, 1, 2, 8, 64] {
            assert_eq!(
                map_indexed(jobs, 37, |i| i * 3 + 1).unwrap(),
                want,
                "jobs {jobs}"
            );
        }
        assert!(map_indexed(4, 0, |i| i).unwrap().is_empty());
    }

    #[test]
    fn panics_are_contained_and_name_the_lowest_chunk() {
        for jobs in [1, 2, 8] {
            let err = map_indexed(jobs, 20, |i| {
                assert!(i < 5 || i % 5 != 0, "chunk {i} refused");
                i
            })
            .unwrap_err();
            assert_eq!(err.chunk, 5, "jobs {jobs}");
            assert_eq!(err.message, "chunk 5 refused");
            assert!(err.to_string().contains("chunk 5 panicked"));
        }
    }

    #[test]
    fn non_string_payloads_get_a_placeholder() {
        let err = map_indexed(1, 1, |_| -> u8 { std::panic::panic_any(7u32) }).unwrap_err();
        assert_eq!(err.message, "non-string panic payload");
    }
}
