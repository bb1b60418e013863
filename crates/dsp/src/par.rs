//! The workspace's one parallel runtime: an index-ordered parallel map.
//!
//! [`map_indexed`] runs `f(i)` for every `i in 0..n` on up to `jobs`
//! scoped worker threads. Workers claim indices through one atomic
//! cursor, so a slow chunk never idles the others, and each worker keeps
//! its results locally until the scope joins; the caller gets them back
//! in index order. `f` sees only the index, so how the work was spread
//! can never leak into the results. With `jobs <= 1` (or at most one
//! chunk) the same loop runs inline on the calling thread, and so does a
//! call made from inside a worker: when the outer map already has every
//! core busy, a nested one would only add threads that fight for them.
//! [`for_each_chunk_mut`] is the same map over disjoint mutable chunks
//! of one slice, for work that fills a buffer in place.
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
use std::cell::Cell;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

thread_local! {
    /// Set on the threads [`map_indexed`] spawns, so nested calls run inline.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// The host's core count (`available_parallelism`, 1 if unknown), read
/// once per process.
pub fn available_jobs() -> usize {
    static JOBS: OnceLock<usize> = OnceLock::new();
    *JOBS.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

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
    if jobs <= 1 || n <= 1 || IN_WORKER.get() {
        return (0..n).map(|i| run_chunk(&f, i)).collect();
    }
    let workers = jobs.min(n);
    let cursor = AtomicUsize::new(0);
    let (f, cursor) = (&f, &cursor);
    let per_worker: Vec<Vec<(usize, Result<T, ChunkPanic>)>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    IN_WORKER.set(true);
                    let mut done = Vec::with_capacity(n.div_ceil(workers));
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

/// Runs `f(i, chunk)` for the `i`th chunk of `data.chunks_mut(chunk_len)`,
/// each exactly once, on up to `jobs` workers: [`map_indexed`] over the
/// chunks, with the same scheduling, nesting and panic contract. Chunks
/// below the first panicking one have been written; the rest of `data`
/// is unspecified.
///
/// ```
/// use bs_dsp::par::for_each_chunk_mut;
///
/// let mut rows = vec![0usize; 12];
/// for_each_chunk_mut(2, &mut rows, 3, |i, row| row.fill(i)).unwrap();
/// assert_eq!(rows, [0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3]);
/// ```
///
/// # Errors
/// [`ChunkPanic`] naming the lowest-index chunk whose `f` panicked.
///
/// # Panics
/// Panics if `chunk_len` is 0, as [`slice::chunks_mut`] does.
pub fn for_each_chunk_mut<T, F>(
    jobs: usize,
    data: &mut [T],
    chunk_len: usize,
    f: F,
) -> Result<(), ChunkPanic>
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    // Each chunk is claimed once, so its lock is never contended; it
    // only hands the one `&mut` across to whichever worker claims it.
    let chunks: Vec<Mutex<&mut [T]>> = data.chunks_mut(chunk_len).map(Mutex::new).collect();
    map_indexed(jobs, chunks.len(), |i| {
        f(
            i,
            &mut chunks[i]
                .lock()
                .expect("a chunk is claimed once, so never poisoned"),
        );
    })
    .map(drop)
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
    fn nested_calls_run_inline_with_the_same_contract() {
        let want: Vec<Vec<usize>> = (0..6)
            .map(|i| (0..9).map(|j| i * 10 + j).collect())
            .collect();
        let outer = map_indexed(2, 6, |i| {
            let nested_threads: Vec<_> = map_indexed(4, 9, |_| std::thread::current().id())
                .unwrap()
                .into_iter()
                .filter(|&id| id != std::thread::current().id())
                .collect();
            assert!(nested_threads.is_empty(), "a nested map spawned threads");
            let values = map_indexed(4, 9, |j| i * 10 + j).unwrap();
            let err = map_indexed(4, 9, |j| {
                assert!(j < 3 || j % 3 != 0, "chunk {j} refused");
                j
            })
            .unwrap_err();
            (values, err.chunk, err.message)
        })
        .unwrap();
        for (i, (values, chunk, message)) in outer.into_iter().enumerate() {
            assert_eq!(values, want[i]);
            assert_eq!((chunk, message.as_str()), (3, "chunk 3 refused"));
        }
    }

    #[test]
    fn chunks_are_written_in_place_for_any_jobs() {
        for jobs in [1, 2, 3, 8] {
            let mut data = vec![0usize; 23];
            for_each_chunk_mut(jobs, &mut data, 5, |i, chunk| {
                for (k, v) in chunk.iter_mut().enumerate() {
                    *v = i * 5 + k;
                }
            })
            .unwrap();
            assert_eq!(data, (0..23).collect::<Vec<_>>(), "jobs {jobs}");
        }
        for_each_chunk_mut(2, &mut [0u8; 0], 4, |_, _| unreachable!()).unwrap();
    }

    #[test]
    fn chunk_panics_name_the_lowest_chunk() {
        for jobs in [1, 2, 8] {
            let mut data = vec![0u32; 40];
            let err = for_each_chunk_mut(jobs, &mut data, 2, |i, chunk| {
                assert!(i < 7 || i % 7 != 0, "chunk {i} refused");
                chunk.fill(1);
            })
            .unwrap_err();
            assert_eq!(
                (err.chunk, err.message.as_str()),
                (7, "chunk 7 refused"),
                "jobs {jobs}"
            );
            assert!(data[..14].iter().all(|&v| v == 1), "jobs {jobs}");
        }
    }

    #[test]
    fn non_string_payloads_get_a_placeholder() {
        let err = map_indexed(1, 1, |_| -> u8 { std::panic::panic_any(7u32) }).unwrap_err();
        assert_eq!(err.message, "non-string panic payload");
    }
}
