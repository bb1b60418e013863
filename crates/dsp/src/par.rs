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
//! [`pipeline`] is the streaming form for work with a serial part: the
//! calling thread produces items in order while the workers fill each
//! item's row, and takes the rows back in order.
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
use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

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
        return (0..n).map(|i| run_chunk(i, || f(i))).collect();
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
                        let out = run_chunk(i, || f(i));
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

/// Items a [`pipeline`] hands to a thread at a time: about 0.6 ms of a
/// capture's CSI math, so the queue's lock is taken a few thousand
/// times a second at most. On two cores 16 measured slower, 32 to 256
/// alike.
const PIPELINE_CHUNK: usize = 64;

/// Streams items `0..n` through three stages on up to `jobs` threads.
/// `produce(i)` makes item `i` on the calling thread, in index order;
/// `work(scratch, item, row)` fills the item's row of `width` values on
/// any thread; `consume(item, row)` takes each item back on the calling
/// thread, in index order again. So the serial `produce` of later items
/// overlaps the parallel `work` on earlier ones.
///
/// [`map_indexed`]'s contract carries over. With `jobs <= 1`, at most
/// one chunk (64 items), or inside a worker, the three calls run inline,
/// item by item. `work` runs under `catch_unwind` on every thread, the
/// calling one included, and a panic comes back as the [`ChunkPanic`]
/// of the lowest item whose `work` panicked: every item below it has
/// been consumed, and none at or above it.
///
/// The threads are spawned once per call and take items in chunks of 64
/// from one queue, in index order. The calling thread produces chunks
/// while at most two per thread are in flight; while it waits for the
/// next chunk in order, it runs `work` on queued ones itself. Each
/// thread makes its `scratch` once, and chunk buffers are reused, so a
/// call allocates the same few buffers whatever `n` is.
///
/// ```
/// use bs_dsp::par::pipeline;
///
/// let mut rows = Vec::new();
/// pipeline(
///     2,
///     100,
///     3,
///     |i| i,
///     || (),
///     |_, &mut i, row: &mut [usize]| row.fill(i * i),
///     |&i, row| rows.push((i, row.to_vec())),
/// )
/// .unwrap();
/// assert_eq!(rows.len(), 100);
/// assert_eq!(rows[7], (7, vec![49; 3]));
/// ```
///
/// # Errors
/// [`ChunkPanic`] naming the lowest item whose `work` panicked; a panic
/// in `produce`, `scratch` or `consume` unwinds as usual.
pub fn pipeline<I, T, S>(
    jobs: usize,
    n: usize,
    width: usize,
    mut produce: impl FnMut(usize) -> I,
    scratch: impl Fn() -> S + Sync,
    work: impl Fn(&mut S, &mut I, &mut [T]) + Sync,
    mut consume: impl FnMut(&I, &[T]),
) -> Result<(), ChunkPanic>
where
    I: Send,
    T: Clone + Default + Send,
{
    if jobs <= 1 || n <= PIPELINE_CHUNK || IN_WORKER.get() {
        let (mut scratch, mut row) = (scratch(), vec![T::default(); width]);
        for i in 0..n {
            let mut item = produce(i);
            run_chunk(i, || work(&mut scratch, &mut item, &mut row))?;
            consume(&item, &row);
        }
        return Ok(());
    }
    let threads = jobs.min(n.div_ceil(PIPELINE_CHUNK));
    let queue = ChunkQueue::new();
    let (queue, scratch, work) = (&queue, &scratch, &work);
    std::thread::scope(|scope| {
        let _close = CloseOnDrop(queue);
        for _ in 1..threads {
            scope.spawn(move || {
                IN_WORKER.set(true);
                let mut scratch = scratch();
                while let Some(mut chunk) = queue.claim() {
                    chunk.run(&mut scratch, width, work);
                    queue.finish(chunk);
                }
            });
        }
        // The calling thread runs `work` too, so calls nested in it run
        // inline as on any worker.
        IN_WORKER.set(true);
        let mut own_scratch = scratch();
        let mut spare: Vec<Chunk<I, T>> = Vec::new();
        let (mut produced, mut consumed, mut in_flight) = (0, 0, 0);
        while consumed < n {
            if produced < n && in_flight < 2 * threads {
                let mut chunk = spare.pop().unwrap_or_else(Chunk::new);
                let len = PIPELINE_CHUNK.min(n - produced);
                chunk.refill(produced, len, width, &mut produce);
                produced += len;
                in_flight += 1;
                queue.submit(chunk);
                continue;
            }
            let mut chunk = queue.take_in_order(consumed, |c| c.run(&mut own_scratch, width, work));
            in_flight -= 1;
            let clean = (chunk.panic.as_ref()).map_or(chunk.items.len(), |p| p.chunk - chunk.first);
            for (j, item) in chunk.items[..clean].iter().enumerate() {
                consume(item, &chunk.rows[j * width..(j + 1) * width]);
            }
            if let Some(p) = chunk.panic.take() {
                return Err(p);
            }
            consumed += clean;
            spare.push(chunk);
        }
        Ok(())
    })
}

/// Up to [`PIPELINE_CHUNK`] consecutive items of a [`pipeline`], with
/// their rows.
struct Chunk<I, T> {
    /// Index of the first item.
    first: usize,
    items: Vec<I>,
    /// `items.len()` rows of the pipeline's width, back to back.
    rows: Vec<T>,
    /// The first item whose `work` panicked; the items after it are not
    /// worked.
    panic: Option<ChunkPanic>,
}

impl<I, T: Clone + Default> Chunk<I, T> {
    fn new() -> Self {
        Chunk {
            first: 0,
            items: Vec::with_capacity(PIPELINE_CHUNK),
            rows: Vec::new(),
            panic: None,
        }
    }

    /// Reuses the buffers for items `first..first + len`.
    fn refill(&mut self, first: usize, len: usize, width: usize, produce: impl FnMut(usize) -> I) {
        self.first = first;
        self.panic = None;
        self.items.clear();
        self.items.extend((first..first + len).map(produce));
        self.rows.resize(len * width, T::default());
    }

    /// Runs `work` on each item in turn, up to the first that panics.
    /// A thread takes chunks in index order, so whatever a panic leaves
    /// in its `scratch` only reaches items that are never consumed.
    fn run<S>(&mut self, scratch: &mut S, width: usize, work: &impl Fn(&mut S, &mut I, &mut [T])) {
        for (j, item) in self.items.iter_mut().enumerate() {
            let row = &mut self.rows[j * width..(j + 1) * width];
            if let Err(p) = run_chunk(self.first + j, || work(scratch, item, row)) {
                self.panic = Some(p);
                return;
            }
        }
    }
}

/// The queue between a [`pipeline`]'s calling thread and its helpers.
struct ChunkQueue<I, T> {
    state: Mutex<QueueState<I, T>>,
    /// Signalled when a chunk is queued or the queue closes; helpers
    /// wait on it.
    queued: Condvar,
    /// Signalled when a helper finishes a chunk; the calling thread
    /// waits on it.
    finished: Condvar,
}

struct QueueState<I, T> {
    /// Chunks not yet claimed, in index order.
    todo: VecDeque<Chunk<I, T>>,
    /// Chunks worked and not yet taken, in any order.
    done: Vec<Chunk<I, T>>,
    /// Set when the calling thread stops; helpers then exit.
    closed: bool,
}

const QUEUE_LOCK: &str = "no thread panics while it holds the chunk queue";

impl<I, T> ChunkQueue<I, T> {
    fn new() -> Self {
        ChunkQueue {
            state: Mutex::new(QueueState {
                todo: VecDeque::new(),
                done: Vec::new(),
                closed: false,
            }),
            queued: Condvar::new(),
            finished: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, QueueState<I, T>> {
        self.state.lock().expect(QUEUE_LOCK)
    }

    fn submit(&self, chunk: Chunk<I, T>) {
        self.lock().todo.push_back(chunk);
        self.queued.notify_one();
    }

    /// The next queued chunk, waiting for one; `None` once closed.
    fn claim(&self) -> Option<Chunk<I, T>> {
        let mut state = self.lock();
        loop {
            if state.closed {
                return None;
            }
            if let Some(chunk) = state.todo.pop_front() {
                return Some(chunk);
            }
            state = self.queued.wait(state).expect(QUEUE_LOCK);
        }
    }

    fn finish(&self, chunk: Chunk<I, T>) {
        self.lock().done.push(chunk);
        self.finished.notify_one();
    }

    /// The chunk starting at item `first` once it is worked, running
    /// `run` on queued chunks while it waits.
    fn take_in_order(&self, first: usize, mut run: impl FnMut(&mut Chunk<I, T>)) -> Chunk<I, T> {
        let mut state = self.lock();
        loop {
            if let Some(k) = state.done.iter().position(|c| c.first == first) {
                return state.done.swap_remove(k);
            }
            if let Some(mut chunk) = state.todo.pop_front() {
                drop(state);
                run(&mut chunk);
                state = self.lock();
                state.done.push(chunk);
            } else {
                state = self.finished.wait(state).expect(QUEUE_LOCK);
            }
        }
    }
}

/// Closes a [`pipeline`]'s queue however its calling thread leaves the
/// scope (done, a panicking `work`, or a panic in `produce` or
/// `consume`), so the helpers exit and the scope can join them.
struct CloseOnDrop<'a, I, T>(&'a ChunkQueue<I, T>);

impl<I, T> Drop for CloseOnDrop<'_, I, T> {
    fn drop(&mut self) {
        IN_WORKER.set(false);
        // Setting the flag leaves the state valid whatever was poisoned.
        (self.0.state.lock())
            .unwrap_or_else(PoisonError::into_inner)
            .closed = true;
        self.0.queued.notify_all();
    }
}

fn run_chunk<T>(i: usize, f: impl FnOnce() -> T) -> Result<T, ChunkPanic> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| ChunkPanic {
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
    use std::sync::mpsc::{channel, Receiver};
    use std::time::Duration;

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

    /// What a pipeline of `n` items, each `width` values wide, consumes
    /// on `jobs` threads: every item with its row, in consumption order.
    fn pipeline_at(jobs: usize, n: usize, width: usize) -> Vec<(usize, Vec<usize>)> {
        let mut out = Vec::new();
        pipeline(
            jobs,
            n,
            width,
            |i| i,
            Vec::new,
            |scratch: &mut Vec<usize>, &mut i, row| {
                scratch.clear();
                scratch.extend((0..width).map(|k| i * 100 + k));
                row.copy_from_slice(scratch);
            },
            |&i, row| out.push((i, row.to_vec())),
        )
        .unwrap();
        out
    }

    #[test]
    fn chunks_are_written_in_place_for_any_jobs() {
        let chunk = PIPELINE_CHUNK;
        for n in [0, 1, chunk, chunk + 1, 20 * chunk + 7] {
            for width in [0, 1, 5] {
                let want: Vec<(usize, Vec<usize>)> = (0..n)
                    .map(|i| (i, (0..width).map(|k| i * 100 + k).collect()))
                    .collect();
                for jobs in [1, 2, 3, 8] {
                    assert!(
                        pipeline_at(jobs, n, width) == want,
                        "{n} items of width {width}, jobs {jobs}"
                    );
                }
            }
        }
    }

    /// Waits for a signal from another thread; a missing one fails the
    /// test instead of hanging it.
    fn await_signal(rx: &Receiver<()>, what: &str) {
        rx.recv_timeout(Duration::from_secs(30))
            .unwrap_or_else(|_| panic!("no signal: {what}"));
    }

    /// Runs two chunks on two threads, with the first chunk forced onto
    /// the helper and held there until the calling thread has panicked
    /// in the second. `work` panics at `caller_panic` when the calling
    /// thread runs it, and at every item of `helper_panics` on the
    /// helper. Returns the error and the items consumed.
    fn forced_panics(caller_panic: usize, helper_panics: &[usize]) -> (ChunkPanic, Vec<usize>) {
        let caller = std::thread::current().id();
        let (started_tx, started_rx) = channel();
        let (panicked_tx, panicked_rx) = channel();
        let panicked_rx = Mutex::new(panicked_rx);
        let mut consumed = Vec::new();
        let err = pipeline(
            2,
            2 * PIPELINE_CHUNK,
            1,
            |i| {
                // The calling thread waits here, so only the helper can
                // have claimed the first chunk.
                if i == PIPELINE_CHUNK {
                    await_signal(&started_rx, "the helper claimed chunk 0");
                }
                i
            },
            || (),
            |_, &mut i, row: &mut [usize]| {
                let on_caller = std::thread::current().id() == caller;
                if i == 0 {
                    assert!(!on_caller, "chunk 0 ran on the calling thread");
                    started_tx.send(()).expect("the test is listening");
                    let rx = panicked_rx.lock().expect("one helper");
                    await_signal(&rx, "the calling thread panicked");
                }
                if on_caller && i == caller_panic {
                    panicked_tx.send(()).expect("the helper is listening");
                    panic!("item {i} refused on the calling thread");
                }
                assert!(!helper_panics.contains(&i), "item {i} refused on a helper");
                row[0] = i;
            },
            |&i, _| consumed.push(i),
        )
        .unwrap_err();
        (err, consumed)
    }

    #[test]
    fn chunk_panics_name_the_lowest_chunk() {
        // On the calling thread alone.
        let at = PIPELINE_CHUNK + 2;
        let (err, consumed) = forced_panics(at, &[]);
        assert_eq!(err.chunk, at);
        assert_eq!(
            err.message,
            format!("item {at} refused on the calling thread")
        );
        assert_eq!(consumed, (0..at).collect::<Vec<_>>());
        // On a helper too, later in time but lower in index: the helper's
        // panic is the one reported.
        let (err, consumed) = forced_panics(at, &[5, 9]);
        assert_eq!(
            (err.chunk, err.message.as_str()),
            (5, "item 5 refused on a helper")
        );
        assert_eq!(consumed, (0..5).collect::<Vec<_>>());
        // Inline, and at any jobs, for a work that panics wherever it runs.
        for jobs in [1, 2, 3, 8] {
            let mut consumed = 0;
            let err = pipeline(
                jobs,
                10 * PIPELINE_CHUNK,
                2,
                |i| i,
                || (),
                |_, &mut i, _: &mut [u8]| assert!(i < 70 || i % 7 != 0, "item {i} refused"),
                |_, _| consumed += 1,
            )
            .unwrap_err();
            assert_eq!(
                (err.chunk, err.message.as_str()),
                (70, "item 70 refused"),
                "jobs {jobs}"
            );
            assert_eq!(consumed, 70, "jobs {jobs}");
        }
    }

    #[test]
    fn a_panicking_producer_or_consumer_unwinds_without_hanging() {
        let n = 10 * PIPELINE_CHUNK;
        for jobs in [1, 2, 8] {
            let produce = catch_unwind(|| {
                pipeline(
                    jobs,
                    n,
                    1,
                    |i| assert!(i != 100, "produce refused"),
                    || (),
                    |_, _, _: &mut [u8]| {},
                    |_, _| {},
                )
            });
            let consume = catch_unwind(|| {
                pipeline(
                    jobs,
                    n,
                    1,
                    |i| i,
                    || (),
                    |_, _, _: &mut [u8]| {},
                    |&i, _| assert!(i != 100, "consume refused"),
                )
            });
            assert!(produce.is_err() && consume.is_err(), "jobs {jobs}");
        }
    }

    #[test]
    fn pipelines_and_maps_nested_in_each_other_run_inline() {
        let n = 10 * PIPELINE_CHUNK;
        let outer = map_indexed(2, 4, |k| {
            let me = std::thread::current().id();
            let mut rows = Vec::new();
            pipeline(
                4,
                n,
                1,
                |i| i,
                || (),
                |_, &mut i, row: &mut [usize]| {
                    assert!(
                        std::thread::current().id() == me,
                        "a nested pipeline spawned"
                    );
                    row[0] = i + k;
                },
                |_, row| rows.push(row[0]),
            )
            .unwrap();
            rows
        })
        .unwrap();
        for (k, rows) in outer.into_iter().enumerate() {
            assert_eq!(rows, (k..k + n).collect::<Vec<_>>());
        }
        let mut sums = Vec::new();
        pipeline(
            2,
            n,
            1,
            |i| i,
            || (),
            |_, &mut i, row: &mut [usize]| {
                let me = std::thread::current().id();
                let ids = map_indexed(4, 3, |_| std::thread::current().id()).unwrap();
                assert!(
                    ids.iter().all(|&id| id == me),
                    "a map nested in a pipeline spawned"
                );
                row[0] = map_indexed(4, 3, |j| i + j).unwrap().iter().sum();
            },
            |_, row| sums.push(row[0]),
        )
        .unwrap();
        assert_eq!(sums, (0..n).map(|i| 3 * i + 3).collect::<Vec<_>>());
    }

    #[test]
    fn non_string_payloads_get_a_placeholder() {
        let err = map_indexed(1, 1, |_| -> u8 { std::panic::panic_any(7u32) }).unwrap_err();
        assert_eq!(err.message, "non-string panic payload");
    }
}
