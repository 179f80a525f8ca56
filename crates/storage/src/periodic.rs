//! One background loop: a named thread that runs a pass every interval.
//!
//! Every background loop in artsparse runs on a [`Periodic`]: the ingest
//! scheduler, the metrics exporter, and the server's publisher and accept
//! loops. The contract is written once, here:
//!
//! - [`Periodic::spawn`] starts one named thread, or returns the OS's
//!   refusal as an error;
//! - the thread runs its pass every `interval` (at least 1 ms) and
//!   parks in between, so a stop wakes it at once;
//! - once a stop is requested, no ordinary pass starts: the thread runs
//!   the pass one last time, told that it is stopping, and exits;
//! - [`Periodic::stop`] waits at most [`SHUTDOWN_TIMEOUT`] for that. A
//!   worker wedged inside a device call is detached instead (it holds
//!   only what its pass captured, and exits if the call ever returns),
//!   and the caller gets a `TimedOut` error; a pass that panicked is
//!   reported as an error too. The stop is idempotent, and dropping the
//!   handle runs it.

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Upper bound on how long [`Periodic::stop`] waits for the worker.
pub const SHUTDOWN_TIMEOUT: Duration = Duration::from_secs(5);

/// Shortest interval a loop runs at; a shorter one is clamped to it.
const MIN_INTERVAL: Duration = Duration::from_millis(1);

/// Handle to one background loop. Dropping it stops the loop.
#[derive(Debug)]
pub struct Periodic {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Periodic {
    /// Start a thread named `name` that calls `pass(false)` every
    /// `interval` until [`stop`](Periodic::stop), then `pass(true)` once.
    pub fn spawn(
        name: &str,
        interval: Duration,
        mut pass: impl FnMut(bool) + Send + 'static,
    ) -> io::Result<Periodic> {
        let interval = interval.max(MIN_INTERVAL);
        let stop = Arc::new(AtomicBool::new(false));
        let stopping = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name(name.to_string())
            .spawn(move || {
                while !stopping.load(Ordering::SeqCst) {
                    pass(false);
                    if !stopping.load(Ordering::SeqCst) {
                        std::thread::park_timeout(interval);
                    }
                }
                pass(true);
            })?;
        Ok(Periodic {
            stop,
            handle: Some(handle),
        })
    }

    /// Request the stop and wait for the stopping pass, at most
    /// [`SHUTDOWN_TIMEOUT`]; a worker still busy then is detached and
    /// reported as a `TimedOut` error, and one whose pass panicked is
    /// reported too. A second call returns `Ok`.
    pub fn stop(&mut self) -> io::Result<()> {
        self.stop.store(true, Ordering::SeqCst);
        let Some(handle) = self.handle.take() else {
            return Ok(());
        };
        let name = handle.thread().name().unwrap_or_default().to_string();
        let deadline = Instant::now() + SHUTDOWN_TIMEOUT;
        while !handle.is_finished() {
            if Instant::now() >= deadline {
                let message = format!(
                    "{name} stop timed out after {SHUTDOWN_TIMEOUT:?}; detaching the stuck worker thread"
                );
                return Err(io::Error::new(io::ErrorKind::TimedOut, message));
            }
            // Unpark on every wait, not once: a pass that joins threads
            // of its own may consume a single unpark's token.
            handle.thread().unpark();
            std::thread::sleep(MIN_INTERVAL);
        }
        // The worker has returned, so this join is immediate.
        let panicked = |_| io::Error::other(format!("{name} panicked in a pass"));
        handle.join().map_err(panicked)
    }
}

impl Drop for Periodic {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Mutex;

    #[test]
    fn passes_repeat_and_the_stopping_pass_runs_once_last() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let seen = Arc::clone(&log);
        let mut worker = Periodic::spawn("periodic-test", Duration::ZERO, move |stopping| {
            seen.lock().unwrap().push(stopping);
        })
        .unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while log.lock().unwrap().len() < 3 {
            assert!(Instant::now() < deadline, "the loop never ran");
            std::thread::sleep(Duration::from_millis(1));
        }
        worker.stop().unwrap();
        worker.stop().unwrap(); // idempotent
        let log = log.lock().unwrap();
        assert_eq!(log.iter().filter(|&&s| s).count(), 1);
        assert_eq!(log.last(), Some(&true));
    }

    #[test]
    fn a_stop_wakes_a_parked_loop_at_once() {
        let passes = Arc::new(AtomicU64::new(0));
        let counted = Arc::clone(&passes);
        let mut worker = Periodic::spawn("periodic-test", Duration::from_secs(3600), move |_| {
            counted.fetch_add(1, Ordering::SeqCst);
        })
        .unwrap();
        while passes.load(Ordering::SeqCst) == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let started = Instant::now();
        worker.stop().unwrap();
        assert!(started.elapsed() < Duration::from_secs(1));
        assert!(passes.load(Ordering::SeqCst) >= 2, "the stopping pass ran");
    }

    #[test]
    fn a_panicked_pass_is_reported_by_the_stop() {
        let mut worker =
            Periodic::spawn("periodic-test", Duration::ZERO, |_| panic!("injected")).unwrap();
        let error = worker.stop().unwrap_err();
        assert!(
            error.to_string().contains("periodic-test panicked"),
            "{error}"
        );
    }

    #[test]
    fn drop_stops_the_loop() {
        let finished = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&finished);
        let worker = Periodic::spawn(
            "periodic-test",
            Duration::from_secs(3600),
            move |stopping| {
                flag.store(stopping, Ordering::SeqCst);
            },
        )
        .unwrap();
        drop(worker);
        assert!(finished.load(Ordering::SeqCst));
    }
}
