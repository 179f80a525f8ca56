//! Failure injection for the commit protocol and the read path.
//!
//! [`FailingBackend`] wraps any device and simulates two families of
//! faults. **Write crashes** (since the commit-protocol work): a torn
//! `put` (only a prefix of the payload reaches the device before the
//! "crash"), a killed rename (the staged blob never becomes visible), or
//! failing deletes (a consolidation dies between committing its merged
//! fragment and removing the sources). **Read faults** (the integrity
//! work): N-transient-errors-then-succeed, per-read latency, and
//! deterministic seeded bit-flips in returned payloads — the chaos
//! primitives the retry/checksum/quarantine machinery is tested against.
//! **Write faults** (the write-path fault-domain work):
//! N-transient-errors-then-succeed across every mutating operation, a
//! persistent `ENOSPC`-style no-space mode, and per-write latency — the
//! primitives the retry policy, backpressure, and health state
//! machine are tortured against. A **crash at an operation boundary**
//! lets the next N write operations land and fails every later one, so a
//! test can kill a multi-blob commit between any two of its steps.
//!
//! Every injected error carries a typed [`InjectedFault`] payload (not
//! just a formatted string), so tests match on `op`/`transient` via
//! [`injected_fault`] instead of scraping messages.
//!
//! The wrapper is shipped in the library (not `#[cfg(test)]`) so
//! integration tests and downstream chaos harnesses can reuse it.

use crate::backend::StorageBackend;
use crate::error::{Result, StorageError};
use parking_lot::Mutex;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// The machine-matchable payload of every error [`FailingBackend`]
/// injects. Reach it through [`injected_fault`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedFault {
    /// Backend operation the fault fired in (`"put"`, `"get_range"`, …).
    pub op: &'static str,
    /// Blob name the operation targeted.
    pub name: String,
    /// Whether the fault models a transient condition (a flaky read that
    /// would succeed on retry) or a hard crash.
    pub transient: bool,
}

impl fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = if self.transient { "fault" } else { "crash" };
        write!(f, "injected {kind} during {} of {}", self.op, self.name)
    }
}

impl std::error::Error for InjectedFault {}

/// Extract the [`InjectedFault`] payload from an error, looking through
/// [`StorageError::RetriesExhausted`] wrapping. Returns `None` for
/// organic (non-injected) errors.
pub fn injected_fault(err: &StorageError) -> Option<&InjectedFault> {
    match err {
        StorageError::Io(e) => e.get_ref().and_then(|inner| inner.downcast_ref()),
        StorageError::RetriesExhausted { source, .. } => injected_fault(source),
        _ => None,
    }
}

/// A write crash: permanent, `ErrorKind::Other` — the engine must not
/// retry its way past a died process.
fn crash(op: &'static str, name: &str) -> StorageError {
    artsparse_metrics::charge(|io| io.fault_trips += 1);
    std::io::Error::other(InjectedFault {
        op,
        name: name.to_string(),
        transient: false,
    })
    .into()
}

/// A persistent no-space fault: `ErrorKind::StorageFull`, which
/// [`StorageError::is_transient`] classifies as permanent — retrying
/// cannot make room on a full device.
fn no_space(op: &'static str, name: &str) -> StorageError {
    artsparse_metrics::charge(|io| io.fault_trips += 1);
    std::io::Error::new(
        std::io::ErrorKind::StorageFull,
        InjectedFault {
            op,
            name: name.to_string(),
            transient: false,
        },
    )
    .into()
}

/// A transient read fault: `ErrorKind::Interrupted`, which
/// [`StorageError::is_transient`] classifies as retryable.
fn flake(op: &'static str, name: &str) -> StorageError {
    artsparse_metrics::charge(|io| io.fault_trips += 1);
    std::io::Error::new(
        std::io::ErrorKind::Interrupted,
        InjectedFault {
            op,
            name: name.to_string(),
            transient: true,
        },
    )
    .into()
}

/// Advance an xorshift64 state (zero-proofed).
fn xorshift64(state: u64) -> u64 {
    let mut x = if state == 0 {
        0x9E37_79B9_7F4A_7C15
    } else {
        state
    };
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// A [`StorageBackend`] wrapper that kills writes at a chosen byte or
/// operation and injects transient faults, latency, or bit-flips into
/// reads.
#[derive(Debug)]
pub struct FailingBackend<B> {
    inner: B,
    /// Remaining write-byte budget; `None` = unlimited.
    write_budget: Mutex<Option<u64>>,
    /// Write operations left before the process "dies"; `None` =
    /// unlimited.
    writes_left: Mutex<Option<u64>>,
    fail_renames: AtomicBool,
    fail_deletes: AtomicBool,
    /// How many upcoming read operations fail with a transient error
    /// before reads start succeeding again.
    read_faults_left: AtomicU64,
    /// Artificial per-read latency (slow-device simulation).
    read_latency_nanos: AtomicU64,
    /// Bit-flip corruption state; `None` = reads return clean bytes.
    corrupt_state: Mutex<Option<u64>>,
    /// How many upcoming write operations fail with a transient error
    /// before writes start succeeding again.
    write_faults_left: AtomicU64,
    /// When set, every write operation fails permanently with a
    /// `StorageFull` error (an `ENOSPC` device).
    out_of_space: AtomicBool,
    /// Artificial per-write latency (a saturated or throttled device).
    write_latency_nanos: AtomicU64,
}

impl<B: StorageBackend> FailingBackend<B> {
    /// Wrap a device with no failures armed.
    pub fn new(inner: B) -> Self {
        FailingBackend {
            inner,
            write_budget: Mutex::new(None),
            writes_left: Mutex::new(None),
            fail_renames: AtomicBool::new(false),
            fail_deletes: AtomicBool::new(false),
            read_faults_left: AtomicU64::new(0),
            read_latency_nanos: AtomicU64::new(0),
            corrupt_state: Mutex::new(None),
            write_faults_left: AtomicU64::new(0),
            out_of_space: AtomicBool::new(false),
            write_latency_nanos: AtomicU64::new(0),
        }
    }

    /// Unwrap the inner device.
    pub fn into_inner(self) -> B {
        self.inner
    }

    /// The inner device (for accounting assertions).
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// Arm a torn write: after `budget` more payload bytes, a `put`
    /// writes only the prefix that fits and then errors — the on-device
    /// blob is torn, exactly as if the process died mid-write. An armed
    /// `put_atomic` honors its all-or-nothing contract: it writes nothing
    /// once the budget cannot cover the whole payload.
    pub fn fail_after_write_bytes(&self, budget: u64) {
        *self.write_budget.lock() = Some(budget);
    }

    /// Arm a crash at an operation boundary: the next `n` write
    /// operations (`put`/`put_atomic`/`put_exclusive`/`rename`/`delete`)
    /// land, and every one after them fails as a crash, leaving device
    /// state untouched — the process died between two operations.
    pub fn crash_after_writes(&self, n: u64) {
        *self.writes_left.lock() = Some(n);
    }

    /// Disarm every injected failure (write and read side).
    pub fn disarm(&self) {
        *self.write_budget.lock() = None;
        *self.writes_left.lock() = None;
        self.fail_renames.store(false, Ordering::SeqCst);
        self.fail_deletes.store(false, Ordering::SeqCst);
        self.read_faults_left.store(0, Ordering::SeqCst);
        self.read_latency_nanos.store(0, Ordering::SeqCst);
        *self.corrupt_state.lock() = None;
        self.write_faults_left.store(0, Ordering::SeqCst);
        self.out_of_space.store(false, Ordering::SeqCst);
        self.write_latency_nanos.store(0, Ordering::SeqCst);
    }

    /// Make every `rename` fail (a crash between staging and commit).
    pub fn fail_renames(&self, on: bool) {
        self.fail_renames.store(on, Ordering::SeqCst);
    }

    /// Make every `delete` fail without deleting (a crash between a
    /// consolidation's commit and its source deletions).
    pub fn fail_deletes(&self, on: bool) {
        self.fail_deletes.store(on, Ordering::SeqCst);
    }

    /// Arm `n` transient read faults: the next `n` read operations
    /// (`get`/`get_prefix`/`get_range`) fail with a retryable error,
    /// then reads succeed again — the N-errors-then-succeed shape retry
    /// policies are tested against.
    pub fn fail_next_reads(&self, n: u64) {
        self.read_faults_left.store(n, Ordering::SeqCst);
    }

    /// Transient read faults still armed (not yet consumed).
    pub fn read_faults_remaining(&self) -> u64 {
        self.read_faults_left.load(Ordering::SeqCst)
    }

    /// Add a fixed latency to every read operation (a slow or
    /// overloaded device). `Duration::ZERO` turns it off.
    pub fn set_read_latency(&self, latency: Duration) {
        self.read_latency_nanos
            .store(latency.as_nanos() as u64, Ordering::SeqCst);
    }

    /// Start flipping one deterministically chosen bit in every
    /// non-empty read result. The same seed and read sequence reproduce
    /// the same corruption — chaos runs replay exactly. The device
    /// contents are untouched; only returned bytes are corrupted (a
    /// bad cable, not bad media).
    pub fn corrupt_reads(&self, seed: u64) {
        *self.corrupt_state.lock() = Some(xorshift64(seed));
    }

    /// Stop corrupting read results.
    pub fn stop_corrupting(&self) {
        *self.corrupt_state.lock() = None;
    }

    /// Arm `n` transient write faults: the next `n` write operations
    /// (`put`/`put_atomic`/`put_exclusive`/`rename`/`delete`) fail with
    /// a retryable error and leave device state untouched, then writes
    /// succeed again — the N-errors-then-succeed shape the retry policy
    /// is tested against on the write side.
    pub fn fail_next_writes(&self, n: u64) {
        self.write_faults_left.store(n, Ordering::SeqCst);
    }

    /// Transient write faults still armed (not yet consumed).
    pub fn write_faults_remaining(&self) -> u64 {
        self.write_faults_left.load(Ordering::SeqCst)
    }

    /// Simulate a full device: while set, every write operation fails
    /// permanently with a `StorageFull` (`ENOSPC`-style) error; reads
    /// are unaffected. Retrying cannot succeed until space is "freed"
    /// by turning this off.
    pub fn set_out_of_space(&self, on: bool) {
        self.out_of_space.store(on, Ordering::SeqCst);
    }

    /// Add a fixed latency to every write operation (a saturated or
    /// throttled device). `Duration::ZERO` turns it off.
    pub fn set_write_latency(&self, latency: Duration) {
        self.write_latency_nanos
            .store(latency.as_nanos() as u64, Ordering::SeqCst);
    }

    /// Consume one armed write fault or the no-space condition, if any;
    /// then apply write latency.
    fn write_gate(&self, op: &'static str, name: &str) -> Result<()> {
        if self.out_of_space.load(Ordering::SeqCst) {
            return Err(no_space(op, name));
        }
        if let Some(left) = self.writes_left.lock().as_mut() {
            match left.checked_sub(1) {
                Some(fewer) => *left = fewer,
                None => return Err(crash(op, name)),
            }
        }
        let fire = self
            .write_faults_left
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |left| {
                left.checked_sub(1)
            })
            .is_ok();
        if fire {
            return Err(flake(op, name));
        }
        let nanos = self.write_latency_nanos.load(Ordering::SeqCst);
        if nanos > 0 {
            std::thread::sleep(Duration::from_nanos(nanos));
        }
        Ok(())
    }

    /// Consume one armed read fault, if any; then apply latency.
    fn read_gate(&self, op: &'static str, name: &str) -> Result<()> {
        let fire = self
            .read_faults_left
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |left| {
                left.checked_sub(1)
            })
            .is_ok();
        if fire {
            return Err(flake(op, name));
        }
        let nanos = self.read_latency_nanos.load(Ordering::SeqCst);
        if nanos > 0 {
            std::thread::sleep(Duration::from_nanos(nanos));
        }
        Ok(())
    }

    /// Flip one bit of `data` when corruption is armed.
    fn maybe_corrupt(&self, data: &mut [u8]) {
        if data.is_empty() {
            return;
        }
        let mut state = self.corrupt_state.lock();
        if let Some(s) = *state {
            let bit = (s % (data.len() as u64 * 8)) as usize;
            data[bit / 8] ^= 1 << (bit % 8);
            *state = Some(xorshift64(s));
            artsparse_metrics::charge(|io| io.fault_trips += 1);
        }
    }
}

impl<B: StorageBackend> StorageBackend for FailingBackend<B> {
    fn kind_name(&self) -> &'static str {
        self.inner.kind_name()
    }

    fn put(&self, name: &str, data: &[u8]) -> Result<()> {
        self.write_gate("put", name)?;
        match self.take_budget(data.len() as u64) {
            None => self.inner.put(name, data),
            Some(allowed) if allowed >= data.len() as u64 => self.inner.put(name, data),
            Some(allowed) => {
                // Torn write: the prefix lands, then the "process dies".
                self.inner.put(name, &data[..allowed as usize])?;
                Err(crash("put", name))
            }
        }
    }

    fn put_atomic(&self, name: &str, data: &[u8]) -> Result<()> {
        self.write_gate("put_atomic", name)?;
        match self.take_budget(data.len() as u64) {
            None => self.inner.put_atomic(name, data),
            Some(allowed) if allowed >= data.len() as u64 => self.inner.put_atomic(name, data),
            // All-or-nothing: a crash mid-`put_atomic` leaves no blob.
            Some(_) => Err(crash("put_atomic", name)),
        }
    }

    fn put_exclusive(&self, name: &str, data: &[u8]) -> Result<()> {
        self.write_gate("put_exclusive", name)?;
        match self.take_budget(data.len() as u64) {
            None => self.inner.put_exclusive(name, data),
            Some(allowed) if allowed >= data.len() as u64 => self.inner.put_exclusive(name, data),
            Some(_) => Err(crash("put_exclusive", name)),
        }
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        self.write_gate("rename", from)?;
        if self.fail_renames.load(Ordering::SeqCst) {
            return Err(crash("rename", from));
        }
        self.inner.rename(from, to)
    }

    fn delete(&self, name: &str) -> Result<()> {
        self.write_gate("delete", name)?;
        if self.fail_deletes.load(Ordering::SeqCst) {
            return Err(crash("delete", name));
        }
        self.inner.delete(name)
    }

    fn get(&self, name: &str) -> Result<Vec<u8>> {
        self.read_gate("get", name)?;
        let mut data = self.inner.get(name)?;
        self.maybe_corrupt(&mut data);
        Ok(data)
    }

    fn get_prefix(&self, name: &str, len: usize) -> Result<Vec<u8>> {
        self.read_gate("get_prefix", name)?;
        let mut data = self.inner.get_prefix(name, len)?;
        self.maybe_corrupt(&mut data);
        Ok(data)
    }

    fn get_range(&self, name: &str, offset: u64, len: usize) -> Result<Vec<u8>> {
        self.read_gate("get_range", name)?;
        let mut data = self.inner.get_range(name, offset, len)?;
        self.maybe_corrupt(&mut data);
        Ok(data)
    }

    fn list(&self) -> Result<Vec<String>> {
        self.inner.list()
    }

    fn size(&self, name: &str) -> Result<u64> {
        self.inner.size(name)
    }

    fn exists(&self, name: &str) -> bool {
        self.inner.exists(name)
    }
}

impl<B: StorageBackend> FailingBackend<B> {
    /// Charge `len` bytes against the armed budget. Returns how many of
    /// them may still be written (`None` = all of them).
    fn take_budget(&self, len: u64) -> Option<u64> {
        let mut budget = self.write_budget.lock();
        match *budget {
            None => None,
            Some(left) => {
                let allowed = left.min(len);
                *budget = Some(left - allowed);
                Some(allowed)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;

    #[test]
    fn passthrough_when_disarmed() {
        let b = FailingBackend::new(MemBackend::new());
        b.put("a", &[1, 2, 3]).unwrap();
        b.put_atomic("b", &[4]).unwrap();
        b.rename("b", "c").unwrap();
        assert_eq!(b.get("a").unwrap(), vec![1, 2, 3]);
        assert_eq!(b.get("c").unwrap(), vec![4]);
        b.delete("c").unwrap();
        assert_eq!(b.list().unwrap(), vec!["a"]);
    }

    #[test]
    fn torn_put_leaves_a_prefix() {
        let b = FailingBackend::new(MemBackend::new());
        b.fail_after_write_bytes(4);
        assert!(b.put("x", &[7; 10]).is_err());
        assert_eq!(b.inner().get("x").unwrap(), vec![7; 4]);
        // Budget is exhausted: the next write tears at zero bytes.
        assert!(b.put("y", &[7; 2]).is_err());
        assert_eq!(b.inner().get("y").unwrap(), Vec::<u8>::new());
        b.disarm();
        b.put("x", &[7; 10]).unwrap();
        assert_eq!(b.get("x").unwrap(), vec![7; 10]);
    }

    #[test]
    fn a_crash_after_n_writes_stops_every_later_write() {
        let b = FailingBackend::new(MemBackend::new());
        b.crash_after_writes(2);
        b.put("a", &[1]).unwrap();
        b.rename("a", "b").unwrap();
        let err = b.put("c", &[2]).unwrap_err();
        assert_eq!(injected_fault(&err).unwrap().op, "put");
        assert!(!err.is_transient(), "a dead process does not retry");
        assert!(b.delete("b").is_err());
        assert_eq!(
            b.list().unwrap(),
            vec!["b"],
            "nothing after the crash landed"
        );
        assert_eq!(b.get("b").unwrap(), vec![1], "reads still work");
        b.disarm();
        b.delete("b").unwrap();
    }

    #[test]
    fn atomic_put_never_tears() {
        let b = FailingBackend::new(MemBackend::new());
        b.put_atomic("x", &[1, 2]).unwrap();
        b.fail_after_write_bytes(1);
        assert!(b.put_atomic("x", &[9; 8]).is_err());
        // The old contents survive untouched.
        assert_eq!(b.get("x").unwrap(), vec![1, 2]);
    }

    #[test]
    fn rename_and_delete_failures_leave_state_intact() {
        let b = FailingBackend::new(MemBackend::new());
        b.put("a", &[1]).unwrap();
        b.fail_renames(true);
        assert!(b.rename("a", "b").is_err());
        assert!(b.exists("a") && !b.exists("b"));
        b.fail_deletes(true);
        assert!(b.delete("a").is_err());
        assert!(b.exists("a"));
        b.disarm();
        b.rename("a", "b").unwrap();
        b.delete("b").unwrap();
    }

    #[test]
    fn injected_errors_carry_a_typed_payload() {
        let b = FailingBackend::new(MemBackend::new());
        b.fail_renames(true);
        let err = b.rename("a", "b").unwrap_err();
        let fault = injected_fault(&err).expect("typed payload");
        assert_eq!(fault.op, "rename");
        assert_eq!(fault.name, "a");
        assert!(!fault.transient);
        assert!(!err.is_transient());

        b.disarm();
        b.put("x", &[1]).unwrap();
        b.fail_next_reads(1);
        let err = b.get("x").unwrap_err();
        let fault = injected_fault(&err).expect("typed payload");
        assert_eq!(fault.op, "get");
        assert!(fault.transient);
        assert!(err.is_transient());

        // Organic errors carry no payload.
        let organic = StorageError::corrupt("f", "x");
        assert!(injected_fault(&organic).is_none());

        // The payload survives RetriesExhausted wrapping.
        b.fail_next_reads(1);
        let wrapped = StorageError::RetriesExhausted {
            attempts: 3,
            source: Box::new(b.get("x").unwrap_err()),
        };
        assert_eq!(injected_fault(&wrapped).expect("through wrapper").op, "get");
    }

    #[test]
    fn read_faults_fire_then_clear() {
        let b = FailingBackend::new(MemBackend::new());
        b.put("x", &[1, 2, 3]).unwrap();
        b.fail_next_reads(2);
        assert!(b.get("x").is_err());
        assert_eq!(b.read_faults_remaining(), 1);
        assert!(b.get_range("x", 0, 2).is_err());
        assert_eq!(b.read_faults_remaining(), 0);
        assert_eq!(b.get("x").unwrap(), vec![1, 2, 3]);
        assert_eq!(b.get_prefix("x", 2).unwrap(), vec![1, 2]);
    }

    #[test]
    fn corruption_flips_exactly_one_deterministic_bit() {
        let clean: Vec<u8> = (0..64).collect();
        let run = |seed: u64| {
            let b = FailingBackend::new(MemBackend::new());
            b.put("x", &clean).unwrap();
            b.corrupt_reads(seed);
            (b.get("x").unwrap(), b.get("x").unwrap())
        };
        let (first, second) = run(42);
        let diff = |got: &[u8]| -> u32 {
            got.iter()
                .zip(&clean)
                .map(|(a, b)| (a ^ b).count_ones())
                .sum()
        };
        assert_eq!(diff(&first), 1, "exactly one bit flipped");
        assert_eq!(diff(&second), 1);
        // The state advances, so successive reads corrupt differently
        // (for this seed), while the whole sequence replays exactly.
        let (again_first, again_second) = run(42);
        assert_eq!(first, again_first);
        assert_eq!(second, again_second);
        // Device contents stay pristine; stop_corrupting restores reads.
        let b = FailingBackend::new(MemBackend::new());
        b.put("x", &clean).unwrap();
        b.corrupt_reads(7);
        let _ = b.get("x").unwrap();
        b.stop_corrupting();
        assert_eq!(b.get("x").unwrap(), clean);
        // Empty blobs cannot be corrupted and must not panic.
        b.corrupt_reads(7);
        b.put("e", &[]).unwrap();
        assert_eq!(b.get("e").unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn write_faults_fire_transiently_then_clear() {
        let b = FailingBackend::new(MemBackend::new());
        b.fail_next_writes(3);
        let err = b.put("x", &[1]).unwrap_err();
        assert!(err.is_transient(), "armed write faults are retryable");
        let fault = injected_fault(&err).expect("typed payload");
        assert_eq!(fault.op, "put");
        assert!(fault.transient);
        assert!(!b.exists("x"), "a faulted write leaves no blob");
        assert!(b.put_atomic("x", &[1]).is_err());
        assert_eq!(b.write_faults_remaining(), 1);
        assert!(b.rename("x", "y").is_err());
        assert_eq!(b.write_faults_remaining(), 0);
        // The budget is spent: writes succeed again.
        b.put("x", &[1, 2]).unwrap();
        b.rename("x", "y").unwrap();
        b.delete("y").unwrap();
        // Reads never consume write faults.
        b.put("z", &[9]).unwrap();
        b.fail_next_writes(1);
        assert_eq!(b.get("z").unwrap(), vec![9]);
        assert_eq!(b.write_faults_remaining(), 1);
        b.disarm();
        b.put("w", &[1]).unwrap();
    }

    #[test]
    fn out_of_space_is_persistent_and_permanent() {
        let b = FailingBackend::new(MemBackend::new());
        b.put("x", &[1]).unwrap();
        b.set_out_of_space(true);
        for _ in 0..3 {
            let err = b.put_atomic("y", &[2]).unwrap_err();
            assert!(!err.is_transient(), "ENOSPC never retries clean");
            assert!(!injected_fault(&err).unwrap().transient);
        }
        assert!(b.delete("x").is_err());
        // Reads keep working on a full device.
        assert_eq!(b.get("x").unwrap(), vec![1]);
        b.set_out_of_space(false);
        b.put("y", &[2]).unwrap();
    }

    #[test]
    fn write_latency_is_applied() {
        let b = FailingBackend::new(MemBackend::new());
        b.set_write_latency(Duration::from_millis(5));
        let t0 = std::time::Instant::now();
        b.put("x", &[1]).unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(5));
        b.set_write_latency(Duration::ZERO);
        b.put("x", &[1]).unwrap();
    }

    #[test]
    fn read_latency_is_applied() {
        let b = FailingBackend::new(MemBackend::new());
        b.put("x", &[1]).unwrap();
        b.set_read_latency(Duration::from_millis(5));
        let t0 = std::time::Instant::now();
        b.get("x").unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(5));
        b.set_read_latency(Duration::ZERO);
        b.get("x").unwrap();
    }
}
