//! Striped storage — the Lustre-style parallelism of the paper's testbed.
//!
//! Lustre stripes each file across object storage targets (OSTs) so one
//! client's write streams to several devices at once. [`StripedBackend`]
//! reproduces that: a blob is cut into `stripe_size` chunks dealt
//! round-robin over N inner devices, and per-device transfers run on
//! their own OS threads — so device time (e.g. [`SimulatedDisk`] sleeps)
//! overlaps exactly like parallel OST traffic, independent of CPU count.
//!
//! [`SimulatedDisk`]: crate::backend::SimulatedDisk

use crate::backend::StorageBackend;
use crate::error::{Result, StorageError};

/// A blob store striped over several inner devices.
pub struct StripedBackend<B> {
    devices: Vec<B>,
    stripe_size: usize,
}

impl<B: StorageBackend> StripedBackend<B> {
    /// Stripe over the given devices with `stripe_size`-byte chunks.
    pub fn new(devices: Vec<B>, stripe_size: usize) -> Self {
        assert!(!devices.is_empty(), "at least one device");
        assert!(stripe_size > 0, "stripe size must be positive");
        StripedBackend {
            devices,
            stripe_size,
        }
    }

    /// Access the inner devices (e.g. for per-OST statistics).
    pub fn devices(&self) -> &[B] {
        &self.devices
    }

    /// How many bytes of a `total`-byte blob land on device `d`.
    fn part_len(&self, total: usize, d: usize) -> usize {
        let s = self.stripe_size;
        let n = self.devices.len();
        let full_rounds = total / (s * n);
        let mut len = full_rounds * s;
        let rem = total - full_rounds * s * n;
        // The remainder fills devices 0.. in order.
        let start = d * s;
        if rem > start {
            len += (rem - start).min(s);
        }
        len
    }

    /// Deal `data` over the devices: each device's part is its chunks,
    /// concatenated.
    fn split(&self, data: &[u8]) -> Vec<Vec<u8>> {
        let n = self.devices.len();
        let mut parts: Vec<Vec<u8>> = (0..n)
            .map(|d| Vec::with_capacity(self.part_len(data.len(), d)))
            .collect();
        for (j, chunk) in data.chunks(self.stripe_size).enumerate() {
            parts[j % n].extend_from_slice(chunk);
        }
        parts
    }

    /// Run `op` for every device, each on its own OS thread so device
    /// time overlaps like parallel OST traffic, and return the results
    /// in device order. Every thread is joined before the first error is
    /// returned; a device call that panicked comes back as an I/O error
    /// naming the device and `what` it was doing.
    fn per_device<T: Send>(
        &self,
        what: &str,
        op: impl Fn(usize, &B) -> Result<T> + Sync,
    ) -> Result<Vec<T>> {
        let op = &op;
        let results: Vec<Result<T>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (self.devices.iter().enumerate())
                .map(|(d, dev)| scope.spawn(move || op(d, dev)))
                .collect();
            (handles.into_iter().enumerate())
                .map(|(d, handle)| {
                    handle.join().unwrap_or_else(|_| {
                        Err(StorageError::Io(std::io::Error::other(format!(
                            "stripe device {d} panicked during {what}"
                        ))))
                    })
                })
                .collect()
        });
        results.into_iter().collect()
    }
}

impl<B: StorageBackend> StorageBackend for StripedBackend<B> {
    fn kind_name(&self) -> &'static str {
        "striped"
    }

    fn put(&self, name: &str, data: &[u8]) -> Result<()> {
        let parts = self.split(data);
        self.per_device("put", |d, dev| dev.put(name, &parts[d]))?;
        Ok(())
    }

    fn put_atomic(&self, name: &str, data: &[u8]) -> Result<()> {
        // Atomic per device: each OST flips its part in one step. The
        // cross-device cut-over is not atomic — the engine's staged
        // commit (temp name + rename) provides the store-level guarantee.
        let parts = self.split(data);
        self.per_device("put_atomic", |d, dev| dev.put_atomic(name, &parts[d]))?;
        Ok(())
    }

    fn put_exclusive(&self, name: &str, data: &[u8]) -> Result<()> {
        // Device 0 arbitrates the claim: its exclusive create either wins
        // the name for the whole stripe set or rejects the put before any
        // other device is touched.
        let parts = self.split(data);
        self.devices[0].put_exclusive(name, &parts[0])?;
        for (dev, part) in self.devices.iter().zip(&parts).skip(1) {
            dev.put_atomic(name, part)?;
        }
        Ok(())
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        // Metadata-only on every device; device order matches `put`'s
        // part order so a partially renamed blob is detected by `get`'s
        // part-length validation rather than silently reassembled.
        for dev in &self.devices {
            dev.rename(from, to)?;
        }
        Ok(())
    }

    fn get(&self, name: &str) -> Result<Vec<u8>> {
        let n = self.devices.len();
        let s = self.stripe_size;
        let parts = self.per_device("get", |_, dev| dev.get(name))?;
        let total: usize = parts.iter().map(Vec::len).sum();
        // Validate the parts form a consistent striping of `total` bytes.
        for (d, part) in parts.iter().enumerate() {
            if part.len() != self.part_len(total, d) {
                return Err(StorageError::corrupt(
                    name,
                    format!("device {d} part has inconsistent length"),
                ));
            }
        }
        let mut out = Vec::with_capacity(total);
        let mut offsets = vec![0usize; n];
        let mut j = 0usize;
        while out.len() < total {
            let d = j % n;
            let lo = offsets[d];
            let hi = (lo + s).min(parts[d].len());
            out.extend_from_slice(&parts[d][lo..hi]);
            offsets[d] = hi;
            j += 1;
        }
        Ok(out)
    }

    fn get_prefix(&self, name: &str, len: usize) -> Result<Vec<u8>> {
        // Read only the devices/chunks the prefix touches.
        let n = self.devices.len();
        let s = self.stripe_size;
        let chunks_needed = len.div_ceil(s).max(1);
        let mut per_dev = vec![0usize; n];
        for j in 0..chunks_needed {
            per_dev[j % n] += s;
        }
        let parts = self.per_device("get_prefix", |d, dev| match per_dev[d] {
            0 => Ok(Vec::new()),
            want => dev.get_prefix(name, want),
        })?;
        let mut out = Vec::with_capacity(len);
        let mut offsets = vec![0usize; n];
        let mut j = 0usize;
        while out.len() < len {
            let d = j % n;
            let lo = offsets[d];
            if lo >= parts[d].len() {
                break; // blob shorter than the requested prefix
            }
            let hi = (lo + s).min(parts[d].len());
            out.extend_from_slice(&parts[d][lo..hi]);
            offsets[d] = hi;
            j += 1;
        }
        out.truncate(len);
        Ok(out)
    }

    fn get_range(&self, name: &str, offset: u64, len: usize) -> Result<Vec<u8>> {
        if len == 0 {
            return Ok(Vec::new());
        }
        let n = self.devices.len();
        let s = self.stripe_size;
        let offset = offset as usize;
        // Global chunks touched by the window; chunk j lives on device
        // j % n at device-local offset (j / n) * s, so the chunks one
        // device owns within [j0, j1] form one contiguous local window.
        let j0 = offset / s;
        let j1 = (offset + len - 1) / s;
        let mut windows: Vec<Option<(usize, usize, usize)>> = vec![None; n];
        for (d, window) in windows.iter_mut().enumerate() {
            let jmin = j0 + (d + n - j0 % n) % n;
            if jmin > j1 {
                continue;
            }
            let jmax = j1 - (j1 % n + n - d) % n;
            let local_start = (jmin / n) * s;
            let local_end = (jmax / n) * s + s;
            *window = Some((jmin, local_start, local_end - local_start));
        }
        let parts = self.per_device("get_range", |d, dev| match windows[d] {
            None => Ok(Vec::new()),
            Some((_, lo, want)) => dev.get_range(name, lo as u64, want),
        })?;
        // Reassemble the covered chunks in global order; a short or missing
        // chunk means the blob ends inside the window.
        let mut out = Vec::with_capacity((j1 - j0 + 1) * s);
        for j in j0..=j1 {
            let d = j % n;
            let Some((jmin, _, _)) = windows[d] else {
                break;
            };
            let rel = (j / n - jmin / n) * s;
            let part = &parts[d];
            if rel >= part.len() {
                break;
            }
            let hi = (rel + s).min(part.len());
            out.extend_from_slice(&part[rel..hi]);
            if hi - rel < s {
                break;
            }
        }
        // `out` starts at global offset j0 * s; cut the requested window.
        let skip = (offset - j0 * s).min(out.len());
        let end = (offset - j0 * s + len).min(out.len());
        Ok(out[skip..end].to_vec())
    }

    fn list(&self) -> Result<Vec<String>> {
        self.devices[0].list()
    }

    fn size(&self, name: &str) -> Result<u64> {
        let mut total = 0;
        for dev in &self.devices {
            total += dev.size(name)?;
        }
        Ok(total)
    }

    fn delete(&self, name: &str) -> Result<()> {
        for dev in &self.devices {
            dev.delete(name)?;
        }
        Ok(())
    }

    fn exists(&self, name: &str) -> bool {
        self.devices[0].exists(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{MemBackend, SimulatedDisk};
    use std::time::{Duration, Instant};

    fn striped_mem(n: usize, stripe: usize) -> StripedBackend<MemBackend> {
        StripedBackend::new((0..n).map(|_| MemBackend::new()).collect(), stripe)
    }

    #[test]
    fn a_panicking_device_call_is_a_typed_error() {
        let b = striped_mem(3, 4);
        let err = b
            .per_device("probe", |d, _| match d {
                1 => panic!("device 1 fails"),
                _ => Ok(d),
            })
            .unwrap_err();
        assert!(matches!(err, StorageError::Io(_)), "{err}");
        assert!(!err.is_transient());
        assert!(err
            .to_string()
            .contains("stripe device 1 panicked during probe"));
        assert_eq!(b.per_device("probe", |d, _| Ok(d)).unwrap(), [0, 1, 2]);
    }

    #[test]
    fn roundtrip_various_sizes_and_stripe_counts() {
        for n in [1usize, 2, 3, 5] {
            for stripe in [1usize, 3, 8] {
                let b = striped_mem(n, stripe);
                for len in [0usize, 1, 7, 8, 9, 64, 100] {
                    let data: Vec<u8> = (0..len as u32).map(|x| x as u8).collect();
                    b.put("blob", &data).unwrap();
                    assert_eq!(b.get("blob").unwrap(), data, "n={n} s={stripe} len={len}");
                    assert_eq!(b.size("blob").unwrap(), len as u64);
                    for plen in [0usize, 1, stripe, stripe + 1, len, len + 5] {
                        let want: Vec<u8> = data.iter().copied().take(plen).collect();
                        assert_eq!(
                            b.get_prefix("blob", plen).unwrap(),
                            want,
                            "prefix n={n} s={stripe} len={len} plen={plen}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn range_reads_match_whole_blob_slicing() {
        for n in [1usize, 2, 3, 5] {
            for stripe in [1usize, 3, 8] {
                let b = striped_mem(n, stripe);
                let data: Vec<u8> = (0..100u32).map(|x| x as u8).collect();
                b.put("blob", &data).unwrap();
                for offset in [0usize, 1, 3, 8, 9, 24, 99, 100, 120] {
                    for len in [0usize, 1, 2, 7, 8, 9, 50, 100, 200] {
                        let start = offset.min(data.len());
                        let end = (offset + len).min(data.len());
                        assert_eq!(
                            b.get_range("blob", offset as u64, len).unwrap(),
                            &data[start..end],
                            "n={n} s={stripe} offset={offset} len={len}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn contract_basics() {
        let b = striped_mem(3, 4);
        b.put("a", &[1; 10]).unwrap();
        b.put("b", &[2; 3]).unwrap();
        assert_eq!(b.list().unwrap(), vec!["a", "b"]);
        assert!(b.exists("a"));
        b.delete("a").unwrap();
        assert!(!b.exists("a"));
        assert!(b.get("a").is_err());
    }

    #[test]
    fn commit_primitives_stripe_consistently() {
        for n in [1usize, 2, 3] {
            let b = striped_mem(n, 4);
            let data: Vec<u8> = (0..23).collect();
            b.put_atomic("x", &data).unwrap();
            assert_eq!(b.get("x").unwrap(), data);
            b.rename("x", "y").unwrap();
            assert!(!b.exists("x"));
            assert_eq!(b.get("y").unwrap(), data);
            // Exclusive create: first claim wins, the rest are rejected
            // before any device's part changes.
            b.put_exclusive("z", &data).unwrap();
            assert!(b
                .put_exclusive("z", &[9; 30])
                .unwrap_err()
                .is_already_exists());
            assert_eq!(b.get("z").unwrap(), data);
        }
    }

    #[test]
    fn range_reads_transfer_fewer_device_bytes_than_whole_gets() {
        // The satellite regression: a striped range read must hit only
        // the devices (and only the windows) the byte range maps to, not
        // fall back to assembling the whole blob. Asserted through the
        // per-OST `bytes_read` accounting.
        let mk = || SimulatedDisk::new(1e12, Duration::ZERO);
        let b = StripedBackend::new((0..4).map(|_| mk()).collect(), 16);
        let data: Vec<u8> = (0..4096u32).map(|x| x as u8).collect();
        b.put("blob", &data).unwrap();

        let device_bytes = |b: &StripedBackend<SimulatedDisk>| -> u64 {
            b.devices().iter().map(|d| d.bytes_read()).sum()
        };

        let before = device_bytes(&b);
        let window = b.get_range("blob", 100, 50).unwrap();
        assert_eq!(window, &data[100..150]);
        let ranged = device_bytes(&b) - before;

        let before = device_bytes(&b);
        let _ = b.get("blob").unwrap();
        let whole = device_bytes(&b) - before;

        assert_eq!(whole, data.len() as u64);
        // The 50-byte window spans at most 4 chunks of 16 bytes + stripe
        // rounding — far below the 4096-byte blob.
        assert!(
            ranged < whole && ranged <= 5 * 16,
            "ranged read transferred {ranged} bytes vs whole {whole}"
        );

        // Prefix reads are windowed the same way.
        let before = device_bytes(&b);
        let head = b.get_prefix("blob", 40).unwrap();
        assert_eq!(head, &data[..40]);
        let prefixed = device_bytes(&b) - before;
        assert!(prefixed < whole && prefixed <= 3 * 16, "{prefixed}");
    }

    #[test]
    fn chunks_are_distributed_round_robin() {
        let b = striped_mem(2, 4);
        let data: Vec<u8> = (0..12).collect();
        b.put("x", &data).unwrap();
        assert_eq!(
            b.devices()[0].get("x").unwrap(),
            vec![0, 1, 2, 3, 8, 9, 10, 11]
        );
        assert_eq!(b.devices()[1].get("x").unwrap(), vec![4, 5, 6, 7]);
    }

    #[test]
    fn striping_overlaps_device_time() {
        // 4 devices at 10 MiB/s each: a 1 MiB blob takes ≈100 ms unstriped
        // but ≈25 ms striped (each device moves ¼ of the bytes in
        // parallel). Generous margins keep this robust on loaded hosts.
        let mk = || SimulatedDisk::new(10.0 * (1 << 20) as f64, Duration::ZERO);
        let data = vec![7u8; 1 << 20];

        let single = mk();
        let t0 = Instant::now();
        single.put("blob", &data).unwrap();
        let unstriped = t0.elapsed();

        let striped = StripedBackend::new((0..4).map(|_| mk()).collect(), 1 << 16);
        let t0 = Instant::now();
        striped.put("blob", &data).unwrap();
        let striped_t = t0.elapsed();

        assert!(
            striped_t.as_secs_f64() < unstriped.as_secs_f64() * 0.6,
            "striped {striped_t:?} vs unstriped {unstriped:?}"
        );
        // All bytes accounted for across the OSTs.
        let total: u64 = striped.devices().iter().map(|d| d.bytes_written()).sum();
        assert_eq!(total, data.len() as u64);
    }

    #[test]
    fn engine_runs_on_a_striped_backend() {
        use crate::engine::StorageEngine;
        use artsparse_core::FormatKind;
        use artsparse_tensor::{CoordBuffer, Shape};

        let backend = striped_mem(3, 16);
        let engine = StorageEngine::open(
            backend,
            FormatKind::GcsrPP,
            Shape::new(vec![32, 32]).unwrap(),
            8,
        )
        .unwrap();
        let coords = CoordBuffer::from_points(2, &[[1u64, 2], [30, 31], [5, 5]]).unwrap();
        engine
            .write_points::<f64>(&coords, &[1.0, 2.0, 3.0])
            .unwrap();
        assert_eq!(
            engine.read_values::<f64>(&coords).unwrap(),
            vec![Some(1.0), Some(2.0), Some(3.0)]
        );
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn zero_devices_panics() {
        StripedBackend::<MemBackend>::new(vec![], 8);
    }
}
