//! Host-speed calibration.
//!
//! Raw wall time on the bench host is not repeatable: co-tenants move the
//! same binary by 15-25 % between back-to-back runs. Every CPU-bound
//! timing the benchmark reports is therefore expressed in
//! *reference-host seconds*: a calibration kernel runs before and after
//! every timed segment, and a segment's cost is
//! `seg_wall_s x mean(rate_before, rate_after) / reference_rate`.
//!
//! There are two kernels, because the host slows down in two independent
//! ways and a workload only feels the one that matches its working set:
//!
//! * [`Kernel::Cache`]: a dependent read-modify-write walk over 256 KiB
//!   (inside L2). It follows clock and core-sharing changes, which is what
//!   the 8x8 simulations feel. Normalising a 64x64 run with it made the
//!   run *less* repeatable (20 % against 8 % raw).
//! * [`Kernel::Memory`]: the same walk over 64 MiB (last-level cache and
//!   DRAM latency). It follows memory-system contention, which is what a
//!   90 MiB working set feels. Its buffer lives in a helper process — a
//!   child of this binary — so that it does not count towards the
//!   workload's `peak_rss_mib`.
//!
//! The kernels are owned by the benchmark and must never change silently:
//! their checksums are pinned, and a kernel that does not reproduce its
//! checksum aborts the run.

use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

/// Which calibration kernel normalises a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// 256 KiB walk, in this process.
    Cache,
    /// 64 MiB walk, in a helper process.
    Memory,
}

impl Kernel {
    /// Buffer length in 64-bit words.
    const fn words(self) -> usize {
        match self {
            Kernel::Cache => 32 * 1024,
            Kernel::Memory => 8 * 1024 * 1024,
        }
    }

    /// Iterations of one kernel run (a few milliseconds either way).
    const fn iters(self) -> u64 {
        match self {
            Kernel::Cache => 1 << 19,
            Kernel::Memory => 1 << 15,
        }
    }

    /// What [`walk`] returns for one run over a freshly [`fill`]ed buffer.
    const fn checksum(self) -> u64 {
        match self {
            Kernel::Cache => 7_739_388_960_948_338_458,
            Kernel::Memory => 11_767_505_724_032_513_686,
        }
    }

    /// Kernel rate (million iterations per second) of the reference
    /// host: the median reading on the host this benchmark was defined
    /// on. A normalised second is a second on a host that runs the kernel
    /// at exactly this rate.
    const fn reference_mops(self) -> f64 {
        match self {
            Kernel::Cache => 185.0,
            Kernel::Memory => 5.5,
        }
    }

    /// The factor that turns a wall-clock duration measured between two
    /// readings of this kernel into reference-host seconds.
    pub fn factor(self, before: f64, after: f64) -> f64 {
        (before + after) / 2.0 / self.reference_mops()
    }
}

/// Kernel runs per reading; the fastest one is the reading, so a
/// preemption inside one run does not pass for a slow host.
const RUNS_PER_READING: usize = 3;

/// The first argument that makes this binary a calibration helper.
pub const HELPER_COMMAND: &str = "calib-helper";

/// Fills a calibration buffer with its fixed starting pattern.
fn fill(buf: &mut [u64]) {
    for (i, w) in buf.iter_mut().enumerate() {
        *w = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// The calibration kernel: an xorshift-indexed read-modify-write walk
/// over `buf` (a power-of-two number of words). Every load address
/// depends on the previous load (through `acc`), so the walk is a latency
/// chain the compiler can neither vectorise nor hoist, and the returned
/// checksum depends on every value loaded.
fn walk(buf: &mut [u64], iters: u64) -> u64 {
    assert!(buf.len().is_power_of_two());
    let mask = buf.len() - 1;
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut acc = 0u64;
    for _ in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = ((x ^ acc) as usize) & mask;
        let v = buf[i];
        buf[i] = v.rotate_left(5) ^ x;
        acc = acc.wrapping_add(v);
    }
    acc
}

/// One reading over `buf`: the best rate of a few runs, Mops/s.
fn best_rate(buf: &mut [u64], iters: u64) -> f64 {
    let mut best = 0.0f64;
    for _ in 0..RUNS_PER_READING {
        let t = Instant::now();
        black_box(walk(black_box(buf), black_box(iters)));
        best = best.max(iters as f64 / t.elapsed().as_secs_f64() / 1e6);
    }
    best
}

/// A filled buffer for `kernel`, checked against the pinned checksum.
///
/// # Panics
///
/// Panics if the first walk does not reproduce the checksum: the kernel
/// was edited or miscompiled, and every normalised number would be wrong.
fn checked_buffer(kernel: Kernel) -> Vec<u64> {
    let mut buf = vec![0u64; kernel.words()];
    fill(&mut buf);
    let sum = walk(black_box(&mut buf), black_box(kernel.iters()));
    assert_eq!(
        black_box(sum),
        kernel.checksum(),
        "calibration kernel checksum moved: the kernel was edited or miscompiled"
    );
    buf
}

/// The body of the helper process: answers every line on stdin with one
/// [`Kernel::Memory`] reading on stdout, until stdin closes.
///
/// # Errors
///
/// I/O errors on the pipes.
pub fn helper_main() -> std::io::Result<()> {
    let mut buf = checked_buffer(Kernel::Memory);
    let mut stdout = std::io::stdout().lock();
    writeln!(stdout, "ready")?;
    stdout.flush()?;
    for line in std::io::stdin().lock().lines() {
        line?;
        writeln!(stdout, "{}", best_rate(&mut buf, Kernel::Memory.iters()))?;
        stdout.flush()?;
    }
    Ok(())
}

#[derive(Debug)]
struct Helper {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl Helper {
    fn spawn() -> std::io::Result<Helper> {
        let mut child = Command::new(std::env::current_exe()?)
            .arg(HELPER_COMMAND)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        // From here on `Drop` reaps the child on every path.
        let mut helper = Helper {
            stdin: child.stdin.take(),
            stdout: BufReader::new(child.stdout.take().expect("piped above")),
            child,
        };
        if helper.line()?.trim() != "ready" {
            return Err(std::io::Error::other(
                "this executable is not a calibration helper",
            ));
        }
        Ok(helper)
    }

    fn line(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        if self.stdout.read_line(&mut line)? == 0 {
            return Err(std::io::Error::other("the calibration helper exited"));
        }
        Ok(line)
    }

    fn read(&mut self) -> std::io::Result<f64> {
        let stdin = self.stdin.as_mut().expect("open until drop");
        stdin.write_all(b"r\n")?;
        stdin.flush()?;
        self.line()?
            .trim()
            .parse()
            .map_err(|e| std::io::Error::other(format!("helper reading: {e}")))
    }
}

impl Drop for Helper {
    fn drop(&mut self) {
        // Closing its stdin ends the helper's loop; a process that is not
        // a helper may ignore that, so it is also killed. Then wait.
        drop(self.stdin.take());
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[derive(Debug)]
enum Source {
    Local(Vec<u64>),
    Remote(Helper),
}

/// The calibrator: takes readings and remembers them, so a run can
/// report how far the host moved while it was measured.
#[derive(Debug)]
pub struct Calib {
    source: Source,
    readings: Vec<f64>,
}

impl Calib {
    /// A calibrator with no readings yet. Spins the cache kernel for a
    /// moment first: a process that has just started runs below its
    /// steady clock, and the first reading would understate the host.
    ///
    /// # Errors
    ///
    /// [`Kernel::Memory`] spawns this executable as its helper; that
    /// fails when the executable is not the benchmark binary.
    pub fn new(kernel: Kernel) -> std::io::Result<Calib> {
        let mut local = checked_buffer(Kernel::Cache);
        let t = Instant::now();
        while t.elapsed().as_millis() < 60 {
            black_box(walk(
                black_box(&mut local),
                black_box(Kernel::Cache.iters()),
            ));
        }
        Ok(Calib {
            source: match kernel {
                Kernel::Cache => Source::Local(local),
                Kernel::Memory => Source::Remote(Helper::spawn()?),
            },
            readings: Vec::new(),
        })
    }

    /// Takes one reading: the kernel rate in Mops/s.
    ///
    /// # Panics
    ///
    /// Panics if the helper process is gone: the run cannot be
    /// normalised any more.
    pub fn read(&mut self) -> f64 {
        let rate = match &mut self.source {
            Source::Local(buf) => best_rate(buf, Kernel::Cache.iters()),
            Source::Remote(helper) => helper.read().expect("calibration helper"),
        };
        self.readings.push(rate);
        rate
    }

    /// Median reading, Mops/s (0 before the first reading).
    pub fn median_mops(&self) -> f64 {
        crate::stats::median(&self.readings)
    }

    /// `(max - min) / median` of the readings, in percent: how far the
    /// host's speed moved during the run. A large value means the host
    /// was too noisy for the normalisation to be trusted.
    pub fn spread_pct(&self) -> f64 {
        let med = self.median_mops();
        if med == 0.0 {
            return 0.0;
        }
        let max = self.readings.iter().cloned().fold(f64::MIN, f64::max);
        let min = self.readings.iter().cloned().fold(f64::MAX, f64::min);
        (max - min) / med * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first_walk(kernel: Kernel, iters: u64) -> u64 {
        let mut buf = vec![0u64; kernel.words()];
        fill(&mut buf);
        walk(&mut buf, iters)
    }

    #[test]
    fn checksums_are_pinned() {
        for kernel in [Kernel::Cache, Kernel::Memory] {
            assert_eq!(
                first_walk(kernel, kernel.iters()),
                kernel.checksum(),
                "{kernel:?}"
            );
            // A different iteration count is different work.
            assert_ne!(first_walk(kernel, kernel.iters() / 2), kernel.checksum());
        }
    }

    #[test]
    fn time_grows_linearly_with_iterations() {
        // black_box is a hint: confirm the work is really done by timing
        // 1x against 4x iterations (best of several, to shed preemption).
        let mut buf = vec![0u64; Kernel::Cache.words()];
        fill(&mut buf);
        let mut best = |iters: u64| {
            (0..7)
                .map(|_| {
                    let t = Instant::now();
                    black_box(walk(black_box(&mut buf), black_box(iters)));
                    t.elapsed().as_secs_f64()
                })
                .fold(f64::MAX, f64::min)
        };
        let one = best(Kernel::Cache.iters());
        let four = best(Kernel::Cache.iters() * 4);
        let ratio = four / one;
        assert!(
            (3.0..5.5).contains(&ratio),
            "4x the iterations took {ratio:.2}x the time"
        );
    }

    #[test]
    fn factor_is_one_on_the_reference_host() {
        for k in [Kernel::Cache, Kernel::Memory] {
            let r = k.reference_mops();
            assert!((k.factor(r, r) - 1.0).abs() < 1e-12);
            assert!(k.factor(2.0 * r, 2.0 * r) > 1.99);
        }
    }
}
