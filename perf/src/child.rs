//! Runs one child process to completion and measures it: wall time from
//! spawn to exit, and the child's peak resident set (`VmHWM`, from
//! `wait4`'s resource usage). The benchmark runs one child at a time, so
//! each timed repetition starts cold.

use std::io::{Read, Write};
use std::os::raw::{c_int, c_long};
use std::process::{Command, Stdio};
use std::time::Instant;

#[repr(C)]
struct Timeval {
    _sec: c_long,
    _usec: c_long,
}

/// `struct rusage` on Linux: two timevals, then fourteen longs of which
/// the first is `ru_maxrss` (KiB).
#[repr(C)]
struct Rusage {
    _utime: Timeval,
    _stime: Timeval,
    maxrss: c_long,
    _rest: [c_long; 13],
}

extern "C" {
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut Rusage) -> c_int;
}

/// A finished child.
#[derive(Debug, Clone)]
pub struct Finished {
    /// Spawn to exit, seconds.
    pub wall_s: f64,
    /// Peak resident set, KiB.
    pub peak_rss_kb: u64,
    /// Exited with status 0 (not killed by a signal).
    pub ok: bool,
    pub stdout: String,
}

/// Reaps `pid`, returning its raw wait status and resource usage.
fn reap(pid: c_int) -> std::io::Result<(c_int, Rusage)> {
    let mut status: c_int = 0;
    let mut usage = Rusage {
        _utime: Timeval { _sec: 0, _usec: 0 },
        _stime: Timeval { _sec: 0, _usec: 0 },
        maxrss: 0,
        _rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `usage` are live, writable and laid out as
        // the kernel's `int` and `struct rusage` (see `Rusage`); `pid` is a
        // child of this process that nothing else waits for.
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            return Ok((status, usage));
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// Spawns `cmd` with `stdin` as its input, collects its standard output,
/// and waits for it to exit. Standard error passes through.
///
/// # Errors
/// Fails when the child cannot be spawned or reaped.
pub fn run(cmd: &mut Command, stdin: &str) -> std::io::Result<Finished> {
    let t = Instant::now();
    let mut child = cmd
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()?;
    let pid = c_int::try_from(child.id()).map_err(std::io::Error::other)?;
    let mut input = child.stdin.take().expect("stdin was piped");
    let mut output = child.stdout.take().expect("stdout was piped");
    let text = stdin.to_string();
    // Feed stdin from a thread so a child that writes before it has read
    // everything cannot deadlock against us.
    let feeder = std::thread::spawn(move || input.write_all(text.as_bytes()));
    let mut stdout = String::new();
    let read = output.read_to_string(&mut stdout);
    drop(output);
    // A child that exits without reading all of its input makes the
    // feeder see a broken pipe; the exit status reports the failure.
    let _ = feeder.join();
    let (status, usage) = reap(pid)?;
    let wall_s = t.elapsed().as_secs_f64();
    // `child` was reaped above; dropping it neither waits nor kills.
    drop(child);
    read?;
    let exited = status & 0x7f == 0;
    Ok(Finished {
        wall_s,
        peak_rss_kb: u64::try_from(usage.maxrss).unwrap_or(0),
        ok: exited && (status >> 8) & 0xff == 0,
        stdout,
    })
}
