//! Fixed host-speed references, timed next to the work they stand for.
//!
//! On a shared virtual machine the speed of the same code switches between
//! states for tens of seconds at a time: a decomposition of the video
//! workload takes 3.5 s in one minute and 5 s in the next, and the server's
//! saturated throughput moves by a third, while the program and its input
//! stay the same. Each reference here is the benchmark's own code and calls
//! nothing in the library, so no change to the library moves it; a figure
//! divided by the reference timed in the same run keeps the program's speed
//! and cancels the host's.
//!
//! [`time`] stands for the decomposition. It makes the same kind of
//! accesses as the decomposition — a strided gather of the whole input into
//! a fresh buffer, then one tall-skinny sketch product per slice.
//! [`loopback_time`] stands for the server: small messages over a loopback
//! TCP connection between two polling threads, the syscalls and network
//! stack every served request goes through.

use dtucker::DenseTensor;
use std::hint::black_box;
use std::time::Instant;

/// Width of the sketch each slice is multiplied by (rank 10 plus the
/// library's default oversampling).
const SKETCH: usize = 20;

/// Fewest input elements one timing passes over: a smaller input is passed
/// over several times, so the timing is long enough (about a second) to
/// steady it.
const MIN_ELEMENTS: usize = 50_000_000;

/// Seconds the reference takes on `x`, viewed as `I₁ × I₂ × (the rest)`:
/// as many passes as it takes to cover [`MIN_ELEMENTS`].
pub fn time(x: &DenseTensor) -> f64 {
    let passes = MIN_ELEMENTS.div_ceil(x.numel().max(1));
    let t0 = Instant::now();
    for _ in 0..passes {
        black_box(pass(x.as_slice(), x.shape()));
    }
    t0.elapsed().as_secs_f64()
}

/// Gathers `x` slice-major (reading mode 1 with stride `I₁`), then
/// multiplies every `I₁ × I₂` slice by a fixed `I₂ × SKETCH` matrix.
/// Returns a checksum so the work cannot be dropped.
fn pass(x: &[f64], shape: &[usize]) -> f64 {
    let (rows, cols) = (shape[0], shape.get(1).copied().unwrap_or(1));
    let depth = x.len() / (rows * cols).max(1);
    let mut gathered = Vec::with_capacity(x.len());
    for c in 0..depth {
        for a in 0..rows {
            gathered.extend((0..cols).map(|b| x[a + rows * (b + cols * c)]));
        }
    }
    let omega: Vec<f64> = (0..cols * SKETCH)
        .map(|i| ((i * 7919) % 1000) as f64 * 1e-3)
        .collect();
    let mut y = vec![0.0; rows * SKETCH];
    let mut sum = 0.0;
    for slice in gathered.chunks_exact(rows * cols) {
        y.fill(0.0);
        for (a, row) in slice.chunks_exact(cols).enumerate() {
            let out = &mut y[a * SKETCH..(a + 1) * SKETCH];
            for (&v, o) in row.iter().zip(omega.chunks_exact(SKETCH)) {
                for (yj, oj) in out.iter_mut().zip(o) {
                    *yj += v * oj;
                }
            }
        }
        sum += y[0] + y[y.len() - 1];
    }
    sum
}

/// Round trips one loopback ping-pong timing makes.
pub const ROUND_TRIPS: usize = 20_000;
/// Stretches the round trips are timed in; the median stretch stands for
/// them all, so a stall of a few milliseconds skews one stretch only.
const STRETCHES: usize = 5;

/// Seconds [`ROUND_TRIPS`] 256-byte round trips over a loopback TCP
/// connection take between two threads of this process (the median of
/// [`STRETCHES`] stretches, scaled to the whole). Both ends poll
/// nonblocking sockets, as the busy server and generator do, so the
/// figure is the cost of the syscalls and the network stack rather than
/// of waking an idle virtual CPU.
pub fn loopback_time() -> std::io::Result<f64> {
    let listener = std::net::TcpListener::bind(("127.0.0.1", 0))?;
    let addr = listener.local_addr()?;
    std::thread::scope(|s| {
        let echo = s.spawn(move || -> std::io::Result<()> {
            let (mut conn, _) = listener.accept()?;
            conn.set_nodelay(true)?;
            conn.set_nonblocking(true)?;
            let mut buf = [0u8; 256];
            for _ in 0..ROUND_TRIPS {
                poll_read(&mut conn, &mut buf)?;
                poll_write(&mut conn, &buf)?;
            }
            Ok(())
        });
        let mut conn = std::net::TcpStream::connect(addr)?;
        conn.set_nodelay(true)?;
        conn.set_nonblocking(true)?;
        let mut buf = [7u8; 256];
        let mut stretches = Vec::with_capacity(STRETCHES);
        for _ in 0..STRETCHES {
            let t0 = Instant::now();
            for _ in 0..ROUND_TRIPS / STRETCHES {
                poll_write(&mut conn, &buf)?;
                poll_read(&mut conn, &mut buf)?;
            }
            stretches.push(t0.elapsed().as_secs_f64());
        }
        echo.join()
            .map_err(|_| std::io::Error::other("echo thread panicked"))??;
        Ok(crate::stats::median(&stretches) * STRETCHES as f64)
    })
}

/// Fills `buf` from a nonblocking stream, yielding while nothing is there.
fn poll_read(conn: &mut std::net::TcpStream, buf: &mut [u8]) -> std::io::Result<()> {
    use std::io::{ErrorKind, Read};
    let mut got = 0;
    while got < buf.len() {
        match conn.read(&mut buf[got..]) {
            Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::yield_now(),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Writes all of `buf` to a nonblocking stream, yielding while it is full.
fn poll_write(conn: &mut std::net::TcpStream, buf: &[u8]) -> std::io::Result<()> {
    use std::io::{ErrorKind, Write};
    let mut sent = 0;
    while sent < buf.len() {
        match conn.write(&buf[sent..]) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => sent += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::yield_now(),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sketches_every_slice_of_the_gathered_input() {
        // 2 × 3 × 2 tensor, first index fastest: value = its own offset.
        let x: Vec<f64> = (0..12).map(f64::from).collect();
        // Slice c, row a holds x[a + 2(b + 3c)] for b = 0..3; the checksum
        // adds the first and last sketch entries of every slice.
        let omega = |b: usize, j: usize| ((b * SKETCH + j) * 7919 % 1000) as f64 * 1e-3;
        let mut want = 0.0;
        for c in 0..2 {
            for (a, j) in [(0, 0), (1, SKETCH - 1)] {
                want += (0..3)
                    .map(|b| x[a + 2 * (b + 3 * c)] * omega(b, j))
                    .sum::<f64>();
            }
        }
        let got = pass(&x, &[2, 3, 2]);
        assert!((got - want).abs() < 1e-12, "{got} vs {want}");
    }

    #[test]
    fn loopback_round_trips_complete() {
        let secs = loopback_time().unwrap();
        assert!(secs > 0.0 && secs.is_finite());
    }
}
