//! A reference operation, timed between the workload's requests, that
//! shows how fast the host runs at the moment. It uses the standard
//! library only, so no change to the program moves it: one round trip
//! over loopback TCP to a thread of its own, which parses a fixed frame
//! of decimal floats (the wire's number format) and answers with their
//! sum.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::Instant;

/// Floats in the reference frame.
const FLOATS: usize = 2048;

pub struct Reference {
    stream: TcpStream,
    reply: BufReader<TcpStream>,
    frame: Vec<u8>,
    expect: String,
    worker: Option<JoinHandle<()>>,
}

impl Reference {
    pub fn start() -> std::io::Result<Reference> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let stream = TcpStream::connect(listener.local_addr()?)?;
        let (peer, _) = listener.accept()?;
        stream.set_nodelay(true)?;
        peer.set_nodelay(true)?;
        let worker = std::thread::spawn(move || serve(peer));
        let numbers: Vec<String> = (0..FLOATS)
            .map(|i| format!("{:?}", (i as f64 * 0.618_033_988_75).sin() * 1e3))
            .collect();
        let expect = format!("{:?}\n", sum(numbers.iter().map(String::as_str)));
        let mut frame = numbers.join(" ").into_bytes();
        frame.push(b'\n');
        Ok(Reference {
            reply: BufReader::new(stream.try_clone()?),
            stream,
            frame,
            expect,
            worker: Some(worker),
        })
    }

    /// Times one reference operation, in µs, and checks its answer.
    pub fn time_us(&mut self) -> std::io::Result<f64> {
        let start = Instant::now();
        self.stream.write_all(&self.frame)?;
        let mut line = String::new();
        self.reply.read_line(&mut line)?;
        let us = start.elapsed().as_secs_f64() * 1e6;
        if line != self.expect {
            return Err(std::io::Error::other(format!(
                "reference answered `{}`",
                line.trim_end()
            )));
        }
        Ok(us)
    }
}

impl Drop for Reference {
    fn drop(&mut self) {
        // The worker sees end of file and returns.
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

fn sum<'a>(numbers: impl Iterator<Item = &'a str>) -> f64 {
    numbers.map(|n| n.parse::<f64>().unwrap_or(f64::NAN)).sum()
}

fn serve(peer: TcpStream) {
    let Ok(mut out) = peer.try_clone() else {
        return;
    };
    let mut input = BufReader::new(peer);
    let mut line = Vec::new();
    loop {
        line.clear();
        match input.by_ref().read_until(b'\n', &mut line) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        let text = std::str::from_utf8(&line).unwrap_or("");
        let answer = format!("{:?}\n", sum(text.split_whitespace()));
        if out.write_all(answer.as_bytes()).is_err() {
            return;
        }
    }
}
