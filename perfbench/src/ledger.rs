//! Per-phase operation accounting: every request the benchmark sends is
//! attempted once and ends succeeded, failed (transport or protocol
//! error), refused (a typed server error) or wrong (an answer of the
//! wrong kind or value). Backpressure hand-backs are retried in order
//! and counted apart; they are not failures.

use sofia_net::ClientError;

#[derive(Debug, Default, Clone, Copy)]
pub struct Acct {
    pub attempted: u64,
    pub succeeded: u64,
    pub failed: u64,
    pub refused: u64,
    pub wrong: u64,
    /// Ingest round trips that handed back a tail (each retried).
    pub retries: u64,
    /// Slices handed back by backpressure, summed over retries.
    pub backpressured: u64,
    /// Slices the server reported applied.
    pub accepted: u64,
}

impl Acct {
    /// Counts one operation's outcome and passes its value on.
    pub fn record<T>(&mut self, what: &str, result: Result<T, ClientError>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => {
                self.succeeded += 1;
                Some(v)
            }
            Err(e) => {
                self.error(what, &e);
                None
            }
        }
    }

    /// Counts an error for an operation already counted as attempted.
    pub fn error(&mut self, what: &str, e: &ClientError) {
        match e {
            ClientError::Fleet(_) => self.refused += 1,
            _ => self.failed += 1,
        }
        eprintln!("perfbench: {what} failed: {e}");
    }

    /// Turns a counted success into a wrong answer.
    pub fn wrong(&mut self, what: &str) {
        self.succeeded -= 1;
        self.wrong += 1;
        eprintln!("perfbench: {what}: wrong answer");
    }

    pub fn bad(&self) -> u64 {
        self.failed + self.refused + self.wrong
    }

    pub fn merge(&mut self, o: &Acct) {
        self.attempted += o.attempted;
        self.succeeded += o.succeeded;
        self.failed += o.failed;
        self.refused += o.refused;
        self.wrong += o.wrong;
        self.retries += o.retries;
        self.backpressured += o.backpressured;
        self.accepted += o.accepted;
    }
}

#[derive(Debug, Default, Clone)]
pub struct Ledger {
    pub setup: Acct,
    pub ingest: Acct,
    pub flush: Acct,
    pub query: Acct,
    pub check: Acct,
}

impl Ledger {
    pub fn phases(&self) -> [(&'static str, &Acct); 5] {
        [
            ("setup", &self.setup),
            ("ingest", &self.ingest),
            ("flush", &self.flush),
            ("query", &self.query),
            ("check", &self.check),
        ]
    }

    pub fn total(&self) -> Acct {
        let mut t = Acct::default();
        for (_, a) in self.phases() {
            t.merge(a);
        }
        t
    }
}
