//! A benchmark-owned [`OracleProvider`] that times every call into the
//! provider it wraps and keeps what each call returned, so the traced
//! run can split the provider's time and re-time the probe's other
//! layers on the very same compiled artifact.

use qmkp::core::{CompiledOracle, OracleProvider};
use qmkp::graph::Graph;
use qmkp::rt::{RtContext, RtError};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One `compiled_oracle` call.
pub struct Call {
    pub graph: Graph,
    pub k: usize,
    pub t: usize,
    pub start: Instant,
    pub end: Instant,
    pub artifact: Option<Arc<CompiledOracle>>,
}

pub struct Recording<'a> {
    inner: &'a dyn OracleProvider,
    calls: Mutex<Vec<Call>>,
}

impl<'a> Recording<'a> {
    pub fn new(inner: &'a dyn OracleProvider) -> Self {
        Recording {
            inner,
            calls: Mutex::new(Vec::new()),
        }
    }

    /// The calls made so far, in completion order.
    pub fn into_calls(self) -> Vec<Call> {
        self.calls
            .into_inner()
            .expect("no provider call panics while holding the call log")
    }
}

impl OracleProvider for Recording<'_> {
    fn compiled_oracle(
        &self,
        g: &Graph,
        k: usize,
        t: usize,
        ctx: &RtContext,
    ) -> Result<Arc<CompiledOracle>, RtError> {
        let start = Instant::now();
        let result = self.inner.compiled_oracle(g, k, t, ctx);
        let end = Instant::now();
        self.calls
            .lock()
            .expect("no provider call panics while holding the call log")
            .push(Call {
                graph: g.clone(),
                k,
                t,
                start,
                end,
                artifact: result.as_ref().ok().cloned(),
            });
        result
    }
}
