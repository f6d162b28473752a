//! Generic building-block operators.
//!
//! These are language-agnostic dataflow pieces; the ESP processor composes
//! them around its stages.

use esp_types::{Batch, Chunk, Result, Ts, Tuple};

use crate::operator::{Operator, Payload};

/// One buffered arrival: a run of rows or one columnar chunk, kept in
/// arrival order so a forwarding operator can re-emit exactly what it saw.
#[derive(Debug)]
enum Seg {
    Rows(Batch),
    Chunk(Chunk),
}

/// Order-preserving buffer of mixed row/chunk arrivals. The epoch's output
/// stays columnar when *every* arrival was a chunk; any row arrival
/// demotes the whole epoch to rows (order is the contract, and
/// interleaving rows between chunks has no columnar form).
///
/// This is the standard input buffer for chunk-aware forwarding operators
/// ([`PassThrough`], [`UnionOp`], [`MapOp`], the ESP stage adapter).
#[derive(Debug, Default)]
pub struct SegBuf {
    segs: Vec<Seg>,
}

impl SegBuf {
    /// Number of tuples buffered across all segments.
    pub fn len(&self) -> usize {
        self.segs
            .iter()
            .map(|s| match s {
                Seg::Rows(b) => b.len(),
                Seg::Chunk(c) => c.len(),
            })
            .sum()
    }

    /// True when no tuples are buffered.
    pub fn is_empty(&self) -> bool {
        self.segs.is_empty()
    }

    /// Append one epoch input: rows are copied into a trailing row
    /// segment, each chunk is cloned as its own segment.
    pub fn push(&mut self, input: &Payload) {
        match input {
            Payload::Rows(batch) => {
                if batch.is_empty() {
                    return;
                }
                if let Some(Seg::Rows(b)) = self.segs.last_mut() {
                    b.extend_from_slice(batch);
                } else {
                    self.segs.push(Seg::Rows(batch.clone()));
                }
            }
            Payload::Chunks(chunks) => {
                for c in chunks {
                    self.push_chunk(c.clone());
                }
            }
        }
    }

    /// Append one owned row (merged into a trailing row segment).
    fn push_row(&mut self, t: Tuple) {
        if let Some(Seg::Rows(b)) = self.segs.last_mut() {
            b.push(t);
        } else {
            self.segs.push(Seg::Rows(vec![t]));
        }
    }

    /// Append one owned chunk as its own segment.
    fn push_chunk(&mut self, chunk: Chunk) {
        if !chunk.is_empty() {
            self.segs.push(Seg::Chunk(chunk));
        }
    }

    /// Drain the buffer into a payload: columnar iff every arrival was a
    /// chunk, otherwise rows in arrival order.
    pub fn take(&mut self) -> Payload {
        let segs = std::mem::take(&mut self.segs);
        if !segs.is_empty() && segs.iter().all(|s| matches!(s, Seg::Chunk(_))) {
            return Payload::Chunks(
                segs.into_iter()
                    .map(|s| match s {
                        Seg::Chunk(c) => c,
                        Seg::Rows(_) => unreachable!("all segments are chunks"),
                    })
                    .collect(),
            );
        }
        let mut out = Batch::new();
        for seg in segs {
            match seg {
                Seg::Rows(b) => out.extend(b),
                Seg::Chunk(c) => out.extend(c.to_tuples()),
            }
        }
        Payload::Rows(out)
    }
}

/// Forwards its input unchanged. Useful as a named junction point and in
/// tests. Chunk arrivals are forwarded columnar.
pub struct PassThrough {
    buf: SegBuf,
}

impl PassThrough {
    /// Create a pass-through operator.
    pub fn new() -> PassThrough {
        PassThrough {
            buf: SegBuf::default(),
        }
    }
}

impl Default for PassThrough {
    fn default() -> Self {
        Self::new()
    }
}

impl Operator for PassThrough {
    fn name(&self) -> &str {
        "pass-through"
    }

    fn push(&mut self, _port: usize, input: &Payload) -> Result<()> {
        self.buf.push(input);
        Ok(())
    }

    fn flush(&mut self, _epoch: Ts) -> Result<Payload> {
        Ok(self.buf.take())
    }
}

/// Per-tuple transform driven by a closure. Returning `None` drops the
/// tuple (filter-map semantics); returning an error aborts the epoch.
///
/// An optional whole-chunk transform ([`MapOp::with_chunk_fn`]) lets the
/// operator consume and emit columnar batches without materializing rows;
/// without one, chunk arrivals are materialized and fed to the per-tuple
/// closure.
pub struct MapOp<F> {
    name: String,
    f: F,
    #[allow(clippy::type_complexity)]
    chunk_f: Option<Box<dyn Fn(&Chunk) -> Result<Option<Chunk>> + Send>>,
    buf: SegBuf,
}

impl<F: Fn(&Tuple) -> Result<Option<Tuple>> + Send> MapOp<F> {
    /// Create a map/transform operator.
    pub fn new(name: impl Into<String>, f: F) -> MapOp<F> {
        MapOp {
            name: name.into(),
            f,
            chunk_f: None,
            buf: SegBuf::default(),
        }
    }

    /// Attach a whole-chunk transform, used for chunk arrivals instead of
    /// the per-tuple closure. The two must agree semantically (same rows
    /// out for the same rows in); returning `None` drops the whole chunk.
    pub fn with_chunk_fn(
        mut self,
        cf: impl Fn(&Chunk) -> Result<Option<Chunk>> + Send + 'static,
    ) -> MapOp<F> {
        self.chunk_f = Some(Box::new(cf));
        self
    }
}

impl<F: Fn(&Tuple) -> Result<Option<Tuple>> + Send> MapOp<F> {
    fn map_rows(&mut self, rows: &[Tuple]) -> Result<()> {
        for t in rows {
            if let Some(out) = (self.f)(t)? {
                self.buf.push_row(out);
            }
        }
        Ok(())
    }
}

impl<F: Fn(&Tuple) -> Result<Option<Tuple>> + Send> Operator for MapOp<F> {
    fn name(&self) -> &str {
        &self.name
    }

    fn push(&mut self, _port: usize, input: &Payload) -> Result<()> {
        match input {
            Payload::Rows(batch) => self.map_rows(batch),
            Payload::Chunks(chunks) => {
                for c in chunks {
                    match &self.chunk_f {
                        Some(cf) => {
                            if let Some(out) = cf(c)? {
                                self.buf.push_chunk(out);
                            }
                        }
                        None => self.map_rows(&c.to_tuples())?,
                    }
                }
                Ok(())
            }
        }
    }

    fn flush(&mut self, _epoch: Ts) -> Result<Payload> {
        Ok(self.buf.take())
    }
}

/// N-way stream union. The paper's Arbitrate stage runs over "the union of
/// the streams produced by Query 2" — this is that union. Chunk arrivals
/// are forwarded columnar (in arrival order, matching the row semantics).
pub struct UnionOp {
    n_inputs: usize,
    buf: SegBuf,
}

impl UnionOp {
    /// Create a union over `n_inputs` streams.
    pub fn new(n_inputs: usize) -> UnionOp {
        UnionOp {
            n_inputs,
            buf: SegBuf::default(),
        }
    }
}

impl Operator for UnionOp {
    fn name(&self) -> &str {
        "union"
    }

    fn n_inputs(&self) -> usize {
        self.n_inputs
    }

    fn push(&mut self, _port: usize, input: &Payload) -> Result<()> {
        self.buf.push(input);
        Ok(())
    }

    fn flush(&mut self, _epoch: Ts) -> Result<Payload> {
        Ok(self.buf.take())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esp_types::{DataType, Schema, Value};

    fn tup(v: i64) -> Tuple {
        let schema = Schema::builder().field("v", DataType::Int).build().unwrap();
        Tuple::new(schema, Ts::ZERO, vec![Value::Int(v)]).unwrap()
    }

    fn rows(vals: &[i64]) -> Payload {
        Payload::Rows(vals.iter().map(|&v| tup(v)).collect())
    }

    #[test]
    fn filter_drops_non_matching() {
        let mut f = MapOp::new("evens", |t: &Tuple| {
            Ok((t.value(0).as_i64().unwrap() % 2 == 0).then(|| t.clone()))
        });
        f.push(0, &rows(&[1, 2, 3, 4])).unwrap();
        let out = f.flush(Ts::ZERO).unwrap();
        assert_eq!(out.len(), 2);
        // Flush drains: second flush is empty.
        assert!(f.flush(Ts::ZERO).unwrap().is_empty());
    }

    #[test]
    fn map_transforms_and_drops() {
        let mut m = MapOp::new("halve-evens", |t: &Tuple| {
            let v = t.value(0).as_i64().unwrap();
            if v % 2 == 0 {
                Ok(Some(Tuple::new_unchecked(
                    t.schema().clone(),
                    t.ts(),
                    vec![Value::Int(v / 2)],
                )))
            } else {
                Ok(None)
            }
        });
        m.push(0, &rows(&[4, 3])).unwrap();
        let out = m.flush(Ts::ZERO).unwrap().to_rows();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].value(0), &Value::Int(2));
    }

    #[test]
    fn map_propagates_errors() {
        let mut m = MapOp::new("boom", |_t: &Tuple| {
            Err(esp_types::EspError::Stage("boom".into()))
        });
        assert!(m.push(0, &rows(&[1])).is_err());
    }

    #[test]
    fn union_merges_ports() {
        let mut u = UnionOp::new(3);
        assert_eq!(u.n_inputs(), 3);
        u.push(0, &rows(&[1])).unwrap();
        u.push(2, &rows(&[2, 3])).unwrap();
        u.push(1, &Payload::empty()).unwrap();
        assert_eq!(u.flush(Ts::ZERO).unwrap().len(), 3);
    }
}
