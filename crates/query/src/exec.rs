//! Per-epoch evaluation of a [`CompiledSelect`] over window contents.
//!
//! Each tick, the engine evaluates the compiled statement as a one-shot
//! relational query over the current contents of every window (CQL's
//! "relation at time t" semantics; the emitted rows are the `RSTREAM` of
//! the windowed query at the epoch). Grouped queries fold the paper's
//! aggregates per group; `HAVING` may contain correlated quantified
//! subqueries (paper Query 3), which re-evaluate the subquery once per
//! group with the group's representative row bound as the outer scope.
//!
//! # Execution strategy
//!
//! FROM items are *borrowed*, not copied: stream windows expose their
//! contents through [`esp_stream::WindowView`] and static relations are
//! viewed in place, so the only tuples materialized per epoch are derived
//! tables' outputs.
//!
//! Field references annotated with a [`FieldSlot`] by
//! `plan::resolve_pass` are fetched by `(scope, item, column)`
//! index after a single `Arc::ptr_eq` schema check. The check fails — and
//! evaluation falls back to the original name-resolving walk
//! (`resolve_field`) — whenever the tuple at hand doesn't match the
//! planned schema, or any scope on the way to the slot's is not *uniform*
//! (some tuple differs from the planned shape, which could change name
//! visibility or ambiguity). The fallback path is byte-for-byte the
//! pre-slot interpreter, so every corner case (heterogeneous windows,
//! correlated lookups, the NULL representative of an empty global group,
//! ambiguity and unknown-field errors) behaves exactly as before.
//!
//! Joins run as hash joins when the planner extracted equi-key conjuncts
//! (and the inputs are uniform): keyed items are hashed on their
//! `JoinKey`s once, and the cross-product enumeration only visits
//! combinations whose keys match, in the same lexicographic order the
//! nested-loop scan would have produced. Residual predicates evaluate in
//! their original conjunct order. Without an extracted plan the original
//! odometer nested-loop scan runs unchanged.

use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, OnceLock};

use esp_stream::WindowView;
use esp_types::{
    registry, Chunk, ChunkView, EspError, Field, Result, Schema, Ts, Tuple, Value, ValueKey,
};

use crate::ast::{ArithOp, Quantifier};
use crate::catalog::Catalog;
use crate::compile::{AggCall, CExpr, CFromItem, CSource, CompiledSelect};
use crate::plan::{flatten_conjuncts, join_key, FieldSlot, JoinKey, JoinPlan, KeySpec};

/// Evaluation context shared by a whole tick.
pub struct ExecCtx<'a> {
    /// The catalog (static relations, UDFs).
    pub catalog: &'a Catalog,
    /// The epoch being evaluated; derived-table tuples are stamped with it.
    pub epoch: Ts,
}

/// Lexical environment for one candidate row, with a chain to outer query
/// scopes for correlated subqueries.
pub struct RowEnv<'a> {
    /// Binding name of each FROM item (aligned with `row`).
    bindings: &'a [Option<String>],
    /// One tuple per FROM item. Empty for the global group of an empty
    /// aggregate input (field references then evaluate to NULL).
    row: &'a [&'a Tuple],
    /// Aggregate values for the enclosing group, aligned with the
    /// select's `agg_calls`.
    aggs: Option<&'a [Value]>,
    /// Enclosing query scope, for correlated references.
    outer: Option<&'a RowEnv<'a>>,
    /// Whether every input row of this scope matches the planned schemas
    /// (pointer-equal). Slots may only be trusted through uniform scopes;
    /// otherwise a tuple the planner never saw could shadow or
    /// disambiguate differently than the plan assumed.
    slots_valid: bool,
}

/// The rows of one FROM item this epoch: a borrowed view for windows and
/// relations, owned tuples only for derived tables.
enum Rows<'a> {
    /// Borrowed window / relation contents.
    View(WindowView<'a>),
    /// Materialized derived-table output.
    Owned(Vec<Tuple>),
    /// Borrowed columnar window contents. Column reads
    /// ([`Rows::col_value`]) go straight to the `ColumnVec`s; the arena
    /// materializes a row's `Tuple` at most once per tick, and only when a
    /// caller actually needs the row form (UDF args, name-walk fallback,
    /// join emission, group representatives). The arena itself is lazy
    /// too: a tick that stays fully columnar never allocates the
    /// one-`OnceLock`-per-row vector at all.
    Chunk {
        view: ChunkView<'a>,
        arena: OnceLock<Vec<OnceLock<Tuple>>>,
    },
}

impl Rows<'_> {
    fn from_chunk(view: ChunkView<'_>) -> Rows<'_> {
        Rows::Chunk {
            view,
            arena: OnceLock::new(),
        }
    }

    fn len(&self) -> usize {
        match self {
            Rows::View(v) => v.len(),
            Rows::Owned(v) => v.len(),
            Rows::Chunk { view, .. } => view.len(),
        }
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn get(&self, i: usize) -> Option<&Tuple> {
        match self {
            Rows::View(v) => v.get(i),
            Rows::Owned(v) => v.get(i),
            Rows::Chunk { view, arena } => {
                if i >= view.len() {
                    return None;
                }
                let arena = arena.get_or_init(|| {
                    std::iter::repeat_with(OnceLock::new)
                        .take(view.len())
                        .collect()
                });
                let slot = arena.get(i)?;
                if slot.get().is_none() {
                    let _ = slot.set(view.tuple_at(i)?);
                }
                slot.get()
            }
        }
    }

    /// Read column `col` of row `ri` without materializing the row. For
    /// the chunk arm this is the in-place `ColumnVec` read the slot
    /// compiler targets; for row arms it is the tuple's slot value. `None`
    /// when the row or column doesn't exist (callers fall back to the
    /// name-resolving walk, which reproduces reference semantics).
    fn col_value(&self, ri: usize, col: usize) -> Option<Value> {
        match self {
            Rows::Chunk { view, .. } => view.value_at(ri, col),
            _ => self.get(ri)?.values().get(col).cloned(),
        }
    }

    fn iter(&self) -> impl Iterator<Item = &Tuple> + '_ {
        (0..self.len()).filter_map(move |i| self.get(i))
    }
}

/// The result of evaluating a select: output schema plus rows.
#[derive(Debug)]
pub struct SelectResult {
    /// Schema of the produced rows.
    pub schema: Arc<Schema>,
    /// Row values (aligned with `schema`).
    pub rows: Vec<Vec<Value>>,
}

impl SelectResult {
    /// Materialize the result rows as tuples stamped with `epoch` — the
    /// single tuple-materialization path shared by derived tables and the
    /// engine's per-tick emission.
    pub fn into_batch(self, epoch: Ts) -> Vec<Tuple> {
        let schema = self.schema;
        self.rows
            .into_iter()
            .map(|vals| Tuple::new_unchecked(Arc::clone(&schema), epoch, vals))
            .collect()
    }

    /// Materialize the result as one columnar chunk stamped with `epoch`.
    pub fn into_chunk(self, epoch: Ts) -> Result<Chunk> {
        let schema = registry::intern(&self.schema);
        let mut chunk = Chunk::with_capacity(&schema, self.rows.len());
        for vals in self.rows {
            chunk.push_row_owned(epoch, vals)?;
        }
        Ok(chunk)
    }
}

/// Evaluate `cs` over its current window contents.
pub fn eval_select(
    cs: &CompiledSelect,
    outer: Option<&RowEnv<'_>>,
    ctx: &ExecCtx<'_>,
) -> Result<SelectResult> {
    // 1. View each FROM item's rows (materializing only derived tables).
    let mut inputs: Vec<Rows<'_>> = Vec::with_capacity(cs.from.len());
    for item in &cs.from {
        inputs.push(materialize_from(item, outer, ctx)?);
    }
    let bindings = &cs.bindings;
    // Slots are only trusted when every row of every item matches the
    // planned schemas; a single stray tuple disables the fast path for
    // the whole tick (correctness first — the name walk still works).
    let uniform = plan_matches_inputs(cs, &inputs);

    // Fused single-input scan: when the plan is resolved and every row
    // matches it, evaluate directly over the borrowed rows — no per-row
    // `Vec<&Tuple>` allocation, no per-row group-key clone. The phase
    // order (WHERE over all rows, then grouping, then aggregate folds,
    // then HAVING/projection, all in row order) mirrors the generic path
    // below exactly, so emission order and error surfacing are identical.
    if uniform && inputs.len() == 1 {
        return eval_fused_single(cs, bindings, &inputs[0], outer, ctx);
    }

    // 2. Join + WHERE.
    let mut surviving: Vec<Vec<&Tuple>> = Vec::new();
    let any_empty = inputs.iter().any(Rows::is_empty);
    if !any_empty && !inputs.is_empty() {
        let join = cs
            .plan
            .as_ref()
            .and_then(|p| p.join.as_ref())
            .filter(|_| uniform);
        match join {
            Some(jp) => {
                HashJoin::build(cs, jp, &inputs)?.run(outer, ctx, &mut surviving)?;
            }
            None => {
                // Nested-loop cross product (odometer): item 0 is the
                // slowest-varying index, the last item the fastest.
                let mut odometer = vec![0usize; inputs.len()];
                'outer: loop {
                    let mut row: Vec<&Tuple> = Vec::with_capacity(inputs.len());
                    for (i, &j) in odometer.iter().enumerate() {
                        match inputs[i].get(j) {
                            Some(t) => row.push(t),
                            None => break 'outer,
                        }
                    }
                    let env = RowEnv {
                        bindings,
                        row: &row,
                        aggs: None,
                        outer,
                        slots_valid: uniform,
                    };
                    let keep = match &cs.where_clause {
                        Some(w) => eval_expr(w, &env, ctx)?.truthy(),
                        None => true,
                    };
                    if keep {
                        surviving.push(row);
                    }
                    // Advance odometer.
                    for i in (0..odometer.len()).rev() {
                        odometer[i] += 1;
                        if odometer[i] < inputs[i].len() {
                            continue 'outer;
                        }
                        odometer[i] = 0;
                        if i == 0 {
                            break 'outer;
                        }
                    }
                }
            }
        }
    }

    // 3. Project.
    if cs.is_aggregate {
        eval_grouped(cs, bindings, &surviving, outer, uniform, ctx)
    } else if cs.select.is_empty() {
        eval_star(cs, bindings, &surviving)
    } else {
        let schema = cs.output_schema.clone().ok_or_else(|| {
            EspError::Plan("explicit projection compiled without an output schema".into())
        })?;
        let mut rows = Vec::with_capacity(surviving.len());
        for row in &surviving {
            let env = RowEnv {
                bindings,
                row,
                aggs: None,
                outer,
                slots_valid: uniform,
            };
            let mut out = Vec::with_capacity(cs.select.len());
            for item in &cs.select {
                out.push(eval_expr(&item.expr, &env, ctx)?);
            }
            rows.push(out);
        }
        Ok(SelectResult { schema, rows })
    }
}

/// Whether every input row matches the planned depth-0 scope shape
/// (pointer-equal schemas). `false` when no plan has been resolved.
fn plan_matches_inputs(cs: &CompiledSelect, inputs: &[Rows<'_>]) -> bool {
    let Some(plan) = &cs.plan else { return false };
    let Some(shape) = plan.ctx.first() else {
        return false;
    };
    if shape.items.len() != inputs.len() {
        return false;
    }
    shape
        .items
        .iter()
        .zip(inputs)
        .all(|((_, schema), rows)| match schema {
            // A chunk is schema-uniform by construction: one pointer
            // compare covers every row, with nothing materialized.
            Some(s) => match rows {
                Rows::Chunk { view, .. } => view.is_empty() || Arc::ptr_eq(view.schema(), s),
                _ => rows.iter().all(|t| Arc::ptr_eq(t.schema(), s)),
            },
            None => rows.is_empty(),
        })
}

/// Hash-join enumeration state: per-item hash tables over the extracted
/// equi-keys, plus the residual predicate list.
struct HashJoin<'q, 't> {
    bindings: &'q [Option<String>],
    keys: &'q [Vec<KeySpec>],
    /// `Some(table)` for keyed items: join-key → row indices, in row order
    /// (insertion order preserves the nested-loop emission order).
    tables: Vec<Option<HashMap<Vec<JoinKey>, Vec<usize>>>>,
    /// Non-extracted conjuncts, in original evaluation order.
    residual: Vec<&'q CExpr>,
    inputs: &'t [Rows<'t>],
}

impl<'q, 't> HashJoin<'q, 't> {
    fn build(
        cs: &'q CompiledSelect,
        plan: &'q JoinPlan,
        inputs: &'t [Rows<'t>],
    ) -> Result<HashJoin<'q, 't>> {
        let mut conjuncts = Vec::new();
        if let Some(w) = &cs.where_clause {
            flatten_conjuncts(w, &mut conjuncts);
        }
        let residual: Vec<&CExpr> = conjuncts
            .iter()
            .enumerate()
            .filter(|(i, _)| !plan.extracted.contains(i))
            .map(|(_, c)| *c)
            .collect();

        let mut tables = Vec::with_capacity(inputs.len());
        for (i, rows) in inputs.iter().enumerate() {
            if plan.keys.get(i).is_none_or(Vec::is_empty) {
                tables.push(None);
                continue;
            }
            let specs = &plan.keys[i];
            let mut map: HashMap<Vec<JoinKey>, Vec<usize>> = HashMap::with_capacity(rows.len());
            // Keys are read by column index (straight off the `ColumnVec`
            // for chunk-backed inputs): the build side materializes no
            // tuples — only rows that actually match a probe key are ever
            // materialized, at emission.
            'rows: for ri in 0..rows.len() {
                let mut key = Vec::with_capacity(specs.len());
                for spec in specs {
                    match rows
                        .col_value(ri, spec.build_col)
                        .and_then(|v| join_key(&v))
                    {
                        Some(k) => key.push(k),
                        // NULL / NaN keys never compare equal: the row
                        // cannot survive the extracted conjunct.
                        None => continue 'rows,
                    }
                }
                map.entry(key).or_default().push(ri);
            }
            tables.push(Some(map));
        }
        Ok(HashJoin {
            bindings: &cs.bindings,
            keys: &plan.keys,
            tables,
            residual,
            inputs,
        })
    }

    fn run(
        &self,
        outer: Option<&RowEnv<'_>>,
        ctx: &ExecCtx<'_>,
        surviving: &mut Vec<Vec<&'t Tuple>>,
    ) -> Result<()> {
        let mut fixed: Vec<&'t Tuple> = Vec::with_capacity(self.inputs.len());
        self.descend(0, &mut fixed, outer, ctx, surviving)
    }

    /// Depth-first enumeration, item 0 outermost — the same lexicographic
    /// order as the odometer scan, minus key-mismatched combinations.
    fn descend(
        &self,
        item: usize,
        fixed: &mut Vec<&'t Tuple>,
        outer: Option<&RowEnv<'_>>,
        ctx: &ExecCtx<'_>,
        surviving: &mut Vec<Vec<&'t Tuple>>,
    ) -> Result<()> {
        if item == self.inputs.len() {
            // Extracted keys already hold; evaluate the residual
            // conjuncts in their original order (short-circuit on false,
            // propagating errors exactly as the full scan would).
            let env = RowEnv {
                bindings: self.bindings,
                row: fixed,
                aggs: None,
                outer,
                // The hash path only runs when inputs are uniform.
                slots_valid: true,
            };
            for c in &self.residual {
                if !eval_expr(c, &env, ctx)?.truthy() {
                    return Ok(());
                }
            }
            surviving.push(fixed.clone());
            return Ok(());
        }
        match &self.tables[item] {
            None => {
                for t in self.inputs[item].iter() {
                    fixed.push(t);
                    self.descend(item + 1, fixed, outer, ctx, surviving)?;
                    fixed.pop();
                }
            }
            Some(table) => {
                let specs = &self.keys[item];
                let mut key = Vec::with_capacity(specs.len());
                for spec in specs {
                    let probe = fixed
                        .get(spec.probe_item)
                        .and_then(|t| t.values().get(spec.probe_col))
                        .and_then(join_key);
                    match probe {
                        Some(k) => key.push(k),
                        // NULL probe value: the equality can never hold.
                        None => return Ok(()),
                    }
                }
                if let Some(candidates) = table.get(&key) {
                    for &ri in candidates {
                        let Some(t) = self.inputs[item].get(ri) else {
                            continue;
                        };
                        fixed.push(t);
                        self.descend(item + 1, fixed, outer, ctx, surviving)?;
                        fixed.pop();
                    }
                }
            }
        }
        Ok(())
    }
}

/// `SELECT *`: concatenate the fields of every FROM item.
fn eval_star(
    cs: &CompiledSelect,
    bindings: &[Option<String>],
    rows: &[Vec<&Tuple>],
) -> Result<SelectResult> {
    let Some(first) = rows.first() else {
        // No rows this epoch: emit an empty result with a best-effort
        // empty schema (consumers see no tuples either way).
        return Ok(SelectResult {
            schema: Schema::new(vec![])?,
            rows: vec![],
        });
    };
    // Join the schemas of the first row, prefixing duplicates by binding.
    // Interned so consumers see a stable schema pointer across epochs
    // (keeping their own slot plans cached and valid).
    let mut schema: Arc<Schema> = Arc::clone(first[0].schema());
    for (i, t) in first.iter().enumerate().skip(1) {
        let prefix = bindings[i].as_deref().unwrap_or("right");
        schema = schema.join(t.schema(), Some(prefix))?;
    }
    let schema = registry::intern(&schema);
    let _ = cs;
    let mut out = Vec::with_capacity(rows.len());
    for row in rows {
        let mut vals = Vec::with_capacity(row.iter().map(|t| t.values().len()).sum::<usize>());
        for t in row {
            vals.extend_from_slice(t.values());
        }
        if vals.len() != schema.len() {
            return Err(EspError::SchemaMismatch(
                "heterogeneous tuple shapes within one stream in SELECT *".into(),
            ));
        }
        out.push(vals);
    }
    Ok(SelectResult { schema, rows: out })
}

/// Grouped / aggregate evaluation.
fn eval_grouped(
    cs: &CompiledSelect,
    bindings: &[Option<String>],
    rows: &[Vec<&Tuple>],
    outer: Option<&RowEnv<'_>>,
    uniform: bool,
    ctx: &ExecCtx<'_>,
) -> Result<SelectResult> {
    // Group rows.
    struct Group<'a> {
        rep: Option<Vec<&'a Tuple>>,
        members: Vec<usize>,
    }
    let mut order: Vec<Vec<ValueKey>> = Vec::new();
    let mut groups: HashMap<Vec<ValueKey>, Group<'_>> = HashMap::new();
    if cs.group_by.is_empty() {
        // Global group, present even over empty input (SQL semantics:
        // `SELECT count(*) FROM empty` yields one row).
        let g = Group {
            rep: rows.first().cloned(),
            members: (0..rows.len()).collect(),
        };
        order.push(Vec::new());
        groups.insert(Vec::new(), g);
    } else {
        for (ri, row) in rows.iter().enumerate() {
            let env = RowEnv {
                bindings,
                row,
                aggs: None,
                outer,
                slots_valid: uniform,
            };
            let mut key = Vec::with_capacity(cs.group_by.len());
            for g in &cs.group_by {
                key.push(eval_expr(g, &env, ctx)?.group_key());
            }
            match groups.entry(key.clone()) {
                Entry::Occupied(mut e) => e.get_mut().members.push(ri),
                Entry::Vacant(e) => {
                    e.insert(Group {
                        rep: Some(row.clone()),
                        members: vec![ri],
                    });
                    order.push(key);
                }
            }
        }
    }

    let schema = cs.output_schema.clone().ok_or_else(|| {
        EspError::Plan("aggregate select compiled without an output schema".into())
    })?;
    let mut out_rows = Vec::with_capacity(order.len());
    for key in &order {
        let group = &groups[key];
        // Fold every aggregate over the group's members.
        let mut agg_values = Vec::with_capacity(cs.agg_calls.len());
        for call in &cs.agg_calls {
            agg_values.push(fold_aggregate(
                call,
                bindings,
                rows,
                &group.members,
                outer,
                uniform,
                ctx,
            )?);
        }
        let empty_row: Vec<&Tuple> = Vec::new();
        let rep = group.rep.as_ref().unwrap_or(&empty_row);
        let env = RowEnv {
            bindings,
            row: rep,
            aggs: Some(&agg_values),
            outer,
            slots_valid: uniform,
        };
        if let Some(h) = &cs.having {
            if !eval_expr(h, &env, ctx)?.truthy() {
                continue;
            }
        }
        let mut out = Vec::with_capacity(cs.select.len());
        for item in &cs.select {
            out.push(eval_expr(&item.expr, &env, ctx)?);
        }
        out_rows.push(out);
    }
    Ok(SelectResult {
        schema,
        rows: out_rows,
    })
}

/// Fetch row `i` of a single-item scan; the index was produced by the
/// same scan, so absence means the view changed under us mid-tick.
fn fetch<'a>(input: &'a Rows<'_>, i: u32) -> Result<&'a Tuple> {
    input
        .get(i as usize)
        .ok_or_else(|| EspError::Plan("window row vanished mid-tick".into()))
}

/// The slot column of an expression that is exactly a depth-0, item-0
/// field reference — the only shape a single-item scan can resolve.
/// Under a uniform scan the column can be read straight off the tuple;
/// `eval_expr` would produce the identical value through `slot_lookup`.
fn direct_col(e: &CExpr) -> Option<usize> {
    match e {
        CExpr::Field { slot: Some(s), .. } if s.depth == 0 && s.from_idx == 0 => {
            Some(s.col_idx as usize)
        }
        _ => None,
    }
}

/// Whether `e` can evaluate entirely from a chunk's columns: literals,
/// depth-0 item-0 slots bound to this exact schema, and the pure scalar
/// operators. Anything touching an environment — UDFs, aggregates,
/// subqueries, unresolved names — needs row form and falls back.
fn col_supported(e: &CExpr, schema: &Arc<Schema>) -> bool {
    match e {
        CExpr::Literal(_) => true,
        CExpr::Field { slot, .. } => slot.as_ref().is_some_and(|s| {
            s.depth == 0
                && s.from_idx == 0
                && Arc::ptr_eq(&s.schema, schema)
                && (s.col_idx as usize) < schema.len()
        }),
        CExpr::Cmp { lhs, rhs, .. } | CExpr::Arith { lhs, rhs, .. } => {
            col_supported(lhs, schema) && col_supported(rhs, schema)
        }
        CExpr::And(a, b) | CExpr::Or(a, b) => col_supported(a, schema) && col_supported(b, schema),
        CExpr::Not(x) | CExpr::Neg(x) => col_supported(x, schema),
        _ => false,
    }
}

/// Evaluate a [`col_supported`] expression over row `ri` of a chunk view,
/// reading slots from the `ColumnVec`s in place — no `Tuple` is built.
/// Operator semantics (short-circuits, SQL comparison, arithmetic, error
/// surfacing) are shared with [`eval_expr`], so results are identical.
fn eval_col(e: &CExpr, view: &ChunkView<'_>, ri: usize) -> Result<Value> {
    match e {
        CExpr::Literal(v) => Ok(v.clone()),
        CExpr::Field { slot, .. } => {
            // `col_supported` guarantees the slot is resolved.
            let s = slot
                .as_ref()
                .ok_or_else(|| EspError::Plan("unresolved slot on the columnar path".into()))?;
            view.value_at(ri, s.col_idx as usize)
                .ok_or_else(|| EspError::Plan("window row vanished mid-tick".into()))
        }
        CExpr::Cmp { lhs, op, rhs } => {
            let l = eval_col(lhs, view, ri)?;
            let r = eval_col(rhs, view, ri)?;
            Ok(Value::Bool(
                l.sql_cmp(&r).map(|o| op.matches(o)).unwrap_or(false),
            ))
        }
        CExpr::Arith { lhs, op, rhs } => {
            let l = eval_col(lhs, view, ri)?;
            let r = eval_col(rhs, view, ri)?;
            eval_arith(&l, *op, &r)
        }
        CExpr::And(a, b) => {
            if !eval_col(a, view, ri)?.truthy() {
                return Ok(Value::Bool(false));
            }
            Ok(Value::Bool(eval_col(b, view, ri)?.truthy()))
        }
        CExpr::Or(a, b) => {
            if eval_col(a, view, ri)?.truthy() {
                return Ok(Value::Bool(true));
            }
            Ok(Value::Bool(eval_col(b, view, ri)?.truthy()))
        }
        CExpr::Not(x) => Ok(Value::Bool(!eval_col(x, view, ri)?.truthy())),
        CExpr::Neg(x) => match eval_col(x, view, ri)? {
            Value::Int(i) => Ok(Value::Int(-i)),
            Value::Float(f) => Ok(Value::Float(-f)),
            Value::Null => Ok(Value::Null),
            other => Err(EspError::Type(format!("cannot negate {other}"))),
        },
        // Unreachable: col_supported rejects these shapes.
        CExpr::Agg { .. } | CExpr::Scalar { .. } | CExpr::Quantified { .. } => Err(EspError::Plan(
            "environment-dependent expression on the columnar path".into(),
        )),
    }
}

/// FNV-1a. The per-tick group maps hash short keys (a tag string, an
/// integer id) hundreds of thousands of times per epoch; the DoS-hardened
/// default hasher's per-lookup finalization dominates at that size. These
/// maps are built and dropped within one tick over data the operator
/// already holds, so hash-flooding hardening buys nothing here.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl std::hash::Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        self.0 = h;
    }
}

type FnvMap<K, V> = HashMap<K, V, std::hash::BuildHasherDefault<Fnv>>;

/// Start a new group; returns its index.
fn new_group(members: &mut Vec<Vec<u32>>, reps: &mut Vec<Option<u32>>, first: u32) -> usize {
    members.push(Vec::new());
    reps.push(Some(first));
    members.len() - 1
}

/// Group the kept rows of a chunk by a single bare-column key, hashing
/// the packed column data in place — no `Value` boxing, no `Arc` bump,
/// no `ValueKey` allocation per row. Group identity matches the generic
/// `Value::group_key` fold exactly: rows group by value content, in
/// first-seen order, with every `NULL` key collecting into one group.
/// Returns `false` (leaving `members`/`reps` untouched) for column
/// representations without a packed path; the caller then runs the
/// generic fold.
fn chunk_group_index(
    view: &ChunkView<'_>,
    col: usize,
    kept: &[u32],
    members: &mut Vec<Vec<u32>>,
    reps: &mut Vec<Option<u32>>,
) -> bool {
    let off = view.offset();
    let Some(column) = view.col(col) else {
        return false;
    };
    let mut null_group: Option<usize> = None;
    if let Some((data, nulls)) = column.str_data() {
        let mut index: FnvMap<&str, usize> = FnvMap::default();
        for &i in kept {
            let ri = off + i as usize;
            let gi = if nulls.get(ri) {
                *null_group.get_or_insert_with(|| new_group(members, reps, i))
            } else {
                match index.entry(data[ri].as_ref()) {
                    Entry::Occupied(e) => *e.get(),
                    Entry::Vacant(e) => *e.insert(new_group(members, reps, i)),
                }
            };
            members[gi].push(i);
        }
        return true;
    }
    if let Some((data, nulls)) = column.int_data() {
        let mut index: FnvMap<i64, usize> = FnvMap::default();
        for &i in kept {
            let ri = off + i as usize;
            let gi = if nulls.get(ri) {
                *null_group.get_or_insert_with(|| new_group(members, reps, i))
            } else {
                match index.entry(data[ri]) {
                    Entry::Occupied(e) => *e.get(),
                    Entry::Vacant(e) => *e.insert(new_group(members, reps, i)),
                }
            };
            members[gi].push(i);
        }
        return true;
    }
    false
}

/// Fold every member row into `state` straight off a packed column,
/// hoisting the per-row type dispatch of `col_value` out of the loop.
/// Returns `false` when the representation has no packed path (the caller
/// falls back to the generic per-row read). `DISTINCT` folds never get
/// here — they need `ValueKey` dedup.
fn fold_packed(
    state: &mut dyn crate::aggregate::AggregateState,
    col: &esp_types::ColumnVec,
    off: usize,
    members: &[u32],
) -> Result<bool> {
    if let Some((data, nulls)) = col.float_data() {
        if nulls.any() {
            for &ri in members {
                let r = off + ri as usize;
                if !nulls.get(r) {
                    state.update(&Value::Float(data[r]))?;
                }
            }
        } else {
            for &ri in members {
                state.update(&Value::Float(data[off + ri as usize]))?;
            }
        }
        return Ok(true);
    }
    if let Some((data, nulls)) = col.int_data() {
        if nulls.any() {
            for &ri in members {
                let r = off + ri as usize;
                if !nulls.get(r) {
                    state.update(&Value::Int(data[r]))?;
                }
            }
        } else {
            for &ri in members {
                state.update(&Value::Int(data[off + ri as usize]))?;
            }
        }
        return Ok(true);
    }
    Ok(false)
}

/// Allocation-free evaluation of a single-FROM-item select over uniform,
/// plan-matching rows. Observationally identical to the generic path in
/// [`eval_select`]: same phase order, same row order, same short-circuits
/// — only the per-row bookkeeping (join-row vectors, group-key clones)
/// is gone. Reference mode never resolves a plan, so it never gets here.
fn eval_fused_single(
    cs: &CompiledSelect,
    bindings: &[Option<String>],
    input: &Rows<'_>,
    outer: Option<&RowEnv<'_>>,
    ctx: &ExecCtx<'_>,
) -> Result<SelectResult> {
    // Phase 1: WHERE over every row, in order. A predicate that is fully
    // column-resolvable evaluates straight over the chunk's `ColumnVec`s;
    // otherwise each row materializes (once, via the arena) and the
    // environment walk runs as before.
    let mut kept: Vec<u32> = Vec::with_capacity(input.len());
    match &cs.where_clause {
        Some(w) => {
            let columnar = match input {
                Rows::Chunk { view, .. } if col_supported(w, view.schema()) => Some(*view),
                _ => None,
            };
            for i in 0..input.len() {
                let keep = match &columnar {
                    Some(view) => eval_col(w, view, i)?.truthy(),
                    None => {
                        let t = fetch(input, i as u32)?;
                        let row = [t];
                        let env = RowEnv {
                            bindings,
                            row: &row,
                            aggs: None,
                            outer,
                            slots_valid: true,
                        };
                        eval_expr(w, &env, ctx)?.truthy()
                    }
                };
                if keep {
                    kept.push(i as u32);
                }
            }
        }
        None => kept.extend(0..input.len() as u32),
    }

    // Phase 2: grouped fold.
    if cs.is_aggregate {
        let schema = cs.output_schema.clone().ok_or_else(|| {
            EspError::Plan("aggregate select compiled without an output schema".into())
        })?;
        // Group membership, in first-seen order.
        let mut members: Vec<Vec<u32>> = Vec::new();
        let mut reps: Vec<Option<u32>> = Vec::new();
        if cs.group_by.is_empty() {
            // Global group, present even over empty input.
            reps.push(kept.first().copied());
            members.push(std::mem::take(&mut kept));
        } else {
            let key_cols: Vec<Option<usize>> = cs.group_by.iter().map(direct_col).collect();
            // A single bare-column key over a chunk groups straight off
            // the packed column data.
            let specialized = match (input, key_cols.as_slice()) {
                (Rows::Chunk { view, .. }, &[Some(c)]) => {
                    chunk_group_index(view, c, &kept, &mut members, &mut reps)
                }
                _ => false,
            };
            // Generic fold, keyed without cloning: lookups borrow the
            // scratch key as a slice; only a group's first row allocates.
            if !specialized {
                let mut index: HashMap<Vec<ValueKey>, usize> = HashMap::new();
                let mut scratch: Vec<ValueKey> = Vec::with_capacity(cs.group_by.len());
                for &i in &kept {
                    scratch.clear();
                    for (g, kc) in cs.group_by.iter().zip(&key_cols) {
                        // A depth-0 slot reads its column straight off the
                        // input (in place for chunks, off the tuple for rows)
                        // — same value `eval_expr` would produce, minus the
                        // dispatch. Only a non-slot key expression needs the
                        // row form.
                        let v = match kc.and_then(|c| input.col_value(i as usize, c)) {
                            Some(v) => v,
                            None => {
                                let t = fetch(input, i)?;
                                let row = [t];
                                let env = RowEnv {
                                    bindings,
                                    row: &row,
                                    aggs: None,
                                    outer,
                                    slots_valid: true,
                                };
                                eval_expr(g, &env, ctx)?
                            }
                        };
                        scratch.push(v.group_key());
                    }
                    let gi = match index.get(scratch.as_slice()) {
                        Some(&gi) => gi,
                        None => {
                            let gi = new_group(&mut members, &mut reps, i);
                            index.insert(scratch.clone(), gi);
                            gi
                        }
                    };
                    members[gi].push(i);
                }
            }
        }

        let arg_cols: Vec<Option<usize>> = cs
            .agg_calls
            .iter()
            .map(|c| c.arg.as_ref().and_then(direct_col))
            .collect();
        let mut out_rows = Vec::with_capacity(members.len());
        for gi in 0..members.len() {
            // Fold every aggregate over the group's members, in row order.
            let mut agg_values = Vec::with_capacity(cs.agg_calls.len());
            for (call, ac) in cs.agg_calls.iter().zip(&arg_cols) {
                let mut state = call.factory.make();
                // count(*) depends only on the member count — one bulk
                // update instead of a walk.
                if call.arg.is_none() && !call.distinct {
                    state.update_repeat(&Value::Int(1), members[gi].len())?;
                    agg_values.push(state.finish());
                    continue;
                }
                // A slot-resolved, non-distinct arg over a packed chunk
                // column folds straight over the column data.
                if let (Rows::Chunk { view, .. }, Some(c), false) = (input, *ac, call.distinct) {
                    if let Some(col) = view.col(c) {
                        if fold_packed(state.as_mut(), col, view.offset(), &members[gi])? {
                            agg_values.push(state.finish());
                            continue;
                        }
                    }
                }
                let mut distinct_seen: HashSet<ValueKey> = HashSet::new();
                for &ri in &members[gi] {
                    // Slot-resolved args read their column in place (off
                    // the `ColumnVec` for chunks — no row is built, no
                    // per-member environment).
                    if let Some(v) = ac.and_then(|c| input.col_value(ri as usize, c)) {
                        if v.is_null() {
                            continue; // SQL aggregates ignore NULLs.
                        }
                        if call.distinct && !distinct_seen.insert(v.clone().group_key()) {
                            continue;
                        }
                        state.update(&v)?;
                        continue;
                    }
                    let v = match &call.arg {
                        None => Value::Int(1), // count(*)
                        Some(arg) => {
                            let t = fetch(input, ri)?;
                            let row = [t];
                            let env = RowEnv {
                                bindings,
                                row: &row,
                                aggs: None,
                                outer,
                                slots_valid: true,
                            };
                            eval_expr(arg, &env, ctx)?
                        }
                    };
                    if call.arg.is_some() && v.is_null() {
                        continue; // SQL aggregates ignore NULLs.
                    }
                    if call.distinct && !distinct_seen.insert(v.group_key()) {
                        continue;
                    }
                    state.update(&v)?;
                }
                agg_values.push(state.finish());
            }
            let rep_owned;
            let rep_store;
            let rep: &[&Tuple] = match reps[gi] {
                // For chunk inputs materialize the one representative on
                // the stack rather than through the lazy arena: the fast
                // paths above touch no other rows, so this keeps the
                // whole tick arena-free.
                Some(ri) => {
                    if let Rows::Chunk { view, .. } = input {
                        rep_owned = view
                            .tuple_at(ri as usize)
                            .ok_or_else(|| EspError::Plan("window row vanished mid-tick".into()))?;
                        rep_store = [&rep_owned];
                    } else {
                        rep_store = [fetch(input, ri)?];
                    }
                    &rep_store
                }
                None => &[],
            };
            let env = RowEnv {
                bindings,
                row: rep,
                aggs: Some(&agg_values),
                outer,
                slots_valid: true,
            };
            if let Some(h) = &cs.having {
                if !eval_expr(h, &env, ctx)?.truthy() {
                    continue;
                }
            }
            let mut out = Vec::with_capacity(cs.select.len());
            for item in &cs.select {
                out.push(eval_expr(&item.expr, &env, ctx)?);
            }
            out_rows.push(out);
        }
        return Ok(SelectResult {
            schema,
            rows: out_rows,
        });
    }

    // Phase 2': `SELECT *` over one item — the single-item case of
    // [`eval_star`] (no schema join needed, same interning). Chunk-backed
    // inputs copy values straight out of the columns.
    if cs.select.is_empty() {
        let Some(&first) = kept.first() else {
            return Ok(SelectResult {
                schema: Schema::new(vec![])?,
                rows: vec![],
            });
        };
        if let Rows::Chunk { view, .. } = input {
            let schema = registry::intern(view.schema());
            let mut out = Vec::with_capacity(kept.len());
            for &i in &kept {
                out.push(
                    view.row_values(i as usize)
                        .ok_or_else(|| EspError::Plan("window row vanished mid-tick".into()))?,
                );
            }
            return Ok(SelectResult { schema, rows: out });
        }
        let schema = registry::intern(fetch(input, first)?.schema());
        let mut out = Vec::with_capacity(kept.len());
        for &i in &kept {
            out.push(fetch(input, i)?.values().to_vec());
        }
        return Ok(SelectResult { schema, rows: out });
    }

    // Phase 2'': explicit projection. When every select expression is
    // column-resolvable, project straight from the chunk.
    let schema = cs.output_schema.clone().ok_or_else(|| {
        EspError::Plan("explicit projection compiled without an output schema".into())
    })?;
    let columnar = match input {
        Rows::Chunk { view, .. }
            if cs
                .select
                .iter()
                .all(|item| col_supported(&item.expr, view.schema())) =>
        {
            Some(*view)
        }
        _ => None,
    };
    let mut rows = Vec::with_capacity(kept.len());
    for &i in &kept {
        let mut out = Vec::with_capacity(cs.select.len());
        match &columnar {
            Some(view) => {
                for item in &cs.select {
                    out.push(eval_col(&item.expr, view, i as usize)?);
                }
            }
            None => {
                let t = fetch(input, i)?;
                let row = [t];
                let env = RowEnv {
                    bindings,
                    row: &row,
                    aggs: None,
                    outer,
                    slots_valid: true,
                };
                for item in &cs.select {
                    out.push(eval_expr(&item.expr, &env, ctx)?);
                }
            }
        }
        rows.push(out);
    }
    Ok(SelectResult { schema, rows })
}

#[allow(clippy::too_many_arguments)]
fn fold_aggregate(
    call: &AggCall,
    bindings: &[Option<String>],
    rows: &[Vec<&Tuple>],
    members: &[usize],
    outer: Option<&RowEnv<'_>>,
    uniform: bool,
    ctx: &ExecCtx<'_>,
) -> Result<Value> {
    let mut state = call.factory.make();
    let mut distinct_seen: HashSet<ValueKey> = HashSet::new();
    for &ri in members {
        let row = &rows[ri];
        let v = match &call.arg {
            None => Value::Int(1), // count(*)
            Some(arg) => {
                let env = RowEnv {
                    bindings,
                    row,
                    aggs: None,
                    outer,
                    slots_valid: uniform,
                };
                eval_expr(arg, &env, ctx)?
            }
        };
        if call.arg.is_some() && v.is_null() {
            continue; // SQL aggregates ignore NULLs.
        }
        if call.distinct && !distinct_seen.insert(v.group_key()) {
            continue;
        }
        state.update(&v)?;
    }
    Ok(state.finish())
}

/// View (or, for derived tables, materialize) the rows of one FROM item.
fn materialize_from<'q>(
    item: &'q CFromItem,
    outer: Option<&RowEnv<'_>>,
    ctx: &ExecCtx<'q>,
) -> Result<Rows<'q>> {
    match &item.source {
        CSource::Stream { window, .. } => Ok(match window.chunk_view() {
            Some(view) => Rows::from_chunk(view),
            None => Rows::View(window.view()),
        }),
        CSource::Relation { name } => ctx
            .catalog
            .relation(name)
            .map(|r| Rows::View(WindowView::of_slice(&r[..])))
            .ok_or_else(|| EspError::UnknownSource(name.clone())),
        CSource::Derived(sub) => {
            let result = eval_select(sub, outer, ctx)?;
            Ok(Rows::Owned(result.into_batch(ctx.epoch)))
        }
    }
}

/// Fetch a slot-resolved field, or `None` when the runtime environment
/// doesn't match the plan and the name walk must run instead.
fn slot_lookup(slot: &FieldSlot, env: &RowEnv<'_>) -> Option<Value> {
    // Every scope on the way to (and including) the slot's must be
    // uniform: a non-conforming tuple in an intermediate scope could
    // shadow the name or make it ambiguous where the plan assumed not.
    let mut target = env;
    if !target.slots_valid {
        return None;
    }
    for _ in 0..slot.depth {
        target = target.outer?;
        if !target.slots_valid {
            return None;
        }
    }
    let t = target.row.get(slot.from_idx as usize)?;
    if !Arc::ptr_eq(t.schema(), &slot.schema) {
        return None;
    }
    t.values().get(slot.col_idx as usize).cloned()
}

/// Evaluate one expression against a row environment.
pub fn eval_expr(e: &CExpr, env: &RowEnv<'_>, ctx: &ExecCtx<'_>) -> Result<Value> {
    match e {
        CExpr::Literal(v) => Ok(v.clone()),
        CExpr::Field {
            qualifier,
            name,
            slot,
            ..
        } => {
            if let Some(s) = slot {
                if let Some(v) = slot_lookup(s, env) {
                    return Ok(v);
                }
            }
            resolve_field(qualifier.as_deref(), name, env)
        }
        CExpr::Agg { idx, key } => match env.aggs {
            Some(aggs) => Ok(aggs[*idx].clone()),
            None => Err(EspError::Plan(format!(
                "aggregate {key} referenced outside a grouped context"
            ))),
        },
        CExpr::Scalar { func, args, .. } => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval_expr(a, env, ctx)?);
            }
            func(&vals)
        }
        CExpr::Cmp { lhs, op, rhs } => {
            let l = eval_expr(lhs, env, ctx)?;
            let r = eval_expr(rhs, env, ctx)?;
            Ok(Value::Bool(
                l.sql_cmp(&r).map(|o| op.matches(o)).unwrap_or(false),
            ))
        }
        CExpr::Quantified {
            lhs,
            op,
            quantifier,
            subquery,
        } => {
            let l = eval_expr(lhs, env, ctx)?;
            let result = eval_select(subquery, Some(env), ctx)?;
            let mut all = true;
            let mut any = false;
            for row in &result.rows {
                let matched = l.sql_cmp(&row[0]).map(|o| op.matches(o)).unwrap_or(false);
                all &= matched;
                any |= matched;
            }
            Ok(Value::Bool(match quantifier {
                Quantifier::All => all, // vacuously true over empty results
                Quantifier::Any => any, // vacuously false over empty results
            }))
        }
        CExpr::Arith { lhs, op, rhs } => {
            let l = eval_expr(lhs, env, ctx)?;
            let r = eval_expr(rhs, env, ctx)?;
            eval_arith(&l, *op, &r)
        }
        CExpr::And(a, b) => {
            if !eval_expr(a, env, ctx)?.truthy() {
                return Ok(Value::Bool(false));
            }
            Ok(Value::Bool(eval_expr(b, env, ctx)?.truthy()))
        }
        CExpr::Or(a, b) => {
            if eval_expr(a, env, ctx)?.truthy() {
                return Ok(Value::Bool(true));
            }
            Ok(Value::Bool(eval_expr(b, env, ctx)?.truthy()))
        }
        CExpr::Not(x) => Ok(Value::Bool(!eval_expr(x, env, ctx)?.truthy())),
        CExpr::Neg(x) => match eval_expr(x, env, ctx)? {
            Value::Int(i) => Ok(Value::Int(-i)),
            Value::Float(f) => Ok(Value::Float(-f)),
            Value::Null => Ok(Value::Null),
            other => Err(EspError::Type(format!("cannot negate {other}"))),
        },
    }
}

fn eval_arith(l: &Value, op: ArithOp, r: &Value) -> Result<Value> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    // Integer-preserving for +,-,*,% over two ints; `/` is always float.
    if let (Value::Int(a), Value::Int(b)) = (l, r) {
        match op {
            ArithOp::Add => return Ok(Value::Int(a + b)),
            ArithOp::Sub => return Ok(Value::Int(a - b)),
            ArithOp::Mul => return Ok(Value::Int(a * b)),
            ArithOp::Mod => {
                if *b == 0 {
                    return Ok(Value::Null);
                }
                return Ok(Value::Int(a % b));
            }
            ArithOp::Div => {}
        }
    }
    let (a, b) = (
        l.expect_f64(&format!("left operand of {}", op.symbol()))?,
        r.expect_f64(&format!("right operand of {}", op.symbol()))?,
    );
    let v = match op {
        ArithOp::Add => a + b,
        ArithOp::Sub => a - b,
        ArithOp::Mul => a * b,
        ArithOp::Div => {
            if b == 0.0 {
                return Ok(Value::Null);
            }
            a / b
        }
        ArithOp::Mod => {
            if b == 0.0 {
                return Ok(Value::Null);
            }
            a % b
        }
    };
    Ok(Value::Float(v))
}

/// Resolve a (possibly qualified) field reference by name: current scope
/// first, then enclosing scopes (correlation). This is the slow path —
/// and the reference semantics the slot fast path must agree with.
fn resolve_field(qualifier: Option<&str>, name: &str, env: &RowEnv<'_>) -> Result<Value> {
    let mut scope: Option<&RowEnv<'_>> = Some(env);
    while let Some(s) = scope {
        match lookup_in_scope(qualifier, name, s)? {
            Some(v) => return Ok(v),
            None => scope = s.outer,
        }
    }
    // Special case: the representative row of an empty global group — all
    // field references are NULL (e.g. `SELECT tag_id, count(*) FROM empty`).
    if env.row.is_empty() && env.aggs.is_some() {
        return Ok(Value::Null);
    }
    match qualifier {
        Some(q) => Err(EspError::UnknownField(format!("{q}.{name}"))),
        None => Err(EspError::UnknownField(name.to_string())),
    }
}

fn lookup_in_scope(qualifier: Option<&str>, name: &str, s: &RowEnv<'_>) -> Result<Option<Value>> {
    let mut found: Option<&Value> = None;
    for (i, t) in s.row.iter().enumerate() {
        if let Some(q) = qualifier {
            if s.bindings[i].as_deref() != Some(q) {
                continue;
            }
        }
        if let Some(v) = t.get(name) {
            if found.is_some() && qualifier.is_none() {
                return Err(EspError::Plan(format!(
                    "ambiguous field reference '{name}' (qualify it)"
                )));
            }
            found = Some(v);
            if qualifier.is_some() {
                break;
            }
        }
    }
    Ok(found.cloned())
}

/// Helper used by schema inference in tests: the runtime schema of a star
/// select over `example` input schemas.
pub fn star_schema(schemas: &[(Option<&str>, Arc<Schema>)]) -> Result<Arc<Schema>> {
    let mut fields: Vec<Field> = Vec::new();
    let mut joined: Option<Arc<Schema>> = None;
    for (binding, schema) in schemas {
        joined = Some(match joined {
            None => Arc::clone(schema),
            Some(j) => j.join(schema, Some(binding.unwrap_or("right")))?,
        });
    }
    match joined {
        Some(j) => Ok(j),
        None => Schema::new(std::mem::take(&mut fields)),
    }
}

/// Compare two values for ORDER-like uses elsewhere in the workspace.
pub fn value_cmp(a: &Value, b: &Value) -> Ordering {
    a.sql_cmp(b)
        .unwrap_or_else(|| a.group_key().cmp(&b.group_key()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::parser::parse;
    use crate::plan::{resolve_pass, Mode};
    use esp_types::{DataType, TupleBuilder};

    fn ctx(catalog: &Catalog) -> ExecCtx<'_> {
        ExecCtx {
            catalog,
            epoch: Ts::from_secs(1),
        }
    }

    fn push_all(cs: &mut CompiledSelect, stream: &str, batch: &[Tuple]) {
        cs.for_each_window(&mut |name, w| {
            if name == stream {
                w.push_batch(batch);
            }
        });
        cs.for_each_window(&mut |_, w| w.advance_to(Ts::from_secs(1)));
    }

    fn reading(schema: &Arc<Schema>, tag: &str) -> Tuple {
        TupleBuilder::new(schema, Ts::from_secs(1))
            .set("tag_id", tag)
            .unwrap()
            .build()
            .unwrap()
    }

    fn tag_schema() -> Arc<Schema> {
        Schema::builder()
            .field("tag_id", DataType::Str)
            .build()
            .unwrap()
    }

    #[test]
    fn filter_projects_rows() {
        let catalog = Catalog::new();
        let mut cs = compile(
            &parse("SELECT tag_id FROM s [Range By '5 sec'] WHERE tag_id != 'b'").unwrap(),
            &catalog,
        )
        .unwrap();
        let schema = tag_schema();
        push_all(
            &mut cs,
            "s",
            &[reading(&schema, "a"), reading(&schema, "b")],
        );
        let r = eval_select(&cs, None, &ctx(&catalog)).unwrap();
        assert_eq!(r.rows, vec![vec![Value::str("a")]]);
        assert_eq!(r.schema.fields()[0].name, "tag_id");
    }

    #[test]
    fn filter_projects_rows_with_slots() {
        // Same query as `filter_projects_rows`, but resolved: the result
        // must be identical through the slot fast path.
        let catalog = Catalog::new();
        let mut cs = compile(
            &parse("SELECT tag_id FROM s [Range By '5 sec'] WHERE tag_id != 'b'").unwrap(),
            &catalog,
        )
        .unwrap();
        let schema = tag_schema();
        push_all(
            &mut cs,
            "s",
            &[reading(&schema, "a"), reading(&schema, "b")],
        );
        assert!(resolve_pass(&mut cs, &[], &catalog, Mode::Lazy).is_empty());
        let r = eval_select(&cs, None, &ctx(&catalog)).unwrap();
        assert_eq!(r.rows, vec![vec![Value::str("a")]]);
    }

    #[test]
    fn group_by_counts() {
        let catalog = Catalog::new();
        let mut cs = compile(
            &parse("SELECT tag_id, count(*) FROM s [Range By '5 sec'] GROUP BY tag_id").unwrap(),
            &catalog,
        )
        .unwrap();
        let schema = tag_schema();
        push_all(
            &mut cs,
            "s",
            &[
                reading(&schema, "a"),
                reading(&schema, "b"),
                reading(&schema, "a"),
            ],
        );
        let r = eval_select(&cs, None, &ctx(&catalog)).unwrap();
        assert_eq!(
            r.rows,
            vec![
                vec![Value::str("a"), Value::Int(2)],
                vec![Value::str("b"), Value::Int(1)]
            ]
        );
    }

    #[test]
    fn global_aggregate_over_empty_input_emits_one_row() {
        let catalog = Catalog::new();
        let cs = compile(
            &parse("SELECT count(*) FROM s [Range By '5 sec']").unwrap(),
            &catalog,
        )
        .unwrap();
        let r = eval_select(&cs, None, &ctx(&catalog)).unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(0)]]);
    }

    #[test]
    fn having_filters_global_group() {
        let catalog = Catalog::new();
        let cs = compile(
            &parse("SELECT 1 AS cnt FROM s [Range By 'NOW'] HAVING count(distinct tag_id) > 1")
                .unwrap(),
            &catalog,
        )
        .unwrap();
        let r = eval_select(&cs, None, &ctx(&catalog)).unwrap();
        assert!(r.rows.is_empty(), "count 0 fails HAVING");
    }

    #[test]
    fn field_reference_on_empty_global_group_is_null() {
        let catalog = Catalog::new();
        let cs = compile(
            &parse("SELECT tag_id, count(*) FROM s [Range By 'NOW']").unwrap(),
            &catalog,
        )
        .unwrap();
        let r = eval_select(&cs, None, &ctx(&catalog)).unwrap();
        assert_eq!(r.rows, vec![vec![Value::Null, Value::Int(0)]]);
    }

    #[test]
    fn cross_join_with_static_relation() {
        let mut catalog = Catalog::new();
        let schema = tag_schema();
        catalog.register_relation(
            "expected",
            vec![reading(&schema, "a"), reading(&schema, "c")],
        );
        let mut cs = compile(
            &parse(
                "SELECT s.tag_id FROM s [Range By '5 sec'], expected e \
                 WHERE s.tag_id = e.tag_id",
            )
            .unwrap(),
            &catalog,
        )
        .unwrap();
        push_all(
            &mut cs,
            "s",
            &[reading(&schema, "a"), reading(&schema, "b")],
        );
        let r = eval_select(&cs, None, &ctx(&catalog)).unwrap();
        assert_eq!(r.rows, vec![vec![Value::str("a")]]);
    }

    #[test]
    fn hash_join_matches_nested_loop() {
        // Resolved plan → hash join; unresolved → odometer. Same rows,
        // same order.
        let sql = "SELECT l.tag_id, r.tag_id FROM a l [Range '5 sec'], b r [Range '5 sec'] \
                   WHERE l.tag_id = r.tag_id";
        let catalog = Catalog::new();
        let schema = registry::intern(&tag_schema());
        let batch_a = [
            reading(&schema, "x"),
            reading(&schema, "y"),
            reading(&schema, "x"),
        ];
        let batch_b = [
            reading(&schema, "x"),
            reading(&schema, "z"),
            reading(&schema, "x"),
        ];
        let run = |resolved: bool| {
            let mut cs = compile(&parse(sql).unwrap(), &catalog).unwrap();
            push_all(&mut cs, "a", &batch_a);
            push_all(&mut cs, "b", &batch_b);
            if resolved {
                assert!(resolve_pass(&mut cs, &[], &catalog, Mode::Lazy).is_empty());
                let plan = cs.plan.as_ref().unwrap();
                assert!(plan.join.is_some(), "equi-join key extracted");
            }
            eval_select(&cs, None, &ctx(&catalog)).unwrap().rows
        };
        let hash = run(true);
        let scan = run(false);
        assert_eq!(hash, scan);
        // x-rows pair up 2×2, in left-major order.
        assert_eq!(hash.len(), 4);
        assert_eq!(hash[0], vec![Value::str("x"), Value::str("x")]);
    }

    #[test]
    fn hash_join_excludes_null_keys() {
        let catalog = Catalog::new();
        let schema =
            registry::intern(&Schema::builder().field("k", DataType::Str).build().unwrap());
        let null_row = |ts| Tuple::new_unchecked(Arc::clone(&schema), ts, vec![Value::Null]);
        let mut cs = compile(
            &parse("SELECT l.k FROM a l [Range '5 sec'], b r [Range '5 sec'] WHERE l.k = r.k")
                .unwrap(),
            &catalog,
        )
        .unwrap();
        push_all(&mut cs, "a", &[null_row(Ts::from_secs(1))]);
        push_all(&mut cs, "b", &[null_row(Ts::from_secs(1))]);
        resolve_pass(&mut cs, &[], &catalog, Mode::Lazy);
        let r = eval_select(&cs, None, &ctx(&catalog)).unwrap();
        assert!(r.rows.is_empty(), "NULL = NULL is not a match");
    }

    #[test]
    fn arith_semantics() {
        // int preservation and float division
        assert_eq!(
            eval_arith(&Value::Int(7), ArithOp::Add, &Value::Int(3)).unwrap(),
            Value::Int(10)
        );
        assert_eq!(
            eval_arith(&Value::Int(7), ArithOp::Div, &Value::Int(2)).unwrap(),
            Value::Float(3.5)
        );
        assert_eq!(
            eval_arith(&Value::Int(7), ArithOp::Mod, &Value::Int(0)).unwrap(),
            Value::Null
        );
        assert_eq!(
            eval_arith(&Value::Float(1.0), ArithOp::Div, &Value::Float(0.0)).unwrap(),
            Value::Null
        );
        assert_eq!(
            eval_arith(&Value::Null, ArithOp::Add, &Value::Int(1)).unwrap(),
            Value::Null
        );
        assert!(eval_arith(&Value::str("x"), ArithOp::Add, &Value::Int(1)).is_err());
    }

    #[test]
    fn ambiguous_unqualified_reference_errors() {
        let catalog = Catalog::new();
        let mut cs = compile(
            &parse("SELECT tag_id FROM a [Range '5 sec'], b [Range '5 sec']").unwrap(),
            &catalog,
        )
        .unwrap();
        let schema = tag_schema();
        push_all(&mut cs, "a", &[reading(&schema, "x")]);
        push_all(&mut cs, "b", &[reading(&schema, "y")]);
        let err = eval_select(&cs, None, &ctx(&catalog)).unwrap_err();
        assert!(err.to_string().contains("ambiguous"));
    }

    #[test]
    fn ambiguous_reference_still_errors_after_resolve() {
        // The resolver marks the reference ambiguous (slot = None); the
        // runtime walk must reproduce the interpreter's error.
        let catalog = Catalog::new();
        let mut cs = compile(
            &parse("SELECT tag_id FROM a [Range '5 sec'], b [Range '5 sec']").unwrap(),
            &catalog,
        )
        .unwrap();
        let schema = tag_schema();
        push_all(&mut cs, "a", &[reading(&schema, "x")]);
        push_all(&mut cs, "b", &[reading(&schema, "y")]);
        let diags = resolve_pass(&mut cs, &[], &catalog, Mode::Lazy);
        assert!(diags.is_empty(), "lazy mode never diagnoses");
        let err = eval_select(&cs, None, &ctx(&catalog)).unwrap_err();
        assert!(err.to_string().contains("ambiguous"));
    }

    #[test]
    fn unknown_field_reported() {
        let catalog = Catalog::new();
        let mut cs = compile(
            &parse("SELECT bogus FROM s [Range '5 sec']").unwrap(),
            &catalog,
        )
        .unwrap();
        let schema = tag_schema();
        push_all(&mut cs, "s", &[reading(&schema, "x")]);
        assert!(matches!(
            eval_select(&cs, None, &ctx(&catalog)),
            Err(EspError::UnknownField(_))
        ));
    }
}
