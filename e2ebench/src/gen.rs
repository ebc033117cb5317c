//! Seeded operation streams for the four workloads, each operation
//! carrying the result the engine must return for it.
//!
//! A stream is a closed-loop client's script: the driver asks for the
//! next operation only after the previous one was answered, so every
//! generator keeps a small model of the table (which ids are live, how
//! many rows it has inserted) and derives the expected result from it.
//! The engine never sees the seed — only the generated SQL and rows.

use std::collections::HashMap;

use oblidb_core::{Row, Value};
use oblidb_enclave::EnclaveRng;

/// Rows a range read selects (Figure 12's "small read").
pub const RANGE_ROWS: i64 = 50;

/// Statements inside one `BEGIN … COMMIT` of `durable_writes`.
pub const TXN_INSERTS: usize = 3;

/// What a client sends for one operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Verb {
    /// One autocommit statement.
    Sql(String),
    /// `BEGIN`, these statements, `COMMIT`.
    Txn(Vec<String>),
}

impl Verb {
    /// Requests this verb puts on the wire (each is acknowledged).
    pub fn statements(&self) -> u64 {
        match self {
            Verb::Sql(_) => 1,
            Verb::Txn(stmts) => stmts.len() as u64 + 2,
        }
    }
}

/// An order-independent fingerprint of a result set. Floats are summed
/// rather than hashed: the engine and the reference add them in
/// different orders, so their low bits legitimately differ.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Digest {
    /// Row count.
    pub rows: usize,
    /// Wrapping sum of per-row FNV-1a hashes over the non-float values.
    pub hash: u64,
    /// Sum of every float value.
    pub float_sum: f64,
}

impl Digest {
    /// Fingerprints `rows`.
    pub fn of<'a>(rows: impl IntoIterator<Item = &'a Row>) -> Digest {
        let mut d = Digest { rows: 0, hash: 0, float_sum: 0.0 };
        for row in rows {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            let mut eat = |bytes: &[u8]| {
                for b in bytes {
                    h = (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            };
            for value in row {
                match value {
                    Value::Int(i) => {
                        eat(b"i");
                        eat(&i.to_le_bytes());
                    }
                    Value::Text(s) => {
                        eat(b"t");
                        eat(s.as_bytes());
                        eat(&[0xff]);
                    }
                    Value::Float(f) => {
                        eat(b"f");
                        d.float_sum += f;
                    }
                }
            }
            d.rows += 1;
            d.hash = d.hash.wrapping_add(h);
        }
        d
    }

    /// Equality up to float summation order (relative 1e-9).
    pub fn matches(&self, other: &Digest) -> bool {
        self.rows == other.rows
            && self.hash == other.hash
            && (self.float_sum - other.float_sum).abs()
                <= 1e-9 * self.float_sum.abs().max(other.float_sum.abs()).max(1.0)
    }
}

/// The result an operation must produce.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    /// A result set with this fingerprint.
    Rows(Digest),
    /// One row whose first column is a count of at least this much (a
    /// concurrent client's inserts may add to it).
    CountAtLeast(i64),
    /// A mutation (or committed transaction) changing this many rows.
    Affected(u64),
}

/// One scripted operation.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    /// Index into the workload's class table.
    pub class: usize,
    /// What to send.
    pub verb: Verb,
    /// What must come back.
    pub expect: Expect,
    /// Change in the table's live row count once this succeeds.
    pub rows_delta: i64,
}

/// A closed-loop client's script.
pub trait OpStream: Send {
    /// The next operation; the previous one is assumed applied.
    fn next_op(&mut self) -> Op;
}

fn rng_for(seed: u64, salt: u64) -> EnclaveRng {
    EnclaveRng::seed_from_u64(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Deals statement classes in shuffled blocks of 100 that each hold
/// exactly the stated percentages. A per-operation coin flip would leave
/// the count of the rare, expensive class (a 180 ms delete among 1 ms
/// reads) to chance, and that count alone would move `ops_per_s` by
/// ±10 % from one seed to the next.
struct Deck {
    percent: &'static [usize],
    cards: Vec<usize>,
}

impl Deck {
    fn new(percent: &'static [usize]) -> Deck {
        debug_assert_eq!(percent.iter().sum::<usize>(), 100);
        Deck { percent, cards: Vec::new() }
    }

    fn draw(&mut self, rng: &mut EnclaveRng) -> usize {
        if self.cards.is_empty() {
            for (class, &share) in self.percent.iter().enumerate() {
                self.cards.extend(std::iter::repeat_n(class, share));
            }
            for i in (1..self.cards.len()).rev() {
                self.cards.swap(i, rng.below(i as u64 + 1) as usize);
            }
        }
        self.cards.pop().expect("deck was just refilled")
    }
}

fn synthetic_row(id: i64, val: i64) -> Row {
    vec![Value::Int(id), Value::Int(val), Value::Text("xxxx".into())]
}

fn insert_sql(id: i64, val: i64) -> String {
    format!("INSERT INTO t VALUES ({id}, {val}, 'xxxx')")
}

fn range_sql(lo: i64) -> String {
    format!("SELECT * FROM t WHERE id >= {lo} AND id < {}", lo + RANGE_ROWS)
}

/// `bdb_scan`: cycles Q1, Q2, Q3 (classes 0, 1, 2).
pub struct BdbStream {
    queries: [(String, Digest); 3],
    next: usize,
}

impl BdbStream {
    /// A stream over the three queries and their reference digests.
    pub fn new(queries: [(String, Digest); 3]) -> Self {
        BdbStream { queries, next: 0 }
    }
}

impl OpStream for BdbStream {
    fn next_op(&mut self) -> Op {
        let class = self.next % 3;
        self.next += 1;
        let (sql, digest) = &self.queries[class];
        Op { class, verb: Verb::Sql(sql.clone()), expect: Expect::Rows(*digest), rows_delta: 0 }
    }
}

/// Classes of `index_mix`, in [`Op::class`] order.
pub const INDEX_MIX_CLASSES: [&str; 4] = ["point", "range", "insert", "delete"];

/// `index_mix`: 50 % point reads, 40 % 50-row range reads, 9 % inserts,
/// 1 % deletes over an id-indexed table, one client.
pub struct IndexMixStream {
    rng: EnclaveRng,
    deck: Deck,
    /// Live rows by id: the initial table, then this stream's inserts.
    rows: Vec<Option<Row>>,
}

impl IndexMixStream {
    /// A stream over `initial` (row `i` has id `i`).
    pub fn new(initial: &[Row], seed: u64) -> Self {
        IndexMixStream {
            rng: rng_for(seed, 0x1d),
            deck: Deck::new(&[50, 40, 9, 1]),
            rows: initial.iter().cloned().map(Some).collect(),
        }
    }
}

impl OpStream for IndexMixStream {
    fn next_op(&mut self) -> Op {
        let n = self.rows.len() as u64;
        let class = self.deck.draw(&mut self.rng);
        if class == 0 {
            let id = self.rng.below(n) as usize;
            let expect = Expect::Rows(Digest::of(self.rows[id].iter()));
            let sql = format!("SELECT * FROM t WHERE id = {id}");
            Op { class: 0, verb: Verb::Sql(sql), expect, rows_delta: 0 }
        } else if class == 1 {
            let lo = self.rng.below(n - RANGE_ROWS as u64) as usize;
            let live = self.rows[lo..lo + RANGE_ROWS as usize].iter().flatten();
            let expect = Expect::Rows(Digest::of(live));
            Op { class: 1, verb: Verb::Sql(range_sql(lo as i64)), expect, rows_delta: 0 }
        } else if class == 2 {
            let (id, val) = (n as i64, -(self.rng.below(1 << 30) as i64) - 1);
            self.rows.push(Some(synthetic_row(id, val)));
            Op {
                class: 2,
                verb: Verb::Sql(insert_sql(id, val)),
                expect: Expect::Affected(1),
                rows_delta: 1,
            }
        } else {
            // Delete a live row (retry the draw over tombstones; at 1 %
            // deletes the table never runs out).
            let id = loop {
                let id = self.rng.below(n) as usize;
                if self.rows[id].is_some() {
                    break id;
                }
            };
            self.rows[id] = None;
            let sql = format!("DELETE FROM t WHERE id = {id}");
            Op { class: 3, verb: Verb::Sql(sql), expect: Expect::Affected(1), rows_delta: -1 }
        }
    }
}

/// Classes of `serve_mixed`, in [`Op::class`] order.
pub const SERVE_MIXED_CLASSES: [&str; 4] = ["range", "equality", "aggregate", "insert"];

/// `serve_mixed`, one client: every tenth statement is an insert at a
/// client-unique key; the reads between cycle a 50-row range, an equality
/// on `val`, and `COUNT(*), SUM(val)`.
pub struct ServeMixedStream {
    rng: EnclaveRng,
    initial: std::sync::Arc<ServeMixedTable>,
    client: u64,
    issued: u64,
    reads: u64,
    inserted: i64,
}

/// The loaded table, shared by every client's stream.
pub struct ServeMixedTable {
    rows: Vec<Row>,
    by_val: HashMap<i64, Vec<usize>>,
}

impl ServeMixedTable {
    /// Indexes `rows` (row `i` has id `i`) by their `val` column.
    pub fn new(rows: Vec<Row>) -> Self {
        let mut by_val: HashMap<i64, Vec<usize>> = HashMap::new();
        for (i, row) in rows.iter().enumerate() {
            by_val.entry(row[1].as_int().expect("val is INT")).or_default().push(i);
        }
        ServeMixedTable { rows, by_val }
    }
}

impl ServeMixedStream {
    /// Client `client`'s stream over the shared loaded table.
    pub fn new(initial: std::sync::Arc<ServeMixedTable>, client: u64, seed: u64) -> Self {
        ServeMixedStream {
            rng: rng_for(seed, 0x5e00 + client),
            initial,
            client,
            issued: 0,
            reads: 0,
            inserted: 0,
        }
    }
}

impl OpStream for ServeMixedStream {
    fn next_op(&mut self) -> Op {
        self.issued += 1;
        if self.issued % 10 == 0 {
            // Inserted rows carry a negative `val`, so equality reads on
            // the loaded (non-negative) values never match them.
            let id = 1_000_000 * (self.client as i64 + 1) + self.inserted;
            self.inserted += 1;
            return Op {
                class: 3,
                verb: Verb::Sql(insert_sql(id, -1)),
                expect: Expect::Affected(1),
                rows_delta: 1,
            };
        }
        let table = &self.initial;
        let n = table.rows.len() as u64;
        let shape = self.reads % 3;
        self.reads += 1;
        match shape {
            0 => {
                let lo = self.rng.below(n - RANGE_ROWS as u64) as usize;
                let digest = Digest::of(&table.rows[lo..lo + RANGE_ROWS as usize]);
                Op {
                    class: 0,
                    verb: Verb::Sql(range_sql(lo as i64)),
                    expect: Expect::Rows(digest),
                    rows_delta: 0,
                }
            }
            1 => {
                let val = table.rows[self.rng.below(n) as usize][1].as_int().expect("val is INT");
                let digest = Digest::of(table.by_val[&val].iter().map(|&i| &table.rows[i]));
                let sql = format!("SELECT * FROM t WHERE val = {val}");
                Op { class: 1, verb: Verb::Sql(sql), expect: Expect::Rows(digest), rows_delta: 0 }
            }
            _ => Op {
                class: 2,
                verb: Verb::Sql("SELECT COUNT(*), SUM(val) FROM t".into()),
                expect: Expect::CountAtLeast(n as i64 + self.inserted),
                rows_delta: 0,
            },
        }
    }
}

/// Classes of `durable_writes`, in [`Op::class`] order.
pub const DURABLE_WRITES_CLASSES: [&str; 3] = ["insert", "txn", "update"];

/// `durable_writes`, one client: 88 % autocommit inserts, 10 %
/// three-insert transactions, 2 % single-row updates of a loaded row.
pub struct DurableWritesStream {
    rng: EnclaveRng,
    deck: Deck,
    initial_rows: u64,
    client: u64,
    inserted: i64,
}

impl DurableWritesStream {
    /// Client `client`'s stream over a table loaded with ids `0..initial_rows`.
    pub fn new(initial_rows: u64, client: u64, seed: u64) -> Self {
        DurableWritesStream {
            rng: rng_for(seed, 0xd000 + client),
            deck: Deck::new(&[88, 10, 2]),
            initial_rows,
            client,
            inserted: 0,
        }
    }

    fn next_insert(&mut self) -> String {
        let id = 1_000_000 * (self.client as i64 + 1) + self.inserted;
        self.inserted += 1;
        insert_sql(id, id)
    }
}

impl OpStream for DurableWritesStream {
    fn next_op(&mut self) -> Op {
        let class = self.deck.draw(&mut self.rng);
        if class == 0 {
            let sql = self.next_insert();
            Op { class: 0, verb: Verb::Sql(sql), expect: Expect::Affected(1), rows_delta: 1 }
        } else if class == 1 {
            let stmts: Vec<String> = (0..TXN_INSERTS).map(|_| self.next_insert()).collect();
            Op {
                class: 1,
                expect: Expect::Affected(stmts.len() as u64),
                rows_delta: stmts.len() as i64,
                verb: Verb::Txn(stmts),
            }
        } else {
            let id = self.rng.below(self.initial_rows);
            let sql = format!("UPDATE t SET val = {} WHERE id = {id}", self.rng.below(1 << 30));
            Op { class: 2, verb: Verb::Sql(sql), expect: Expect::Affected(1), rows_delta: 0 }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oblidb_workloads::synthetic;

    fn take(stream: &mut dyn OpStream, n: usize) -> Vec<Op> {
        (0..n).map(|_| stream.next_op()).collect()
    }

    fn share(ops: &[Op], class: usize) -> f64 {
        ops.iter().filter(|o| o.class == class).count() as f64 / ops.len() as f64
    }

    #[test]
    fn digest_ignores_row_order_and_float_summation_order() {
        let a: Row = vec![Value::Int(1), Value::Text("x".into()), Value::Float(0.1)];
        let b: Row = vec![Value::Int(2), Value::Text("y".into()), Value::Float(0.2)];
        let c: Row = vec![Value::Int(3), Value::Text("z".into()), Value::Float(0.3)];
        let d1 = Digest::of([&a, &b, &c]);
        let d2 = Digest::of([&c, &a, &b]);
        assert!(d1.matches(&d2));
        assert!(!d1.matches(&Digest::of([&a, &b])));
        let changed: Row = vec![Value::Int(3), Value::Text("z".into()), Value::Float(0.31)];
        assert!(!d1.matches(&Digest::of([&a, &b, &changed])));
        let renamed: Row = vec![Value::Int(3), Value::Text("zz".into()), Value::Float(0.3)];
        assert!(!d1.matches(&Digest::of([&a, &b, &renamed])));
    }

    #[test]
    fn index_mix_is_deterministic_per_seed_and_honours_its_mix() {
        let rows = synthetic::table(2_000, 8, 3);
        let ops = take(&mut IndexMixStream::new(&rows, 7), 20_000);
        assert_eq!(ops, take(&mut IndexMixStream::new(&rows, 7), 20_000));
        assert_ne!(ops, take(&mut IndexMixStream::new(&rows, 8), 20_000));
        // Every block of 100 operations holds the stated mix exactly.
        for block in ops.chunks(100) {
            for (class, want) in [(0, 0.50), (1, 0.40), (2, 0.09), (3, 0.01)] {
                assert_eq!(share(block, class), want, "{}", INDEX_MIX_CLASSES[class]);
            }
        }
    }

    #[test]
    fn index_mix_expectations_follow_its_own_deletes_and_inserts() {
        let rows = synthetic::table(200, 8, 3);
        let mut stream = IndexMixStream::new(&rows, 11);
        let mut live: Vec<Option<Row>> = rows.iter().cloned().map(Some).collect();
        for op in take(&mut stream, 5_000) {
            let Verb::Sql(sql) = &op.verb else { panic!("index_mix has no transactions") };
            match op.class {
                0 => {
                    let id: usize = sql.rsplit(' ').next().unwrap().parse().unwrap();
                    assert_eq!(op.expect, Expect::Rows(Digest::of(live[id].iter())));
                }
                2 => {
                    assert!(sql.starts_with(&format!("INSERT INTO t VALUES ({}, -", live.len())));
                    let val: i64 = sql.split(", ").nth(1).unwrap().parse().unwrap();
                    live.push(Some(synthetic_row(live.len() as i64, val)));
                }
                3 => {
                    let id: usize = sql.rsplit(' ').next().unwrap().parse().unwrap();
                    assert!(live[id].take().is_some(), "deleted a dead row");
                }
                _ => {}
            }
        }
    }

    #[test]
    fn serve_mixed_inserts_every_tenth_and_cycles_three_read_shapes() {
        let table = std::sync::Arc::new(ServeMixedTable::new(synthetic::table(500, 8, 5)));
        let ops = take(&mut ServeMixedStream::new(table.clone(), 0, 9), 3_000);
        assert_eq!(ops, take(&mut ServeMixedStream::new(table.clone(), 0, 9), 3_000));
        assert_ne!(ops, take(&mut ServeMixedStream::new(table.clone(), 1, 9), 3_000));
        assert_eq!(share(&ops, 3), 0.10);
        for read_shape in 0..3 {
            assert_eq!(share(&ops, read_shape), 0.30);
        }
        // The aggregate's floor counts this client's own inserts so far.
        let last_agg = ops.iter().rev().find(|o| o.class == 2).unwrap();
        assert_eq!(last_agg.expect, Expect::CountAtLeast(500 + 299));
    }

    #[test]
    fn serve_mixed_clients_never_collide_on_keys() {
        let table = std::sync::Arc::new(ServeMixedTable::new(synthetic::table(100, 8, 5)));
        let keys = |client| -> Vec<String> {
            take(&mut ServeMixedStream::new(table.clone(), client, 1), 200)
                .into_iter()
                .filter(|o| o.class == 3)
                .map(|o| format!("{:?}", o.verb))
                .collect()
        };
        assert!(keys(0).iter().all(|k| !keys(1).contains(k)));
    }

    #[test]
    fn durable_writes_is_deterministic_and_honours_its_mix() {
        let ops = take(&mut DurableWritesStream::new(1_000, 0, 4), 20_000);
        assert_eq!(ops, take(&mut DurableWritesStream::new(1_000, 0, 4), 20_000));
        assert_ne!(ops, take(&mut DurableWritesStream::new(1_000, 0, 5), 20_000));
        for block in ops.chunks(100) {
            for (class, want) in [(0, 0.88), (1, 0.10), (2, 0.02)] {
                assert_eq!(share(block, class), want, "{}", DURABLE_WRITES_CLASSES[class]);
            }
        }
        let txn = ops.iter().find(|o| o.class == 1).unwrap();
        assert_eq!(txn.verb.statements(), TXN_INSERTS as u64 + 2);
        assert_eq!(txn.rows_delta, TXN_INSERTS as i64);
    }

    #[test]
    fn bdb_cycles_q1_q2_q3() {
        let d = Digest { rows: 0, hash: 0, float_sum: 0.0 };
        let mut s = BdbStream::new([("q1".into(), d), ("q2".into(), d), ("q3".into(), d)]);
        let classes: Vec<usize> = take(&mut s, 7).iter().map(|o| o.class).collect();
        assert_eq!(classes, [0, 1, 2, 0, 1, 2, 0]);
    }
}
