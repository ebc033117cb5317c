//! Recursive-descent SQL parser.

use std::cell::Cell;
use std::fmt::Write as _;

use crate::error::DbError;
use crate::exec::AggFunc;
use crate::predicate::CmpOp;
use crate::table::StorageMethod;
use crate::types::{DataType, Value};

use super::ast::ast_pred::PredExpr;
use super::ast::{
    Assignment, ColumnDef, CreateTable, Delete, Insert, JoinClause, Projection, Select, SelectItem,
    Statement, Update,
};
use super::lexer::{tokenize, Token};

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Result<Token, DbError> {
        let t = self
            .tokens
            .get(self.pos)
            .cloned()
            .ok_or_else(|| DbError::Sql("unexpected end of input".into()))?;
        self.pos += 1;
        Ok(t)
    }

    /// Consumes `kw` if it is next, rewriting its token to the canonical
    /// lowercase spelling so a statement's shape ignores keyword case.
    fn eat_kw(&mut self, kw: &str) -> bool {
        if let Some(Token::Ident(s)) = self.tokens.get_mut(self.pos).filter(|t| t.is_kw(kw)) {
            s.make_ascii_lowercase();
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), DbError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(DbError::Sql(format!("expected {kw}, found {:?}", self.peek())))
        }
    }

    fn eat_sym(&mut self, sym: &str) -> bool {
        if matches!(self.peek(), Some(Token::Sym(s)) if *s == sym) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_sym(&mut self, sym: &str) -> Result<(), DbError> {
        if self.eat_sym(sym) {
            Ok(())
        } else {
            Err(DbError::Sql(format!("expected '{sym}', found {:?}", self.peek())))
        }
    }

    fn ident(&mut self) -> Result<String, DbError> {
        match self.next()? {
            Token::Ident(s) => Ok(s),
            other => Err(DbError::Sql(format!("expected identifier, found {other:?}"))),
        }
    }

    fn literal(&mut self) -> Result<Value, DbError> {
        match self.next()? {
            Token::Int(v) => Ok(Value::Int(v)),
            Token::Float(v) => Ok(Value::Float(v)),
            Token::Str(s) => Ok(Value::Text(s)),
            other => Err(DbError::Sql(format!("expected literal, found {other:?}"))),
        }
    }

    // ---- statements -----------------------------------------------------

    fn statement(&mut self) -> Result<Statement, DbError> {
        let stmt = if self.eat_kw("create") {
            Statement::Create(self.create_table()?)
        } else if self.eat_kw("insert") {
            Statement::Insert(self.insert()?)
        } else if self.eat_kw("select") {
            Statement::Select(self.select()?)
        } else if self.eat_kw("update") {
            Statement::Update(self.update()?)
        } else if self.eat_kw("delete") {
            Statement::Delete(self.delete()?)
        } else if self.eat_kw("explain") {
            if self.eat_kw("analyze") {
                self.expect_kw("select")?;
                Statement::ExplainAnalyze(self.select()?)
            } else {
                self.expect_kw("select")?;
                Statement::Explain(self.select()?)
            }
        } else if self.eat_kw("begin") {
            // Optional noise words, as in the common dialects.
            let _ = self.eat_kw("transaction") || self.eat_kw("work");
            Statement::Begin
        } else if self.eat_kw("commit") {
            let _ = self.eat_kw("transaction") || self.eat_kw("work");
            Statement::Commit
        } else if self.eat_kw("rollback") {
            let _ = self.eat_kw("transaction") || self.eat_kw("work");
            Statement::Rollback
        } else {
            return Err(DbError::Sql(format!("unknown statement start: {:?}", self.peek())));
        };
        let semicolon = self.eat_sym(";");
        if self.pos != self.tokens.len() {
            return Err(DbError::Sql(format!("trailing tokens from {:?}", self.peek())));
        }
        if semicolon {
            // A closing `;` is not part of the statement's shape.
            self.tokens.pop();
        }
        Ok(stmt)
    }

    fn dtype(&mut self) -> Result<DataType, DbError> {
        let name = self.ident()?;
        match name.to_ascii_lowercase().as_str() {
            "int" | "integer" | "bigint" => Ok(DataType::Int),
            "float" | "double" | "real" => Ok(DataType::Float),
            "char" | "varchar" | "text" => {
                self.expect_sym("(")?;
                let n = match self.next()? {
                    Token::Int(v) if v > 0 => v as usize,
                    other => return Err(DbError::Sql(format!("expected width, found {other:?}"))),
                };
                self.expect_sym(")")?;
                Ok(DataType::Text(n))
            }
            other => Err(DbError::Sql(format!("unknown type {other}"))),
        }
    }

    fn create_table(&mut self) -> Result<CreateTable, DbError> {
        self.expect_kw("table")?;
        let name = self.ident()?;
        self.expect_sym("(")?;
        let mut columns = Vec::new();
        loop {
            let col_name = self.ident()?;
            let dtype = self.dtype()?;
            columns.push(ColumnDef { name: col_name, dtype });
            if !self.eat_sym(",") {
                break;
            }
        }
        self.expect_sym(")")?;

        let mut storage = StorageMethod::Flat;
        let mut index_on = None;
        let mut capacity = None;
        loop {
            if self.eat_kw("storage") {
                self.expect_sym("=")?;
                let method = self.ident()?;
                storage = match method.to_ascii_lowercase().as_str() {
                    "flat" => StorageMethod::Flat,
                    "indexed" => StorageMethod::Indexed,
                    "both" => StorageMethod::Both,
                    other => return Err(DbError::Sql(format!("unknown storage {other}"))),
                };
            } else if self.eat_kw("index") {
                self.expect_kw("on")?;
                index_on = Some(self.ident()?);
            } else if self.eat_kw("capacity") {
                capacity = Some(match self.next()? {
                    Token::Int(v) if v > 0 => v as u64,
                    other => {
                        return Err(DbError::Sql(format!("expected capacity, found {other:?}")))
                    }
                });
            } else {
                break;
            }
        }
        Ok(CreateTable { name, columns, storage, index_on, capacity })
    }

    fn insert(&mut self) -> Result<Insert, DbError> {
        self.expect_kw("into")?;
        let table = self.ident()?;
        self.expect_kw("values")?;
        self.expect_sym("(")?;
        let mut values = Vec::new();
        loop {
            values.push(self.literal()?);
            if !self.eat_sym(",") {
                break;
            }
        }
        self.expect_sym(")")?;
        Ok(Insert { table, values })
    }

    fn agg_func(name: &str) -> Option<AggFunc> {
        match name.to_ascii_lowercase().as_str() {
            "count" => Some(AggFunc::Count),
            "sum" => Some(AggFunc::Sum),
            "min" => Some(AggFunc::Min),
            "max" => Some(AggFunc::Max),
            "avg" => Some(AggFunc::Avg),
            _ => None,
        }
    }

    fn select(&mut self) -> Result<Select, DbError> {
        let projection = if self.eat_sym("*") {
            Projection::Star
        } else {
            let mut items = Vec::new();
            loop {
                let name = self.ident()?;
                if let Some(func) = Self::agg_func(&name) {
                    if self.eat_sym("(") {
                        let col = if self.eat_sym("*") { None } else { Some(self.ident()?) };
                        self.expect_sym(")")?;
                        items.push(SelectItem::Aggregate { func, col });
                    } else {
                        items.push(SelectItem::Column(name));
                    }
                } else {
                    items.push(SelectItem::Column(name));
                }
                if !self.eat_sym(",") {
                    break;
                }
            }
            Projection::Items(items)
        };

        self.expect_kw("from")?;
        let table = self.ident()?;

        let join = if self.eat_kw("join") {
            let join_table = self.ident()?;
            self.expect_kw("on")?;
            let a = self.ident()?;
            self.expect_sym("=")?;
            let b = self.ident()?;
            // Attribute the sides by prefix when qualified; otherwise take
            // them in order (FROM-side first).
            let strip = |s: &str| s.rsplit('.').next().unwrap_or(s).to_string();
            let (left_col, right_col) = if b.starts_with(&format!("{table}."))
                || a.starts_with(&format!("{join_table}."))
            {
                (strip(&b), strip(&a))
            } else {
                (strip(&a), strip(&b))
            };
            Some(JoinClause { table: join_table, left_col, right_col })
        } else {
            None
        };

        let where_clause = if self.eat_kw("where") { Some(self.pred_or()?) } else { None };
        let group_by = if self.eat_kw("group") {
            self.expect_kw("by")?;
            Some(self.ident()?)
        } else {
            None
        };
        let order_by = if self.eat_kw("order") {
            self.expect_kw("by")?;
            let col = self.ident()?;
            let desc = if self.eat_kw("desc") {
                true
            } else {
                self.eat_kw("asc");
                false
            };
            Some((col, desc))
        } else {
            None
        };
        let limit = if self.eat_kw("limit") {
            match self.next()? {
                Token::Int(v) if v >= 0 => Some(v as u64),
                other => return Err(DbError::Sql(format!("expected limit, found {other:?}"))),
            }
        } else {
            None
        };

        Ok(Select { projection, table, join, where_clause, group_by, order_by, limit })
    }

    fn update(&mut self) -> Result<Update, DbError> {
        let table = self.ident()?;
        self.expect_kw("set")?;
        let mut sets = Vec::new();
        loop {
            let col = self.ident()?;
            self.expect_sym("=")?;
            let value = self.literal()?;
            sets.push(Assignment { col, value });
            if !self.eat_sym(",") {
                break;
            }
        }
        let where_clause = if self.eat_kw("where") { Some(self.pred_or()?) } else { None };
        Ok(Update { table, sets, where_clause })
    }

    fn delete(&mut self) -> Result<Delete, DbError> {
        self.expect_kw("from")?;
        let table = self.ident()?;
        let where_clause = if self.eat_kw("where") { Some(self.pred_or()?) } else { None };
        Ok(Delete { table, where_clause })
    }

    // ---- predicates (OR < AND < NOT < atom) ------------------------------

    fn pred_or(&mut self) -> Result<PredExpr, DbError> {
        let mut left = self.pred_and()?;
        while self.eat_kw("or") {
            let right = self.pred_and()?;
            left = PredExpr::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn pred_and(&mut self) -> Result<PredExpr, DbError> {
        let mut left = self.pred_not()?;
        while self.eat_kw("and") {
            let right = self.pred_not()?;
            left = PredExpr::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn pred_not(&mut self) -> Result<PredExpr, DbError> {
        if self.eat_kw("not") {
            Ok(PredExpr::Not(Box::new(self.pred_not()?)))
        } else {
            self.pred_atom()
        }
    }

    fn pred_atom(&mut self) -> Result<PredExpr, DbError> {
        if self.eat_sym("(") {
            let inner = self.pred_or()?;
            self.expect_sym(")")?;
            return Ok(inner);
        }
        let col = self.ident()?;
        let op = match self.next()? {
            Token::Sym("=") => CmpOp::Eq,
            Token::Sym("<>") => CmpOp::Ne,
            Token::Sym("<") => CmpOp::Lt,
            Token::Sym("<=") => CmpOp::Le,
            Token::Sym(">") => CmpOp::Gt,
            Token::Sym(">=") => CmpOp::Ge,
            other => return Err(DbError::Sql(format!("expected comparison, found {other:?}"))),
        };
        let value = self.literal()?;
        Ok(PredExpr::Cmp { col, op, value })
    }
}

/// One statement, parsed once: the AST every layer runs, the source text
/// the WAL logs, and the parser's tokens, from which the statement's shape
/// and plan-cache key are rendered only when asked for.
#[derive(Debug)]
pub struct Parsed {
    statement: Statement,
    text: String,
    /// Keywords in canonical lowercase; identifiers as written, since the
    /// catalog is case-sensitive.
    tokens: Vec<Token>,
}

impl Parsed {
    /// The parsed statement.
    pub fn statement(&self) -> &Statement {
        &self.statement
    }

    /// The source text, as given to [`parse`].
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The statement's shape: the parser's tokens space-joined, with every
    /// literal written as `?`. Statements that differ only in literal
    /// values, spacing or keyword case share a shape; `t` and `T` are
    /// different tables, so they do not.
    pub fn shape(&self) -> String {
        self.render(false)
    }

    /// The plan-cache key: the shape with each literal written back in,
    /// typed and exact (`Int(3)`, `Str("x")`), so the key is the pair
    /// (shape, literals) in one string.
    pub fn cache_key(&self) -> String {
        self.render(true)
    }

    fn render(&self, literals: bool) -> String {
        let mut out = String::with_capacity(self.text.len());
        for (i, token) in self.tokens.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            match token {
                Token::Ident(s) => out.push_str(s),
                Token::Sym(s) => out.push_str(s),
                literal if literals => {
                    let _ = write!(out, "{literal:?}");
                }
                _ => out.push('?'),
            }
        }
        out
    }
}

thread_local! {
    static PARSES: Cell<u64> = const { Cell::new(0) };
}

/// How many times [`parse`] has run on the calling thread: a count that
/// tests can read without racing other threads.
pub fn parses_on_this_thread() -> u64 {
    PARSES.with(Cell::get)
}

/// Parses one SQL statement.
pub fn parse(sql: &str) -> Result<Parsed, DbError> {
    PARSES.with(|n| n.set(n.get() + 1));
    let tokens = tokenize(sql)?;
    let mut p = Parser { tokens, pos: 0 };
    let statement = p.statement()?;
    Ok(Parsed { statement, text: sql.to_string(), tokens: p.tokens })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_with_storage_and_index() {
        let stmt = parse(
            "CREATE TABLE users (id INT, name CHAR(16), score FLOAT) \
             STORAGE = BOTH INDEX ON id CAPACITY 5000",
        )
        .unwrap()
        .statement;
        let Statement::Create(c) = stmt else { panic!() };
        assert_eq!(c.name, "users");
        assert_eq!(c.columns.len(), 3);
        assert_eq!(c.columns[1].dtype, DataType::Text(16));
        assert_eq!(c.storage, StorageMethod::Both);
        assert_eq!(c.index_on.as_deref(), Some("id"));
        assert_eq!(c.capacity, Some(5000));
    }

    #[test]
    fn insert_values() {
        let stmt = parse("INSERT INTO t VALUES (1, 'bob', 2.5)").unwrap().statement;
        let Statement::Insert(i) = stmt else { panic!() };
        assert_eq!(i.table, "t");
        assert_eq!(i.values, vec![Value::Int(1), Value::Text("bob".into()), Value::Float(2.5)]);
    }

    #[test]
    fn select_star_where() {
        let stmt = parse("SELECT * FROM Checkins WHERE uid = 3172 AND date > '2018-01-01'")
            .unwrap()
            .statement;
        let Statement::Select(s) = stmt else { panic!() };
        assert_eq!(s.table, "Checkins");
        assert!(matches!(s.projection, Projection::Star));
        assert!(matches!(s.where_clause, Some(PredExpr::And(_, _))));
    }

    #[test]
    fn select_aggregates_group_by() {
        let stmt = parse("SELECT grp, SUM(v), COUNT(*) FROM t WHERE v > 0 GROUP BY grp")
            .unwrap()
            .statement;
        let Statement::Select(s) = stmt else { panic!() };
        let Projection::Items(items) = &s.projection else { panic!() };
        assert_eq!(items.len(), 3);
        assert_eq!(items[0], SelectItem::Column("grp".into()));
        assert_eq!(items[1], SelectItem::Aggregate { func: AggFunc::Sum, col: Some("v".into()) });
        assert_eq!(items[2], SelectItem::Aggregate { func: AggFunc::Count, col: None });
        assert_eq!(s.group_by.as_deref(), Some("grp"));
    }

    #[test]
    fn select_join() {
        let stmt =
            parse("SELECT * FROM R JOIN UV ON R.pageURL = UV.destURL WHERE UV.adRevenue > 0.5")
                .unwrap()
                .statement;
        let Statement::Select(s) = stmt else { panic!() };
        let j = s.join.unwrap();
        assert_eq!(j.table, "UV");
        assert_eq!(j.left_col, "pageURL");
        assert_eq!(j.right_col, "destURL");
    }

    #[test]
    fn join_with_reversed_on_order() {
        let stmt = parse("SELECT * FROM R JOIN UV ON UV.destURL = R.pageURL").unwrap().statement;
        let Statement::Select(s) = stmt else { panic!() };
        let j = s.join.unwrap();
        assert_eq!(j.left_col, "pageURL");
        assert_eq!(j.right_col, "destURL");
    }

    #[test]
    fn update_and_delete() {
        let stmt = parse("UPDATE t SET a = 1, b = 'x' WHERE id <> 9").unwrap().statement;
        let Statement::Update(u) = stmt else { panic!() };
        assert_eq!(u.sets.len(), 2);
        assert!(u.where_clause.is_some());

        let stmt = parse("DELETE FROM t WHERE id >= 100").unwrap().statement;
        let Statement::Delete(d) = stmt else { panic!() };
        assert_eq!(d.table, "t");
    }

    #[test]
    fn predicate_precedence() {
        let stmt = parse("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3").unwrap().statement;
        let Statement::Select(s) = stmt else { panic!() };
        // AND binds tighter: Or(a=1, And(b=2, c=3)).
        let Some(PredExpr::Or(l, r)) = s.where_clause else { panic!() };
        assert!(matches!(*l, PredExpr::Cmp { .. }));
        assert!(matches!(*r, PredExpr::And(_, _)));
    }

    #[test]
    fn parenthesized_predicates() {
        let stmt = parse("SELECT * FROM t WHERE (a = 1 OR b = 2) AND NOT c = 3").unwrap().statement;
        let Statement::Select(s) = stmt else { panic!() };
        let Some(PredExpr::And(l, r)) = s.where_clause else { panic!() };
        assert!(matches!(*l, PredExpr::Or(_, _)));
        assert!(matches!(*r, PredExpr::Not(_)));
    }

    #[test]
    fn order_by_and_limit() {
        let stmt = parse("SELECT * FROM t WHERE a > 0 ORDER BY a DESC LIMIT 10").unwrap().statement;
        let Statement::Select(s) = stmt else { panic!() };
        assert_eq!(s.order_by, Some(("a".into(), true)));
        assert_eq!(s.limit, Some(10));

        let stmt = parse("SELECT * FROM t ORDER BY b").unwrap().statement;
        let Statement::Select(s) = stmt else { panic!() };
        assert_eq!(s.order_by, Some(("b".into(), false)));
        assert_eq!(s.limit, None);

        assert!(parse("SELECT * FROM t LIMIT x").is_err());
    }

    #[test]
    fn shape_masks_literals_and_folds_keyword_case_only() {
        let a = parse("SELECT  k FROM t WHERE v = 31;").unwrap();
        let b = parse("select k from t where v=7").unwrap();
        assert_eq!(a.shape(), "select k from t where v = ?");
        assert_eq!(a.shape(), b.shape());
        assert_ne!(a.cache_key(), b.cache_key());
        assert_eq!(a.text(), "SELECT  k FROM t WHERE v = 31;");
        // Identifiers keep their case: `T` and `t` are different tables.
        assert_eq!(parse("SELECT * FROM T").unwrap().shape(), "select * from T");
        // Digits inside an identifier stay; every literal form is masked,
        // and the key keeps each literal's type.
        let insert = parse("INSERT INTO t2 VALUES ('o''brien', 4, -2.5e3)").unwrap();
        assert_eq!(insert.shape(), "insert into t2 values ( ? , ? , ? )");
        assert_eq!(
            insert.cache_key(),
            r#"insert into t2 values ( Str("o'brien") , Int(4) , Float(-2500.0) )"#
        );
        assert_ne!(
            parse("SELECT k FROM t WHERE v = 3").unwrap().cache_key(),
            parse("SELECT k FROM t WHERE v = 3.0").unwrap().cache_key()
        );
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse("SELECT FROM t").is_err());
        assert!(parse("CREATE TABLE t (x BLOB)").is_err());
        assert!(parse("INSERT INTO t VALUES (1,)").is_err());
        assert!(parse("SELECT * FROM t WHERE").is_err());
        assert!(parse("SELECT * FROM t extra garbage ( (").is_err());
    }
}
