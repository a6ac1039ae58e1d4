//! Recursive-descent parser for the SPARQL subset.

use std::collections::HashMap;

use hbold_rdf_model::vocab::xsd;
use hbold_rdf_model::{Iri, Literal, Term};

use crate::ast::*;
use crate::error::SparqlError;
use crate::lexer::{tokenize, Token, TokenKind};

/// Parses a SPARQL query string into a [`Query`].
pub fn parse_query(input: &str) -> Result<Query, SparqlError> {
    let tokens = tokenize(input)?;
    Parser::new(tokens).parse_query()
}

/// Parses a SPARQL 1.1 Update request: a `;`-separated sequence of update
/// operations (`INSERT DATA`, `DELETE DATA`, `DELETE WHERE`,
/// `DELETE/INSERT ... WHERE`), applied in order.
pub fn parse_update(input: &str) -> Result<Vec<Update>, SparqlError> {
    let tokens = tokenize(input)?;
    Parser::new(tokens).parse_update_request()
}

/// A `SELECT` expression's `AS` variable, and where the query names it.
struct Alias {
    name: String,
    line: usize,
    column: usize,
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    prefixes: HashMap<String, String>,
    /// Depth of `GRAPH` patterns currently open (nested GRAPH is rejected).
    graph_depth: usize,
}

impl Parser {
    fn new(tokens: Vec<Token>) -> Self {
        Parser {
            tokens,
            pos: 0,
            prefixes: HashMap::new(),
            graph_depth: 0,
        }
    }

    // ---- token helpers --------------------------------------------------------

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos.min(self.tokens.len() - 1)].kind
    }

    fn peek_token(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn bump(&mut self) -> TokenKind {
        let kind = self.tokens[self.pos.min(self.tokens.len() - 1)]
            .kind
            .clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        kind
    }

    fn error(&self, message: impl Into<String>) -> SparqlError {
        let tok = self.peek_token();
        SparqlError::parse(tok.line, tok.column, message)
    }

    fn expect(&mut self, expected: &TokenKind) -> Result<(), SparqlError> {
        if self.peek() == expected {
            self.bump();
            Ok(())
        } else {
            Err(self.error(format!("expected {expected:?}, found {:?}", self.peek())))
        }
    }

    fn is_keyword(&self, keyword: &str) -> bool {
        matches!(self.peek(), TokenKind::Keyword(k) if k == keyword)
    }

    fn eat_keyword(&mut self, keyword: &str) -> bool {
        if self.is_keyword(keyword) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, keyword: &str) -> Result<(), SparqlError> {
        if self.eat_keyword(keyword) {
            Ok(())
        } else {
            Err(self.error(format!(
                "expected keyword {keyword}, found {:?}",
                self.peek()
            )))
        }
    }

    // ---- query ----------------------------------------------------------------

    fn parse_query(mut self) -> Result<Query, SparqlError> {
        self.parse_prologue()?;
        let (form, aliases) = if self.is_keyword("SELECT") {
            self.parse_select_form()?
        } else if self.eat_keyword("ASK") {
            (QueryForm::Ask, Vec::new())
        } else {
            return Err(self.error("expected SELECT or ASK (other query forms are not supported)"));
        };

        let dataset = self.parse_dataset_clauses()?;

        // WHERE keyword is optional before the group pattern.
        self.eat_keyword("WHERE");
        let pattern = self.parse_group_graph_pattern()?;
        // SPARQL 1.1 §18.2.1: an `AS` alias must not be in scope already.
        let in_scope = pattern.variables();
        if let Some(alias) = aliases.iter().find(|a| in_scope.contains(&a.name)) {
            return Err(SparqlError::parse(
                alias.line,
                alias.column,
                format!(
                    "AS ?{}: the variable is already in scope in the WHERE pattern",
                    alias.name
                ),
            ));
        }

        let mut group_by = Vec::new();
        if self.eat_keyword("GROUP") {
            self.expect_keyword("BY")?;
            loop {
                match self.bump() {
                    TokenKind::Var(v) => group_by.push(v),
                    other => {
                        return Err(
                            self.error(format!("GROUP BY expects variables, found {other:?}"))
                        )
                    }
                }
                if !matches!(self.peek(), TokenKind::Var(_)) {
                    break;
                }
            }
        }

        if self.eat_keyword("HAVING") {
            return Err(SparqlError::Unsupported("HAVING clauses".into()));
        }

        let mut order_by = Vec::new();
        if self.eat_keyword("ORDER") {
            self.expect_keyword("BY")?;
            loop {
                let descending = if self.eat_keyword("DESC") {
                    self.expect(&TokenKind::LParen)?;
                    true
                } else if self.eat_keyword("ASC") {
                    self.expect(&TokenKind::LParen)?;
                    false
                } else {
                    // Bare variable form.
                    match self.peek() {
                        TokenKind::Var(_) => {
                            let TokenKind::Var(v) = self.bump() else {
                                unreachable!()
                            };
                            order_by.push(OrderCondition {
                                expr: Expression::Variable(v),
                                descending: false,
                            });
                            if matches!(self.peek(), TokenKind::Var(_))
                                || self.is_keyword("ASC")
                                || self.is_keyword("DESC")
                            {
                                continue;
                            }
                            break;
                        }
                        _ => break,
                    }
                };
                let expr = self.parse_expression()?;
                self.expect(&TokenKind::RParen)?;
                order_by.push(OrderCondition { expr, descending });
                if !(matches!(self.peek(), TokenKind::Var(_))
                    || self.is_keyword("ASC")
                    || self.is_keyword("DESC"))
                {
                    break;
                }
            }
        }

        let mut limit = None;
        let mut offset = None;
        // LIMIT and OFFSET may appear in either order.
        for _ in 0..2 {
            if self.eat_keyword("LIMIT") {
                match self.bump() {
                    TokenKind::Integer(n) if n >= 0 => limit = Some(n as usize),
                    other => {
                        return Err(self.error(format!(
                            "LIMIT expects a non-negative integer, found {other:?}"
                        )))
                    }
                }
            } else if self.eat_keyword("OFFSET") {
                match self.bump() {
                    TokenKind::Integer(n) if n >= 0 => offset = Some(n as usize),
                    other => {
                        return Err(self.error(format!(
                            "OFFSET expects a non-negative integer, found {other:?}"
                        )))
                    }
                }
            }
        }

        if self.peek() != &TokenKind::Eof {
            return Err(self.error(format!("unexpected trailing token {:?}", self.peek())));
        }

        Ok(Query {
            form,
            dataset,
            pattern,
            group_by,
            order_by,
            limit,
            offset,
        })
    }

    /// Parses `FROM <g>` / `FROM NAMED <g>` clauses (any number, any order).
    fn parse_dataset_clauses(&mut self) -> Result<Dataset, SparqlError> {
        let mut dataset = Dataset::default();
        while self.eat_keyword("FROM") {
            let named = self.eat_keyword("NAMED");
            let iri = match self.bump() {
                TokenKind::Iri(iri) => self.make_iri(&iri)?,
                TokenKind::PrefixedName(prefix, local) => self.resolve_prefixed(&prefix, &local)?,
                other => {
                    return Err(self.error(format!("FROM expects an IRI, found {other:?}")));
                }
            };
            let term = Term::Iri(iri);
            if named {
                dataset.named_graphs.push(term);
            } else {
                dataset.default_graphs.push(term);
            }
        }
        Ok(dataset)
    }

    fn parse_prologue(&mut self) -> Result<(), SparqlError> {
        loop {
            if self.eat_keyword("PREFIX") {
                let (prefix, _local) = match self.bump() {
                    TokenKind::PrefixedName(p, l) => (p, l),
                    other => {
                        return Err(self.error(format!("PREFIX expects `name:`, found {other:?}")))
                    }
                };
                let iri = match self.bump() {
                    TokenKind::Iri(iri) => iri,
                    other => {
                        return Err(self.error(format!("PREFIX expects an IRI, found {other:?}")))
                    }
                };
                self.prefixes.insert(prefix, iri);
            } else if self.eat_keyword("BASE") {
                match self.bump() {
                    TokenKind::Iri(_) => {}
                    other => {
                        return Err(self.error(format!("BASE expects an IRI, found {other:?}")))
                    }
                }
            } else {
                return Ok(());
            }
        }
    }

    /// The `SELECT` clause, and where each `AS` alias is named: the query
    /// checks them against the pattern's variables once it has read it.
    fn parse_select_form(&mut self) -> Result<(QueryForm, Vec<Alias>), SparqlError> {
        self.expect_keyword("SELECT")?;
        let distinct = self.eat_keyword("DISTINCT") || self.eat_keyword("REDUCED");
        let mut aliases = Vec::new();
        let projection = if self.peek() == &TokenKind::Star {
            self.bump();
            Projection::Star
        } else {
            let mut items = Vec::new();
            loop {
                match self.peek().clone() {
                    TokenKind::Var(v) => {
                        self.bump();
                        items.push(ProjectionItem::Variable(v));
                    }
                    TokenKind::LParen => {
                        self.bump();
                        let expr = self.parse_expression()?;
                        self.expect_keyword("AS")?;
                        let (line, column) = (self.peek_token().line, self.peek_token().column);
                        let alias = match self.bump() {
                            TokenKind::Var(v) => v,
                            other => {
                                return Err(
                                    self.error(format!("AS expects a variable, found {other:?}"))
                                )
                            }
                        };
                        if aliases.iter().any(|a: &Alias| a.name == alias) {
                            return Err(SparqlError::parse(
                                line,
                                column,
                                format!("AS ?{alias}: the variable is already in scope as an earlier alias"),
                            ));
                        }
                        self.expect(&TokenKind::RParen)?;
                        aliases.push(Alias {
                            name: alias.clone(),
                            line,
                            column,
                        });
                        items.push(ProjectionItem::Expression { expr, alias });
                    }
                    _ => break,
                }
            }
            if items.is_empty() {
                return Err(self.error("SELECT requires at least one projection item or *"));
            }
            Projection::Items(items)
        };
        let form = QueryForm::Select {
            distinct,
            projection,
        };
        Ok((form, aliases))
    }

    // ---- graph patterns ---------------------------------------------------------

    fn parse_group_graph_pattern(&mut self) -> Result<GraphPattern, SparqlError> {
        self.expect(&TokenKind::LBrace)?;
        let mut parts: Vec<GraphPattern> = Vec::new();
        let mut current_bgp: Vec<TriplePatternAst> = Vec::new();
        let mut filters: Vec<Expression> = Vec::new();

        loop {
            match self.peek().clone() {
                TokenKind::RBrace => {
                    self.bump();
                    break;
                }
                TokenKind::Keyword(k) if k == "FILTER" => {
                    self.bump();
                    let expr = if self.peek() == &TokenKind::LParen {
                        self.bump();
                        let e = self.parse_expression()?;
                        self.expect(&TokenKind::RParen)?;
                        e
                    } else {
                        // FILTER regex(...) without wrapping parentheses.
                        self.parse_expression()?
                    };
                    filters.push(expr);
                }
                TokenKind::Keyword(k) if k == "OPTIONAL" => {
                    self.bump();
                    if !current_bgp.is_empty() {
                        parts.push(GraphPattern::Bgp(std::mem::take(&mut current_bgp)));
                    }
                    let right = self.parse_group_graph_pattern()?;
                    let left = if parts.is_empty() {
                        GraphPattern::empty()
                    } else if parts.len() == 1 {
                        parts.pop().unwrap()
                    } else {
                        GraphPattern::Join(std::mem::take(&mut parts))
                    };
                    parts = vec![GraphPattern::Optional {
                        left: Box::new(left),
                        right: Box::new(right),
                    }];
                }
                TokenKind::Keyword(k) if k == "GRAPH" => {
                    self.bump();
                    if self.graph_depth > 0 {
                        return Err(SparqlError::Unsupported("nested GRAPH patterns".into()));
                    }
                    if !current_bgp.is_empty() {
                        parts.push(GraphPattern::Bgp(std::mem::take(&mut current_bgp)));
                    }
                    let name = self.parse_graph_name()?;
                    self.graph_depth += 1;
                    let inner = self.parse_group_graph_pattern()?;
                    self.graph_depth -= 1;
                    parts.push(GraphPattern::Graph {
                        name,
                        inner: Box::new(inner),
                    });
                }
                TokenKind::LBrace => {
                    // Either a nested group or the start of a UNION chain.
                    if !current_bgp.is_empty() {
                        parts.push(GraphPattern::Bgp(std::mem::take(&mut current_bgp)));
                    }
                    let mut group = self.parse_group_graph_pattern()?;
                    while self.eat_keyword("UNION") {
                        let rhs = self.parse_group_graph_pattern()?;
                        group = GraphPattern::Union(Box::new(group), Box::new(rhs));
                    }
                    parts.push(group);
                }
                TokenKind::Dot => {
                    self.bump();
                }
                TokenKind::Eof => {
                    return Err(self.error("unexpected end of query inside group pattern"))
                }
                _ => {
                    // A triple pattern (possibly with ; and , continuations).
                    self.parse_triples_same_subject(&mut current_bgp)?;
                }
            }
        }

        if !current_bgp.is_empty() {
            parts.push(GraphPattern::Bgp(current_bgp));
        }
        let mut pattern = match parts.len() {
            0 => GraphPattern::empty(),
            1 => parts.into_iter().next().unwrap(),
            _ => GraphPattern::Join(parts),
        };
        for condition in filters {
            pattern = GraphPattern::Filter {
                inner: Box::new(pattern),
                condition,
            };
        }
        Ok(pattern)
    }

    fn parse_triples_same_subject(
        &mut self,
        bgp: &mut Vec<TriplePatternAst>,
    ) -> Result<(), SparqlError> {
        let subject = self.parse_term_or_variable()?;
        loop {
            let predicate = self.parse_verb()?;
            loop {
                let object = self.parse_term_or_variable()?;
                bgp.push(TriplePatternAst {
                    subject: subject.clone(),
                    predicate: predicate.clone(),
                    object,
                });
                if self.peek() == &TokenKind::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
            if self.peek() == &TokenKind::Semicolon {
                self.bump();
                // Dangling ';' before '.' or '}' is permitted.
                if matches!(self.peek(), TokenKind::Dot | TokenKind::RBrace) {
                    break;
                }
            } else {
                break;
            }
        }
        Ok(())
    }

    /// Parses a graph name: `?var` or an IRI (plain or prefixed).
    fn parse_graph_name(&mut self) -> Result<TermOrVariable, SparqlError> {
        let node = self.parse_term_or_variable()?;
        match &node {
            TermOrVariable::Variable(_) | TermOrVariable::Term(Term::Iri(_)) => Ok(node),
            _ => Err(self.error("a graph name must be an IRI or a variable")),
        }
    }

    // ---- updates ----------------------------------------------------------------

    /// Parses a full update request: prologue + `;`-separated operations.
    fn parse_update_request(mut self) -> Result<Vec<Update>, SparqlError> {
        self.parse_prologue()?;
        let mut ops = Vec::new();
        loop {
            if self.peek() == &TokenKind::Eof {
                break;
            }
            ops.push(self.parse_update_op()?);
            if self.peek() == &TokenKind::Semicolon {
                self.bump();
                // A trailing `;` before end of input is permitted.
            } else {
                break;
            }
        }
        if self.peek() != &TokenKind::Eof {
            return Err(self.error(format!("unexpected trailing token {:?}", self.peek())));
        }
        Ok(ops)
    }

    fn parse_update_op(&mut self) -> Result<Update, SparqlError> {
        if self.eat_keyword("INSERT") {
            if self.eat_keyword("DATA") {
                return Ok(Update::InsertData(self.parse_quad_data_block()?));
            }
            // INSERT { template } WHERE { pattern }
            let insert = self.parse_quad_pattern_block()?;
            self.expect_keyword("WHERE")?;
            let pattern = self.parse_group_graph_pattern()?;
            return Ok(Update::Modify {
                delete: Vec::new(),
                insert,
                pattern,
            });
        }
        if self.eat_keyword("DELETE") {
            if self.eat_keyword("DATA") {
                return Ok(Update::DeleteData(self.parse_quad_data_block()?));
            }
            if self.eat_keyword("WHERE") {
                return Ok(Update::DeleteWhere(self.parse_quad_pattern_block()?));
            }
            // DELETE { template } [INSERT { template }] WHERE { pattern }
            let delete = self.parse_quad_pattern_block()?;
            let insert = if self.eat_keyword("INSERT") {
                self.parse_quad_pattern_block()?
            } else {
                Vec::new()
            };
            self.expect_keyword("WHERE")?;
            let pattern = self.parse_group_graph_pattern()?;
            return Ok(Update::Modify {
                delete,
                insert,
                pattern,
            });
        }
        Err(self.error(
            "expected an update operation (INSERT DATA, DELETE DATA, DELETE WHERE, or DELETE/INSERT ... WHERE)",
        ))
    }

    /// Parses a `{ ... }` block of quad patterns: triple patterns in the
    /// default graph interleaved with `GRAPH <g>/?g { ... }` sub-blocks.
    fn parse_quad_pattern_block(&mut self) -> Result<Vec<QuadPatternAst>, SparqlError> {
        self.expect(&TokenKind::LBrace)?;
        let mut out = Vec::new();
        loop {
            match self.peek().clone() {
                TokenKind::RBrace => {
                    self.bump();
                    break;
                }
                TokenKind::Dot => {
                    self.bump();
                }
                TokenKind::Keyword(k) if k == "GRAPH" => {
                    self.bump();
                    let name = self.parse_graph_name()?;
                    self.expect(&TokenKind::LBrace)?;
                    let mut triples = Vec::new();
                    loop {
                        match self.peek() {
                            TokenKind::RBrace => {
                                self.bump();
                                break;
                            }
                            TokenKind::Dot => {
                                self.bump();
                            }
                            TokenKind::Eof => {
                                return Err(
                                    self.error("unexpected end of update inside GRAPH block")
                                );
                            }
                            _ => self.parse_triples_same_subject(&mut triples)?,
                        }
                    }
                    out.extend(triples.into_iter().map(|triple| QuadPatternAst {
                        graph: Some(name.clone()),
                        triple,
                    }));
                }
                TokenKind::Eof => {
                    return Err(self.error("unexpected end of update inside quad block"));
                }
                _ => {
                    let mut triples = Vec::new();
                    self.parse_triples_same_subject(&mut triples)?;
                    out.extend(triples.into_iter().map(|triple| QuadPatternAst {
                        graph: None,
                        triple,
                    }));
                }
            }
        }
        Ok(out)
    }

    /// Parses a `{ ... }` block of *ground* quads (`INSERT DATA` /
    /// `DELETE DATA`): variables anywhere are an error.
    fn parse_quad_data_block(&mut self) -> Result<Vec<QuadData>, SparqlError> {
        let patterns = self.parse_quad_pattern_block()?;
        let mut out = Vec::with_capacity(patterns.len());
        for qp in patterns {
            let graph = match qp.graph {
                None => None,
                Some(TermOrVariable::Term(t)) => Some(t),
                Some(TermOrVariable::Variable(v)) => {
                    return Err(self.error(format!(
                        "variables are not allowed in INSERT/DELETE DATA (found ?{v})"
                    )));
                }
            };
            let ground = |node: TermOrVariable| match node {
                TermOrVariable::Term(t) => Ok(t),
                TermOrVariable::Variable(v) => Err(self.error(format!(
                    "variables are not allowed in INSERT/DELETE DATA (found ?{v})"
                ))),
            };
            out.push(QuadData {
                graph,
                subject: ground(qp.triple.subject)?,
                predicate: ground(qp.triple.predicate)?,
                object: ground(qp.triple.object)?,
            });
        }
        Ok(out)
    }

    fn parse_verb(&mut self) -> Result<TermOrVariable, SparqlError> {
        if self.peek() == &TokenKind::A {
            self.bump();
            return Ok(TermOrVariable::iri(hbold_rdf_model::vocab::rdf::type_()));
        }
        self.parse_term_or_variable()
    }

    fn parse_term_or_variable(&mut self) -> Result<TermOrVariable, SparqlError> {
        match self.bump() {
            TokenKind::Var(v) => Ok(TermOrVariable::Variable(v)),
            TokenKind::Iri(iri) => Ok(TermOrVariable::iri(self.make_iri(&iri)?)),
            TokenKind::PrefixedName(prefix, local) => {
                Ok(TermOrVariable::iri(self.resolve_prefixed(&prefix, &local)?))
            }
            TokenKind::String(value) => {
                Ok(TermOrVariable::literal(self.finish_string_literal(value)?))
            }
            TokenKind::Integer(n) => Ok(TermOrVariable::literal(Literal::integer(n))),
            TokenKind::Decimal(d) => Ok(TermOrVariable::literal(Literal::typed(
                format!("{d}"),
                xsd::decimal(),
            ))),
            TokenKind::Keyword(k) if k == "TRUE" => {
                Ok(TermOrVariable::literal(Literal::boolean(true)))
            }
            TokenKind::Keyword(k) if k == "FALSE" => {
                Ok(TermOrVariable::literal(Literal::boolean(false)))
            }
            other => Err(self.error(format!("expected a term or variable, found {other:?}"))),
        }
    }

    /// Handles optional `@lang` / `^^datatype` suffixes after a string token.
    fn finish_string_literal(&mut self, value: String) -> Result<Literal, SparqlError> {
        match self.peek().clone() {
            TokenKind::LangTag(tag) => {
                self.bump();
                Ok(Literal::lang_string(value, tag))
            }
            TokenKind::DoubleCaret => {
                self.bump();
                let datatype = match self.bump() {
                    TokenKind::Iri(iri) => self.make_iri(&iri)?,
                    TokenKind::PrefixedName(prefix, local) => {
                        self.resolve_prefixed(&prefix, &local)?
                    }
                    other => {
                        return Err(
                            self.error(format!("expected datatype IRI after ^^, found {other:?}"))
                        )
                    }
                };
                Ok(Literal::typed(value, datatype))
            }
            _ => Ok(Literal::string(value)),
        }
    }

    fn make_iri(&self, text: &str) -> Result<Iri, SparqlError> {
        Iri::new(text).map_err(|e| {
            let tok = self.peek_token();
            SparqlError::parse(tok.line, tok.column, e.to_string())
        })
    }

    fn resolve_prefixed(&self, prefix: &str, local: &str) -> Result<Iri, SparqlError> {
        let Some(ns) = self.prefixes.get(prefix) else {
            let tok = self.peek_token();
            return Err(SparqlError::parse(
                tok.line,
                tok.column,
                format!("undeclared prefix '{prefix}:'"),
            ));
        };
        self.make_iri(&format!("{ns}{local}"))
    }

    // ---- expressions -------------------------------------------------------------

    fn parse_expression(&mut self) -> Result<Expression, SparqlError> {
        self.parse_or_expression()
    }

    fn parse_or_expression(&mut self) -> Result<Expression, SparqlError> {
        let mut left = self.parse_and_expression()?;
        while self.peek() == &TokenKind::OrOr {
            self.bump();
            let right = self.parse_and_expression()?;
            left = Expression::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_and_expression(&mut self) -> Result<Expression, SparqlError> {
        let mut left = self.parse_relational_expression()?;
        while self.peek() == &TokenKind::AndAnd {
            self.bump();
            let right = self.parse_relational_expression()?;
            left = Expression::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_relational_expression(&mut self) -> Result<Expression, SparqlError> {
        let left = self.parse_primary_expression()?;
        let op = match self.peek() {
            TokenKind::Eq => Some(ComparisonOp::Eq),
            TokenKind::Ne => Some(ComparisonOp::Ne),
            TokenKind::Lt => Some(ComparisonOp::Lt),
            TokenKind::Le => Some(ComparisonOp::Le),
            TokenKind::Gt => Some(ComparisonOp::Gt),
            TokenKind::Ge => Some(ComparisonOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let right = self.parse_primary_expression()?;
            return Ok(Expression::Comparison {
                op,
                left: Box::new(left),
                right: Box::new(right),
            });
        }
        Ok(left)
    }

    fn parse_primary_expression(&mut self) -> Result<Expression, SparqlError> {
        match self.peek().clone() {
            TokenKind::Bang => {
                self.bump();
                let inner = self.parse_primary_expression()?;
                Ok(Expression::Not(Box::new(inner)))
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.parse_expression()?;
                self.expect(&TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::Var(v) => {
                self.bump();
                Ok(Expression::Variable(v))
            }
            TokenKind::Integer(n) => {
                self.bump();
                Ok(Expression::Constant(Term::Literal(Literal::integer(n))))
            }
            TokenKind::Decimal(d) => {
                self.bump();
                Ok(Expression::Constant(Term::Literal(Literal::double(d))))
            }
            TokenKind::String(s) => {
                self.bump();
                Ok(Expression::Constant(Term::Literal(
                    self.finish_string_literal(s)?,
                )))
            }
            TokenKind::Iri(iri) => {
                self.bump();
                Ok(Expression::Constant(Term::Iri(self.make_iri(&iri)?)))
            }
            TokenKind::PrefixedName(prefix, local) => {
                self.bump();
                Ok(Expression::Constant(Term::Iri(
                    self.resolve_prefixed(&prefix, &local)?,
                )))
            }
            TokenKind::Keyword(k) => self.parse_keyword_expression(&k),
            other => Err(self.error(format!("unexpected token in expression: {other:?}"))),
        }
    }

    fn parse_keyword_expression(&mut self, keyword: &str) -> Result<Expression, SparqlError> {
        match keyword {
            "TRUE" => {
                self.bump();
                Ok(Expression::Constant(Term::Literal(Literal::boolean(true))))
            }
            "FALSE" => {
                self.bump();
                Ok(Expression::Constant(Term::Literal(Literal::boolean(false))))
            }
            "COUNT" | "SUM" | "AVG" | "MIN" | "MAX" => {
                let func = match keyword {
                    "COUNT" => AggregateFunction::Count,
                    "SUM" => AggregateFunction::Sum,
                    "AVG" => AggregateFunction::Avg,
                    "MIN" => AggregateFunction::Min,
                    _ => AggregateFunction::Max,
                };
                self.bump();
                self.expect(&TokenKind::LParen)?;
                let distinct = self.eat_keyword("DISTINCT");
                let arg = if self.peek() == &TokenKind::Star {
                    self.bump();
                    None
                } else {
                    Some(Box::new(self.parse_expression()?))
                };
                self.expect(&TokenKind::RParen)?;
                Ok(Expression::Aggregate {
                    func,
                    distinct,
                    arg,
                })
            }
            "REGEX" | "STR" | "LANG" | "DATATYPE" | "BOUND" | "ISIRI" | "ISURI" | "ISLITERAL"
            | "ISBLANK" | "CONTAINS" | "STRSTARTS" | "STRENDS" => {
                let func = match keyword {
                    "REGEX" => Function::Regex,
                    "STR" => Function::Str,
                    "LANG" => Function::Lang,
                    "DATATYPE" => Function::Datatype,
                    "BOUND" => Function::Bound,
                    "ISIRI" | "ISURI" => Function::IsIri,
                    "ISLITERAL" => Function::IsLiteral,
                    "ISBLANK" => Function::IsBlank,
                    "CONTAINS" => Function::Contains,
                    "STRSTARTS" => Function::StrStarts,
                    _ => Function::StrEnds,
                };
                self.bump();
                self.expect(&TokenKind::LParen)?;
                let mut args = Vec::new();
                if self.peek() != &TokenKind::RParen {
                    loop {
                        args.push(self.parse_expression()?);
                        if self.peek() == &TokenKind::Comma {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                }
                self.expect(&TokenKind::RParen)?;
                Ok(Expression::Function { func, args })
            }
            other => Err(self.error(format!("keyword {other} is not valid in an expression"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbold_rdf_model::vocab::{dcat, dcterms, foaf, rdf};

    #[test]
    fn parses_simple_select() {
        let q =
            parse_query("SELECT ?s WHERE { ?s a <http://xmlns.com/foaf/0.1/Person> . }").unwrap();
        let QueryForm::Select {
            distinct,
            projection,
        } = &q.form
        else {
            panic!("expected SELECT")
        };
        assert!(!distinct);
        assert_eq!(
            projection,
            &Projection::Items(vec![ProjectionItem::Variable("s".into())])
        );
        let GraphPattern::Bgp(tps) = &q.pattern else {
            panic!("expected BGP")
        };
        assert_eq!(tps.len(), 1);
        assert_eq!(tps[0].predicate, TermOrVariable::iri(rdf::type_()));
        assert_eq!(tps[0].object, TermOrVariable::iri(foaf::person()));
    }

    #[test]
    fn parses_prefixes_and_semicolon_syntax() {
        let q = parse_query(
            "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n\
             SELECT ?s ?n WHERE { ?s a foaf:Person ; foaf:name ?n , ?alias . }",
        )
        .unwrap();
        let GraphPattern::Bgp(tps) = &q.pattern else {
            panic!()
        };
        assert_eq!(tps.len(), 3);
        assert!(tps.iter().all(|tp| tp.subject == TermOrVariable::var("s")));
    }

    #[test]
    fn parses_count_group_by() {
        let q = parse_query(
            "SELECT ?class (COUNT(DISTINCT ?s) AS ?n) WHERE { ?s a ?class } GROUP BY ?class ORDER BY DESC(?n) LIMIT 10",
        )
        .unwrap();
        assert_eq!(q.group_by, vec!["class"]);
        assert_eq!(q.limit, Some(10));
        assert_eq!(q.order_by.len(), 1);
        assert!(q.order_by[0].descending);
        assert!(q.uses_aggregates());
        let QueryForm::Select {
            projection: Projection::Items(items),
            ..
        } = &q.form
        else {
            panic!()
        };
        assert_eq!(items.len(), 2);
        match &items[1] {
            ProjectionItem::Expression {
                expr:
                    Expression::Aggregate {
                        func,
                        distinct,
                        arg,
                    },
                alias,
            } => {
                assert_eq!(*func, AggregateFunction::Count);
                assert!(*distinct);
                assert!(arg.is_some());
                assert_eq!(alias, "n");
            }
            other => panic!("unexpected projection item {other:?}"),
        }
    }

    #[test]
    fn parses_listing1_crawler_query() {
        // The query from the paper's Listing 1 (portal crawling).
        let q = parse_query(
            "PREFIX dcat: <http://www.w3.org/ns/dcat#>\n\
             PREFIX dc: <http://purl.org/dc/terms/>\n\
             SELECT ?dataset ?title ?url\n\
             WHERE {\n\
               ?dataset a dcat:Dataset .\n\
               ?dataset dc:title ?title .\n\
               ?dataset dcat:distribution ?distribution .\n\
               ?distribution dcat:accessURL ?url .\n\
               filter ( regex(?url, 'sparql') ) .\n\
             }",
        )
        .unwrap();
        let GraphPattern::Filter { inner, condition } = &q.pattern else {
            panic!("expected FILTER at the top, got {:?}", q.pattern)
        };
        let GraphPattern::Bgp(tps) = inner.as_ref() else {
            panic!()
        };
        assert_eq!(tps.len(), 4);
        assert_eq!(tps[0].object, TermOrVariable::iri(dcat::dataset()));
        assert_eq!(tps[1].predicate, TermOrVariable::iri(dcterms::title()));
        match condition {
            Expression::Function {
                func: Function::Regex,
                args,
            } => assert_eq!(args.len(), 2),
            other => panic!("expected regex filter, got {other:?}"),
        }
    }

    #[test]
    fn parses_optional_and_union() {
        let q = parse_query("SELECT * WHERE { ?s a ?c OPTIONAL { ?s <http://e.org/name> ?n } }")
            .unwrap();
        assert!(matches!(q.pattern, GraphPattern::Optional { .. }));

        let q = parse_query(
            "SELECT ?x WHERE { { ?x a <http://e.org/A> } UNION { ?x a <http://e.org/B> } }",
        )
        .unwrap();
        assert!(matches!(q.pattern, GraphPattern::Union(_, _)));
    }

    #[test]
    fn parses_ask() {
        let q = parse_query("ASK { ?s ?p ?o }").unwrap();
        assert_eq!(q.form, QueryForm::Ask);
    }

    #[test]
    fn parses_filter_comparisons() {
        let q = parse_query(
            "SELECT ?s WHERE { ?s <http://e.org/age> ?age FILTER(?age >= 18 && ?age < 65) }",
        )
        .unwrap();
        let GraphPattern::Filter { condition, .. } = &q.pattern else {
            panic!()
        };
        assert!(matches!(condition, Expression::And(_, _)));
    }

    #[test]
    fn rejects_unsupported_and_malformed() {
        assert!(parse_query("CONSTRUCT { ?s ?p ?o } WHERE { ?s ?p ?o }").is_err());
        assert!(parse_query("SELECT ?s WHERE { ?s ?p }").is_err());
        assert!(parse_query("SELECT WHERE { ?s ?p ?o }").is_err());
        assert!(parse_query("SELECT ?s WHERE { ?s ?p ?o } HAVING (?s > 2)").is_err());
        assert!(
            parse_query("SELECT ?s WHERE { ?s foaf:name ?n }").is_err(),
            "undeclared prefix"
        );
        assert!(parse_query("SELECT ?s WHERE { ?s ?p ?o } LIMIT -3").is_err());
    }

    #[test]
    fn an_alias_already_in_scope_is_a_parse_error() {
        // SPARQL 1.1 §18.2.1: a variable of the pattern, in any part of it,
        // or an earlier alias of the same SELECT.
        for (query, column, reason) in [
            ("SELECT (?o AS ?s) WHERE { ?s ?p ?o }", 15, "WHERE pattern"),
            (
                "SELECT (COUNT(?s) AS ?p) WHERE { ?s ?p ?o } GROUP BY ?p",
                22,
                "WHERE pattern",
            ),
            (
                "SELECT ?s (STR(?o) AS ?x) WHERE { ?s ?p ?o OPTIONAL { ?s ?q ?x } }",
                23,
                "WHERE pattern",
            ),
            (
                "SELECT (STR(?g) AS ?g) WHERE { GRAPH ?g { ?s ?p ?o } }",
                20,
                "WHERE pattern",
            ),
            (
                "SELECT (STR(?s) AS ?x) (STR(?o) AS ?x) WHERE { ?s ?p ?o }",
                36,
                "earlier alias",
            ),
        ] {
            match parse_query(query) {
                Err(SparqlError::Parse {
                    line: 1,
                    column: at,
                    message,
                }) => {
                    assert_eq!(at, column, "{query}: {message}");
                    assert!(message.contains(reason), "{query}: {message}");
                }
                other => panic!("{query}: expected a parse error, got {other:?}"),
            }
        }
        // A variable only a FILTER mentions is not in scope, and an alias
        // may be projected, ordered by and named like nothing else.
        for query in [
            "SELECT (STR(?o) AS ?x) WHERE { ?s ?p ?o FILTER(?x != 1) }",
            "SELECT ?p (COUNT(?s) AS ?agg0) (STR(?p) AS ?e0) WHERE { ?s ?p ?o } GROUP BY ?p ORDER BY ?e0",
        ] {
            assert!(parse_query(query).is_ok(), "{query}");
        }
    }

    #[test]
    fn select_star_and_offset() {
        let q = parse_query("SELECT * WHERE { ?s ?p ?o } OFFSET 5 LIMIT 3").unwrap();
        let QueryForm::Select { projection, .. } = &q.form else {
            panic!()
        };
        assert_eq!(projection, &Projection::Star);
        assert_eq!(q.offset, Some(5));
        assert_eq!(q.limit, Some(3));
    }
}
