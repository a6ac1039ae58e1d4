//! Pretty-printing parsed queries back to SPARQL text.
//!
//! The printer emits *parser-canonical* text: every construct is rendered in
//! the exact shape [`hbold_sparql::parser`] normalizes to, so that for any `Query`
//! the parser produced, `parse(print(q)) == q` — the parse → print → re-parse
//! fixpoint the fuzz harness (see [`crate::fuzz`]) asserts on every generated
//! query. The rules that make this hold:
//!
//! * every part of a [`GraphPattern::Join`] is printed as a braced group, so
//!   adjacent basic graph patterns are not merged on re-parse;
//! * a non-empty `OPTIONAL` left side is printed as a single braced group,
//!   which the parser collapses back into `left` verbatim;
//! * `FILTER`s are printed innermost-first after their pattern, mirroring the
//!   parser's outside-in wrapping of collected filters;
//! * compound sub-expressions are always parenthesized (a parenthesized
//!   expression is a primary, so this is re-parse-neutral);
//! * literals are printed in quoted-and-typed form (`"5"^^<...#integer>`)
//!   via [`Term::to_ntriples`], whose escape set (`\" \\ \n \r \t`) is
//!   exactly what the lexer understands.
//!
//! Blank-node constants have no parseable query syntax in this subset; they
//! print as `_:label`, which the parser rejects — queries containing them
//! cannot round-trip (the generators never produce them).

use hbold_rdf_model::Term;

use hbold_sparql::ast::*;

/// Renders a query as SPARQL text the parser maps back to the same AST.
pub fn print_query(query: &Query) -> String {
    let mut out = String::new();
    match &query.form {
        QueryForm::Select {
            distinct,
            projection,
        } => {
            out.push_str("SELECT ");
            if *distinct {
                out.push_str("DISTINCT ");
            }
            match projection {
                Projection::Star => out.push_str("* "),
                Projection::Items(items) => {
                    for item in items {
                        match item {
                            ProjectionItem::Variable(v) => {
                                out.push('?');
                                out.push_str(v);
                            }
                            ProjectionItem::Expression { expr, alias } => {
                                out.push('(');
                                out.push_str(&print_expression(expr));
                                out.push_str(" AS ?");
                                out.push_str(alias);
                                out.push(')');
                            }
                        }
                        out.push(' ');
                    }
                }
            }
        }
        QueryForm::Ask => out.push_str("ASK "),
    }
    for g in &query.dataset.default_graphs {
        out.push_str("FROM ");
        out.push_str(&print_term(g));
        out.push(' ');
    }
    for g in &query.dataset.named_graphs {
        out.push_str("FROM NAMED ");
        out.push_str(&print_term(g));
        out.push(' ');
    }
    if matches!(&query.form, QueryForm::Select { .. }) {
        out.push_str("WHERE ");
    }
    out.push_str("{ ");
    print_group_contents(&query.pattern, &mut out);
    out.push('}');
    if !query.group_by.is_empty() {
        out.push_str(" GROUP BY");
        for v in &query.group_by {
            out.push_str(" ?");
            out.push_str(v);
        }
    }
    if !query.order_by.is_empty() {
        out.push_str(" ORDER BY");
        for cond in &query.order_by {
            match (&cond.expr, cond.descending) {
                // The bare-variable form only exists for ascending variables.
                (Expression::Variable(v), false) => {
                    out.push_str(" ?");
                    out.push_str(v);
                }
                (expr, descending) => {
                    out.push_str(if descending { " DESC(" } else { " ASC(" });
                    out.push_str(&print_expression(expr));
                    out.push(')');
                }
            }
        }
    }
    if let Some(limit) = query.limit {
        out.push_str(&format!(" LIMIT {limit}"));
    }
    if let Some(offset) = query.offset {
        out.push_str(&format!(" OFFSET {offset}"));
    }
    out
}

/// Prints the *contents* of a group (without the enclosing braces), in the
/// shape `parse_group_graph_pattern` reconstructs verbatim.
fn print_group_contents(pattern: &GraphPattern, out: &mut String) {
    match pattern {
        GraphPattern::Bgp(triples) => {
            for tp in triples {
                out.push_str(&print_term_or_variable(&tp.subject));
                out.push(' ');
                out.push_str(&print_term_or_variable(&tp.predicate));
                out.push(' ');
                out.push_str(&print_term_or_variable(&tp.object));
                out.push_str(" . ");
            }
        }
        GraphPattern::Join(parts) => {
            // Braces around every part keep part boundaries intact (two
            // adjacent BGPs would otherwise merge into one on re-parse).
            for part in parts {
                out.push_str("{ ");
                print_group_contents(part, out);
                out.push_str("} ");
            }
        }
        GraphPattern::Optional { left, right } => {
            if !matches!(&**left, GraphPattern::Bgp(tps) if tps.is_empty()) {
                out.push_str("{ ");
                print_group_contents(left, out);
                out.push_str("} ");
            }
            out.push_str("OPTIONAL { ");
            print_group_contents(right, out);
            out.push_str("} ");
        }
        GraphPattern::Union(a, b) => {
            out.push_str("{ ");
            print_group_contents(a, out);
            out.push_str("} UNION { ");
            print_group_contents(b, out);
            out.push_str("} ");
        }
        GraphPattern::Filter { inner, condition } => {
            // Innermost filter first: the parser wraps collected filters
            // outside-in, rebuilding exactly this nesting.
            print_group_contents(inner, out);
            out.push_str("FILTER(");
            out.push_str(&print_expression(condition));
            out.push_str(") ");
        }
        GraphPattern::Graph { name, inner } => {
            out.push_str("GRAPH ");
            out.push_str(&print_term_or_variable(name));
            out.push_str(" { ");
            print_group_contents(inner, out);
            out.push_str("} ");
        }
    }
}

/// Renders an update request as SPARQL text the parser maps back to the same
/// sequence of operations (the update-side print → parse fixpoint).
pub fn print_update(ops: &[Update]) -> String {
    let mut rendered: Vec<String> = Vec::with_capacity(ops.len());
    for op in ops {
        let mut out = String::new();
        match op {
            Update::InsertData(quads) => {
                out.push_str("INSERT DATA { ");
                print_quad_data(quads, &mut out);
                out.push('}');
            }
            Update::DeleteData(quads) => {
                out.push_str("DELETE DATA { ");
                print_quad_data(quads, &mut out);
                out.push('}');
            }
            Update::DeleteWhere(patterns) => {
                out.push_str("DELETE WHERE { ");
                print_quad_patterns(patterns, &mut out);
                out.push('}');
            }
            Update::Modify {
                delete,
                insert,
                pattern,
            } => {
                // An empty DELETE template is only printable when an INSERT
                // template exists (`INSERT ... WHERE` form); the parser
                // produces `delete: []` exactly for that shape.
                if !delete.is_empty() || insert.is_empty() {
                    out.push_str("DELETE { ");
                    print_quad_patterns(delete, &mut out);
                    out.push_str("} ");
                }
                if !insert.is_empty() {
                    out.push_str("INSERT { ");
                    print_quad_patterns(insert, &mut out);
                    out.push_str("} ");
                }
                out.push_str("WHERE { ");
                print_group_contents(pattern, &mut out);
                out.push('}');
            }
        }
        rendered.push(out);
    }
    rendered.join(" ; ")
}

/// Each quad prints as its own statement (one `GRAPH` wrapper per named-graph
/// quad) so re-parsing preserves the exact sequence.
fn print_quad_data(quads: &[QuadData], out: &mut String) {
    for q in quads {
        if let Some(graph) = &q.graph {
            out.push_str("GRAPH ");
            out.push_str(&print_term(graph));
            out.push_str(" { ");
        }
        out.push_str(&print_term(&q.subject));
        out.push(' ');
        out.push_str(&print_term(&q.predicate));
        out.push(' ');
        out.push_str(&print_term(&q.object));
        out.push_str(" . ");
        if q.graph.is_some() {
            out.push_str("} ");
        }
    }
}

fn print_quad_patterns(patterns: &[QuadPatternAst], out: &mut String) {
    for qp in patterns {
        if let Some(graph) = &qp.graph {
            out.push_str("GRAPH ");
            out.push_str(&print_term_or_variable(graph));
            out.push_str(" { ");
        }
        out.push_str(&print_term_or_variable(&qp.triple.subject));
        out.push(' ');
        out.push_str(&print_term_or_variable(&qp.triple.predicate));
        out.push(' ');
        out.push_str(&print_term_or_variable(&qp.triple.object));
        out.push_str(" . ");
        if qp.graph.is_some() {
            out.push_str("} ");
        }
    }
}

fn print_term_or_variable(node: &TermOrVariable) -> String {
    match node {
        TermOrVariable::Variable(v) => format!("?{v}"),
        TermOrVariable::Term(t) => print_term(t),
    }
}

/// Renders a term in SPARQL constant syntax (identical to N-Triples for the
/// term shapes this engine supports).
pub fn print_term(term: &Term) -> String {
    term.to_ntriples()
}

/// Renders an expression; compound sub-expressions are parenthesized so the
/// single-comparison relational grammar re-parses them unambiguously.
pub fn print_expression(expr: &Expression) -> String {
    match expr {
        Expression::Variable(v) => format!("?{v}"),
        Expression::Constant(term) => print_term(term),
        Expression::Or(a, b) => format!("{} || {}", operand(a), operand(b)),
        Expression::And(a, b) => format!("{} && {}", operand(a), operand(b)),
        Expression::Not(inner) => format!("!{}", operand(inner)),
        Expression::Comparison { op, left, right } => {
            let op = match op {
                ComparisonOp::Eq => "=",
                ComparisonOp::Ne => "!=",
                ComparisonOp::Lt => "<",
                ComparisonOp::Le => "<=",
                ComparisonOp::Gt => ">",
                ComparisonOp::Ge => ">=",
            };
            format!("{} {op} {}", operand(left), operand(right))
        }
        Expression::Function { func, args } => {
            let name = match func {
                Function::Regex => "REGEX",
                Function::Str => "STR",
                Function::Lang => "LANG",
                Function::Datatype => "DATATYPE",
                Function::Bound => "BOUND",
                Function::IsIri => "ISIRI",
                Function::IsLiteral => "ISLITERAL",
                Function::IsBlank => "ISBLANK",
                Function::Contains => "CONTAINS",
                Function::StrStarts => "STRSTARTS",
                Function::StrEnds => "STRENDS",
            };
            let args: Vec<String> = args.iter().map(print_expression).collect();
            format!("{name}({})", args.join(", "))
        }
        Expression::Aggregate {
            func,
            distinct,
            arg,
        } => {
            let name = match func {
                AggregateFunction::Count => "COUNT",
                AggregateFunction::Sum => "SUM",
                AggregateFunction::Avg => "AVG",
                AggregateFunction::Min => "MIN",
                AggregateFunction::Max => "MAX",
            };
            let distinct = if *distinct { "DISTINCT " } else { "" };
            match arg {
                None => format!("{name}({distinct}*)"),
                Some(arg) => format!("{name}({distinct}{})", print_expression(arg)),
            }
        }
    }
}

/// An operand position requires a *primary* expression; wrap anything the
/// grammar treats as compound in parentheses.
fn operand(expr: &Expression) -> String {
    match expr {
        Expression::Variable(_)
        | Expression::Constant(_)
        | Expression::Function { .. }
        | Expression::Aggregate { .. }
        | Expression::Not(_) => print_expression(expr),
        Expression::Or(..) | Expression::And(..) | Expression::Comparison { .. } => {
            format!("({})", print_expression(expr))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbold_sparql::parse_query;

    fn roundtrip(query: &str) {
        let ast1 = parse_query(query).unwrap_or_else(|e| panic!("parse {query:?}: {e}"));
        let printed = print_query(&ast1);
        let ast2 = parse_query(&printed)
            .unwrap_or_else(|e| panic!("re-parse of {printed:?} (from {query:?}): {e}"));
        assert_eq!(ast1, ast2, "print fixpoint broken:\n  {query}\n  {printed}");
    }

    #[test]
    fn fixpoint_on_representative_queries() {
        for q in [
            "SELECT ?s WHERE { ?s a <http://e.org/C> }",
            "SELECT * WHERE { }",
            "ASK { ?s ?p ?o }",
            "SELECT DISTINCT ?s ?o WHERE { ?s <http://e.org/p> ?o . ?o <http://e.org/q> ?z }",
            "SELECT ?s WHERE { { ?s <http://e.org/p> ?o } { ?o <http://e.org/q> ?z } }",
            "SELECT ?s WHERE { ?s <http://e.org/p> ?o OPTIONAL { ?o <http://e.org/q> ?z } }",
            "SELECT ?s WHERE { OPTIONAL { ?s <http://e.org/q> ?z } }",
            "SELECT ?s WHERE { { ?s <http://e.org/p> ?o } UNION { ?s <http://e.org/q> ?o } }",
            "SELECT ?s WHERE { { { ?s <http://e.org/p> ?o } UNION { } } UNION { ?s <http://e.org/q> ?o } }",
            "SELECT ?s WHERE { ?s <http://e.org/p> ?o FILTER(?o > 3) FILTER(BOUND(?s)) }",
            "SELECT ?s WHERE { { ?s <http://e.org/p> ?o FILTER(?o != \"x\"@en) } OPTIONAL { ?o <http://e.org/q> ?z } }",
            "SELECT ?s WHERE { ?s ?p ?o FILTER(!(?o = 1 || ?o < -2) && ISIRI(?s)) }",
            "SELECT ?s WHERE { ?s ?p ?o FILTER(REGEX(STR(?o), \"^a|b$\", \"im\")) }",
            "SELECT ?c (COUNT(DISTINCT ?s) AS ?n) (SUM(?v) AS ?t) WHERE { ?s a ?c . ?s <http://e.org/v> ?v } GROUP BY ?c ORDER BY DESC(?n) ?c LIMIT 5 OFFSET 2",
            "SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }",
            "SELECT ?s WHERE { ?s ?p \"tab\\there \\\"and\\\" line\\nbreak\\\\slash\" }",
            "SELECT ?s WHERE { ?s ?p \"2.5\"^^<http://www.w3.org/2001/XMLSchema#decimal> }",
            "SELECT ?s WHERE { ?s ?p true . ?s ?q -42 } ORDER BY ?s LIMIT 0",
            "SELECT ?s WHERE { ?s ?p ?o } ORDER BY ASC(STR(?s)) DESC(?o)",
        ] {
            roundtrip(q);
        }
    }

    #[test]
    fn printed_literals_use_lexer_safe_escapes() {
        let q = parse_query("SELECT ?s WHERE { ?s ?p \"a\\nb\\tc\\\"d\\\\e\" }").unwrap();
        let printed = print_query(&q);
        assert!(!printed.contains('\n'), "raw newline leaked: {printed:?}");
        assert_eq!(parse_query(&printed).unwrap(), q);
    }
}
