//! Evaluation of SPARQL expressions against a solution (variable binding).

use std::collections::BTreeMap;

use hbold_rdf_model::vocab::xsd;
use hbold_rdf_model::{Literal, Term};

use crate::ast::{ComparisonOp, Expression, Function};
use crate::error::SparqlError;
use crate::regex::Regex;

/// A solution mapping: variable name → bound term.
///
/// A `BTreeMap` keeps iteration deterministic, which keeps query results and
/// therefore every experiment in the benchmark harness reproducible.
///
/// The engine itself never builds a `Binding` — it runs on
/// dictionary-encoded slot rows, a group's answer included (see
/// [`crate::encoded`]), and decodes lazily through a [`Scope`] — but several
/// public APIs and the reference evaluator speak this type.
pub type Binding = BTreeMap<String, Term>;

/// A source of variable bindings for expression evaluation.
///
/// Expressions are evaluated identically over a Term-domain [`Binding`] and
/// over the engine's dictionary-encoded slot rows; this trait is the seam.
/// `term` returns a decoded (owned) term — for encoded rows that is a lazy
/// dictionary decode performed only when an expression actually touches the
/// variable, which is the "decode only where lexical values are genuinely
/// needed" half of encoded execution.
pub trait Scope {
    /// The term bound to `name`, or `None` when unbound.
    fn term(&self, name: &str) -> Option<Term>;

    /// Whether `name` is bound (the `BOUND(?v)` test); unlike [`Scope::term`]
    /// this never needs to decode.
    fn is_bound(&self, name: &str) -> bool {
        self.term(name).is_some()
    }
}

impl Scope for Binding {
    fn term(&self, name: &str) -> Option<Term> {
        self.get(name).cloned()
    }

    fn is_bound(&self, name: &str) -> bool {
        self.contains_key(name)
    }
}

/// The value an expression evaluates to.
///
/// `Error` models SPARQL's "error" outcome (type errors, unbound variables in
/// most positions); in filter context an error counts as `false`.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalValue {
    /// An RDF term.
    Term(Term),
    /// A boolean produced by a comparison, logical operator or predicate
    /// function.
    Bool(bool),
    /// Expression error (propagates, and is falsy in filters).
    Error,
}

impl EvalValue {
    /// SPARQL effective boolean value of this value.
    pub fn effective_boolean(&self) -> Option<bool> {
        match self {
            EvalValue::Bool(b) => Some(*b),
            EvalValue::Term(Term::Literal(lit)) => lit.value().effective_boolean(),
            EvalValue::Term(_) => None,
            EvalValue::Error => None,
        }
    }

    /// Converts to a term when possible (booleans become `xsd:boolean`
    /// literals), used for projection expressions.
    pub fn into_term(self) -> Option<Term> {
        match self {
            EvalValue::Term(t) => Some(t),
            EvalValue::Bool(b) => Some(Term::Literal(Literal::boolean(b))),
            EvalValue::Error => None,
        }
    }
}

/// Evaluates `expr` against any [`Scope`]: a Term-domain [`Binding`] or the
/// encoded engine's slot rows.
///
/// Aggregates are *not* handled here (they are evaluated per group by the
/// engine); encountering one is reported as an error.
pub fn evaluate_scoped(expr: &Expression, scope: &impl Scope) -> Result<EvalValue, SparqlError> {
    Ok(match expr {
        Expression::Variable(name) => match scope.term(name) {
            Some(term) => EvalValue::Term(term),
            None => EvalValue::Error,
        },
        Expression::Constant(term) => EvalValue::Term(term.clone()),
        Expression::Or(a, b) => {
            let left = evaluate_scoped(a, scope)?.effective_boolean();
            let right = evaluate_scoped(b, scope)?.effective_boolean();
            match (left, right) {
                (Some(true), _) | (_, Some(true)) => EvalValue::Bool(true),
                (Some(false), Some(false)) => EvalValue::Bool(false),
                _ => EvalValue::Error,
            }
        }
        Expression::And(a, b) => {
            let left = evaluate_scoped(a, scope)?.effective_boolean();
            let right = evaluate_scoped(b, scope)?.effective_boolean();
            match (left, right) {
                (Some(false), _) | (_, Some(false)) => EvalValue::Bool(false),
                (Some(true), Some(true)) => EvalValue::Bool(true),
                _ => EvalValue::Error,
            }
        }
        Expression::Not(inner) => match evaluate_scoped(inner, scope)?.effective_boolean() {
            Some(b) => EvalValue::Bool(!b),
            None => EvalValue::Error,
        },
        Expression::Comparison { op, left, right } => {
            let l = evaluate_scoped(left, scope)?;
            let r = evaluate_scoped(right, scope)?;
            compare(*op, &l, &r)
        }
        Expression::Function { func, args } => evaluate_function(*func, args, scope)?,
        Expression::Aggregate { .. } => {
            return Err(SparqlError::Evaluation(
                "aggregate used outside of a grouped projection".into(),
            ))
        }
    })
}

/// Evaluates a filter condition over any [`Scope`]: errors and non-boolean
/// outcomes are `false`.
pub fn filter_passes_scoped(expr: &Expression, scope: &impl Scope) -> Result<bool, SparqlError> {
    Ok(evaluate_scoped(expr, scope)?
        .effective_boolean()
        .unwrap_or(false))
}

fn compare(op: ComparisonOp, left: &EvalValue, right: &EvalValue) -> EvalValue {
    let (EvalValue::Term(l), EvalValue::Term(r)) = (left, right) else {
        // Comparing booleans works too (e.g. `BOUND(?x) = true`).
        if let (Some(a), Some(b)) = (left.effective_boolean(), right.effective_boolean()) {
            return apply_ordering(op, a.cmp(&b));
        }
        return EvalValue::Error;
    };
    match (l, r) {
        (Term::Literal(a), Term::Literal(b)) => {
            let va = a.value();
            let vb = b.value();
            match va.partial_cmp(&vb) {
                Some(ord) => apply_ordering(op, ord),
                // Two numeric values with no ordering means NaN is involved:
                // per XPath numeric comparison NaN is not equal to anything
                // (itself included), so `=` is false and `!=` is true — NOT
                // term equality, which would make `"NaN"^^xsd:double = ?x`
                // true when ?x is the same literal.
                None if va.is_numeric() && vb.is_numeric() => match op {
                    ComparisonOp::Eq => EvalValue::Bool(false),
                    ComparisonOp::Ne => EvalValue::Bool(true),
                    _ => EvalValue::Error,
                },
                // Otherwise incomparable (mixed types): only = / != are
                // defined, by RDF term equality.
                None => match op {
                    ComparisonOp::Eq => EvalValue::Bool(a == b),
                    ComparisonOp::Ne => EvalValue::Bool(a != b),
                    _ => EvalValue::Error,
                },
            }
        }
        // IRIs and blank nodes support (in)equality only.
        (a, b) => match op {
            ComparisonOp::Eq => EvalValue::Bool(a == b),
            ComparisonOp::Ne => EvalValue::Bool(a != b),
            _ => EvalValue::Error,
        },
    }
}

fn apply_ordering(op: ComparisonOp, ord: std::cmp::Ordering) -> EvalValue {
    use std::cmp::Ordering::*;
    EvalValue::Bool(match op {
        ComparisonOp::Eq => ord == Equal,
        ComparisonOp::Ne => ord != Equal,
        ComparisonOp::Lt => ord == Less,
        ComparisonOp::Le => ord != Greater,
        ComparisonOp::Gt => ord == Greater,
        ComparisonOp::Ge => ord != Less,
    })
}

fn evaluate_function(
    func: Function,
    args: &[Expression],
    scope: &impl Scope,
) -> Result<EvalValue, SparqlError> {
    let arg = |i: usize| -> Result<EvalValue, SparqlError> {
        args.get(i)
            .map(|e| evaluate_scoped(e, scope))
            .unwrap_or(Ok(EvalValue::Error))
    };
    Ok(match func {
        Function::Bound => match args.first() {
            Some(Expression::Variable(name)) => EvalValue::Bool(scope.is_bound(name)),
            _ => {
                return Err(SparqlError::Evaluation(
                    "BOUND expects a single variable argument".into(),
                ))
            }
        },
        Function::Str => match arg(0)? {
            EvalValue::Term(t) => {
                EvalValue::Term(Term::Literal(Literal::string(term_string_value(&t))))
            }
            _ => EvalValue::Error,
        },
        Function::Lang => match arg(0)? {
            EvalValue::Term(Term::Literal(lit)) => {
                EvalValue::Term(Term::Literal(Literal::string(lit.language().unwrap_or(""))))
            }
            _ => EvalValue::Error,
        },
        Function::Datatype => match arg(0)? {
            EvalValue::Term(Term::Literal(lit)) => {
                EvalValue::Term(Term::Iri(lit.datatype().clone()))
            }
            _ => EvalValue::Error,
        },
        Function::IsIri => match arg(0)? {
            EvalValue::Term(t) => EvalValue::Bool(t.is_iri()),
            _ => EvalValue::Error,
        },
        Function::IsLiteral => match arg(0)? {
            EvalValue::Term(t) => EvalValue::Bool(t.is_literal()),
            _ => EvalValue::Error,
        },
        Function::IsBlank => match arg(0)? {
            EvalValue::Term(t) => EvalValue::Bool(t.is_blank()),
            _ => EvalValue::Error,
        },
        Function::Contains | Function::StrStarts | Function::StrEnds => {
            let (Some(hay), Some(needle)) = (string_arg(arg(0)?), string_arg(arg(1)?)) else {
                return Ok(EvalValue::Error);
            };
            EvalValue::Bool(match func {
                Function::Contains => hay.contains(&needle),
                Function::StrStarts => hay.starts_with(&needle),
                _ => hay.ends_with(&needle),
            })
        }
        Function::Regex => {
            let (Some(text), Some(pattern)) = (string_arg(arg(0)?), string_arg(arg(1)?)) else {
                return Ok(EvalValue::Error);
            };
            let flags = if args.len() > 2 {
                string_arg(arg(2)?).unwrap_or_default()
            } else {
                String::new()
            };
            let regex = Regex::with_flags(&pattern, &flags)
                .map_err(|e| SparqlError::Evaluation(e.to_string()))?;
            EvalValue::Bool(regex.is_match(&text))
        }
    })
}

/// The string value of a term, as the `STR` function defines it.
pub fn term_string_value(term: &Term) -> String {
    match term {
        Term::Iri(iri) => iri.as_str().to_string(),
        Term::Literal(lit) => lit.lexical_form().to_string(),
        Term::Blank(b) => b.label().to_string(),
    }
}

fn string_arg(value: EvalValue) -> Option<String> {
    match value {
        EvalValue::Term(t) => Some(term_string_value(&t)),
        EvalValue::Bool(_) | EvalValue::Error => None,
    }
}

/// Numeric view of a term for aggregation (`SUM`, `AVG`).
pub fn numeric_value(term: &Term) -> Option<f64> {
    term.as_literal().and_then(|lit| lit.value().as_f64())
}

/// Builds an `xsd:integer` or `xsd:double` literal term from an `f64`,
/// preferring the integer form when the value is integral.
pub fn number_term(value: f64) -> Term {
    // Exactly the f64 values representable as an i64: the half-open range
    // [-2^63, 2^63). `i64::MAX as f64` rounds *up* to 2^63, so `<` (not `<=`)
    // is the correct upper test, and the lower bound must be checked
    // separately — `value.abs() < i64::MAX as f64` wrongly excluded
    // `-2^63` (= `i64::MIN`, exactly representable) because `|-2^63|` is not
    // strictly below 2^63.
    if value.fract() == 0.0 && value >= i64::MIN as f64 && value < i64::MAX as f64 {
        Term::Literal(Literal::integer(value as i64))
    } else {
        Term::Literal(Literal::typed(format!("{value}"), xsd::double()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Expression as E;
    use hbold_rdf_model::Iri;

    fn binding(pairs: &[(&str, Term)]) -> Binding {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect()
    }

    fn int(n: i64) -> Term {
        Term::Literal(Literal::integer(n))
    }

    #[test]
    fn variable_and_constant_lookup() {
        let b = binding(&[("x", int(5))]);
        assert_eq!(
            evaluate_scoped(&E::Variable("x".into()), &b).unwrap(),
            EvalValue::Term(int(5))
        );
        assert_eq!(
            evaluate_scoped(&E::Variable("missing".into()), &b).unwrap(),
            EvalValue::Error
        );
        assert_eq!(
            evaluate_scoped(&E::Constant(int(1)), &b).unwrap(),
            EvalValue::Term(int(1))
        );
    }

    #[test]
    fn numeric_comparisons() {
        let b = binding(&[("age", int(42))]);
        let expr = E::Comparison {
            op: ComparisonOp::Ge,
            left: Box::new(E::Variable("age".into())),
            right: Box::new(E::Constant(int(18))),
        };
        assert!(filter_passes_scoped(&expr, &b).unwrap());
        let expr = E::Comparison {
            op: ComparisonOp::Lt,
            left: Box::new(E::Variable("age".into())),
            right: Box::new(E::Constant(int(18))),
        };
        assert!(!filter_passes_scoped(&expr, &b).unwrap());
    }

    #[test]
    fn iri_equality_only() {
        let a = Term::Iri(Iri::new("http://e.org/a").unwrap());
        let b_term = Term::Iri(Iri::new("http://e.org/b").unwrap());
        let b = binding(&[("x", a.clone())]);
        let eq = E::Comparison {
            op: ComparisonOp::Eq,
            left: Box::new(E::Variable("x".into())),
            right: Box::new(E::Constant(a.clone())),
        };
        assert!(filter_passes_scoped(&eq, &b).unwrap());
        let lt = E::Comparison {
            op: ComparisonOp::Lt,
            left: Box::new(E::Variable("x".into())),
            right: Box::new(E::Constant(b_term)),
        };
        assert!(
            !filter_passes_scoped(&lt, &b).unwrap(),
            "IRI order comparison is an error, hence false"
        );
    }

    #[test]
    fn logical_operators_with_error_semantics() {
        let b = binding(&[("x", int(1))]);
        let bound_true = E::Function {
            func: Function::Bound,
            args: vec![E::Variable("x".into())],
        };
        let unbound = E::Variable("nope".into());
        // true || error = true
        let or = E::Or(Box::new(bound_true.clone()), Box::new(unbound.clone()));
        assert!(filter_passes_scoped(&or, &b).unwrap());
        // error && true = error -> false in filter context
        let and = E::And(Box::new(unbound), Box::new(bound_true.clone()));
        assert!(!filter_passes_scoped(&and, &b).unwrap());
        // !true = false
        assert!(!filter_passes_scoped(&E::Not(Box::new(bound_true)), &b).unwrap());
    }

    #[test]
    fn string_functions() {
        let url = Term::Literal(Literal::string("http://data.europa.eu/sparql"));
        let b = binding(&[("url", url)]);
        let make = |func, args| E::Function { func, args };
        assert!(filter_passes_scoped(
            &make(
                Function::Contains,
                vec![
                    E::Variable("url".into()),
                    E::Constant(Term::Literal(Literal::string("europa")))
                ]
            ),
            &b
        )
        .unwrap());
        assert!(filter_passes_scoped(
            &make(
                Function::StrStarts,
                vec![
                    E::Variable("url".into()),
                    E::Constant(Term::Literal(Literal::string("http")))
                ]
            ),
            &b
        )
        .unwrap());
        assert!(filter_passes_scoped(
            &make(
                Function::StrEnds,
                vec![
                    E::Variable("url".into()),
                    E::Constant(Term::Literal(Literal::string("sparql")))
                ]
            ),
            &b
        )
        .unwrap());
        assert!(!filter_passes_scoped(
            &make(
                Function::Contains,
                vec![
                    E::Variable("url".into()),
                    E::Constant(Term::Literal(Literal::string("csv")))
                ]
            ),
            &b
        )
        .unwrap());
    }

    #[test]
    fn regex_function_with_flags() {
        let url = Term::Iri(Iri::new("http://data.europa.eu/SPARQL").unwrap());
        let b = binding(&[("url", url)]);
        let expr = E::Function {
            func: Function::Regex,
            args: vec![
                E::Variable("url".into()),
                E::Constant(Term::Literal(Literal::string("sparql"))),
                E::Constant(Term::Literal(Literal::string("i"))),
            ],
        };
        assert!(filter_passes_scoped(&expr, &b).unwrap());
        let bad = E::Function {
            func: Function::Regex,
            args: vec![
                E::Variable("url".into()),
                E::Constant(Term::Literal(Literal::string("(unclosed"))),
            ],
        };
        assert!(evaluate_scoped(&bad, &b).is_err());
    }

    #[test]
    fn term_inspection_functions() {
        let lit = Term::Literal(Literal::lang_string("ciao", "it"));
        let iri = Term::Iri(Iri::new("http://e.org/a").unwrap());
        let b = binding(&[("l", lit), ("i", iri)]);
        let f = |func, var: &str| E::Function {
            func,
            args: vec![E::Variable(var.into())],
        };
        assert!(filter_passes_scoped(&f(Function::IsLiteral, "l"), &b).unwrap());
        assert!(filter_passes_scoped(&f(Function::IsIri, "i"), &b).unwrap());
        assert!(!filter_passes_scoped(&f(Function::IsBlank, "i"), &b).unwrap());
        match evaluate_scoped(&f(Function::Lang, "l"), &b).unwrap() {
            EvalValue::Term(Term::Literal(l)) => assert_eq!(l.lexical_form(), "it"),
            other => panic!("unexpected {other:?}"),
        }
        match evaluate_scoped(&f(Function::Str, "i"), &b).unwrap() {
            EvalValue::Term(Term::Literal(l)) => assert_eq!(l.lexical_form(), "http://e.org/a"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn number_term_prefers_integers() {
        assert_eq!(number_term(3.0), int(3));
        match number_term(2.5) {
            Term::Literal(l) => assert_eq!(l.lexical_form(), "2.5"),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(numeric_value(&int(7)), Some(7.0));
        assert_eq!(numeric_value(&Term::Literal(Literal::string("x"))), None);
    }
}
