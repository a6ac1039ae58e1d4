//! Query results and their serializations.
//!
//! Serialization formats follow the SPARQL 1.1 recommendations the HTTP
//! protocol layer negotiates between: the Query Results JSON Format
//! (`application/sparql-results+json`, both directions), CSV
//! (`text/csv`) and TSV (`text/tab-separated-values`). The JSON decoder
//! exists so `hbold_server`-served results can be read back by the HTTP
//! client into the exact [`QueryResults`] the engine produced — the
//! round-trip is lexical and lossless.
//!
//! Both JSON directions stand on [`hbold_telemetry::json`]: the encoder
//! pushes into one buffer and escapes with its `write_str`, the decoder
//! reads rows straight off its `Reader`'s events — no tree in between, and
//! nesting bounded by the reader, so a hostile endpoint's body is a
//! [`ResultsParseError`], never a stack overflow. The decoder does not
//! depend on member order (`results` may precede `head`, a term's `value`
//! its `type`: third-party endpoints owe us no order), and of a repeated
//! member the first wins, as [`JsonValue::get`] answers. A term that
//! repeats in its column is built once: each column remembers its last few
//! distinct terms beside the exact texts they were built from, and a cell
//! spelled the same is the remembered term, shared (see `Window`).

use std::borrow::Cow;
use std::fmt;

use hbold_rdf_model::text::Cursor;
use hbold_rdf_model::vocab::{datatype_iri, rdf, xsd};
use hbold_rdf_model::{BlankNode, Iri, Literal, Term};
use hbold_telemetry::json::{write_str, Event, JsonError, JsonValue, Reader};

use crate::expr::Binding;

/// The result of evaluating a query.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResults {
    /// Result of a SELECT query.
    Select(SelectResults),
    /// Result of an ASK query.
    Ask(bool),
}

impl QueryResults {
    /// Consumes the results, returning the SELECT table if this was a SELECT.
    pub fn into_select(self) -> Option<SelectResults> {
        match self {
            QueryResults::Select(s) => Some(s),
            QueryResults::Ask(_) => None,
        }
    }

    /// Returns the boolean if this was an ASK result.
    pub fn as_ask(&self) -> Option<bool> {
        match self {
            QueryResults::Ask(b) => Some(*b),
            QueryResults::Select(_) => None,
        }
    }

    /// Serializes either result form in the SPARQL 1.1 Query Results JSON
    /// format (`{"head":{},"boolean":...}` for ASK).
    pub fn to_sparql_json(&self) -> String {
        match self {
            QueryResults::Select(s) => s.to_sparql_json(),
            QueryResults::Ask(b) => JsonValue::object([
                ("head", JsonValue::Object(Vec::new())),
                ("boolean", JsonValue::Bool(*b)),
            ])
            .to_string(),
        }
    }

    /// Parses a SPARQL 1.1 Query Results JSON document (SELECT or ASK).
    ///
    /// This is the exact inverse of [`QueryResults::to_sparql_json`]: the
    /// variables, row order, bound/unbound structure and every term's
    /// lexical form, language tag and datatype survive the round-trip.
    /// Members may come in any order; of a repeated member the first wins.
    pub fn from_sparql_json(text: &str) -> Result<QueryResults, ResultsParseError> {
        let mut reader = Reader::new(text);
        let mut boolean = None;
        let mut variables: Option<Vec<String>> = None;
        let mut rows = None;
        // A `results` member met before `head`: read once the variables are
        // known, from a fork of the reader left at its value.
        let mut deferred: Option<Reader> = None;
        read_object(&mut reader, "results document", |reader, key| {
            match &*key {
                "boolean" if boolean.is_none() => match next(reader)? {
                    Event::Bool(b) => boolean = Some(b),
                    _ => return Err(ResultsParseError("\"boolean\" is not a boolean".into())),
                },
                // An ASK answer's `head` has no `vars`.
                "head" if variables.is_none() => {
                    variables = read_list(reader, "head", "vars", |_, first| match first {
                        Event::String(v) => Ok(v.into_owned()),
                        _ => Err(ResultsParseError("head.vars entry is not a string".into())),
                    })?
                }
                "results" if rows.is_none() && deferred.is_none() => match &variables {
                    Some(variables) => rows = read_rows(reader, variables)?,
                    None => {
                        deferred = Some(reader.clone());
                        reader.skip().map_err(malformed)?;
                    }
                },
                _ => reader.skip().map_err(malformed)?,
            }
            Ok(())
        })?;
        // `Eof`, or the error for what trails the document.
        next(&mut reader)?;
        if let Some(boolean) = boolean {
            return Ok(QueryResults::Ask(boolean));
        }
        let variables = variables.ok_or_else(|| ResultsParseError("missing head.vars".into()))?;
        if let Some(mut reader) = deferred {
            rows = read_rows(&mut reader, &variables)?;
        }
        let rows = rows.ok_or_else(|| ResultsParseError("missing results.bindings".into()))?;
        Ok(QueryResults::Select(SelectResults { variables, rows }))
    }
}

/// Error decoding a serialized results document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResultsParseError(pub String);

impl fmt::Display for ResultsParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid SPARQL results: {}", self.0)
    }
}

impl std::error::Error for ResultsParseError {}

fn malformed(e: JsonError) -> ResultsParseError {
    ResultsParseError(format!("malformed results document: {e}"))
}

fn next<'a>(reader: &mut Reader<'a>) -> Result<Event<'a>, ResultsParseError> {
    reader.next().map_err(malformed)
}

/// Reads the members of the object that is due, handing each key to `member`
/// with the reader at its value.
fn read_object<'a>(
    reader: &mut Reader<'a>,
    what: &str,
    mut member: impl FnMut(&mut Reader<'a>, Cow<'a, str>) -> Result<(), ResultsParseError>,
) -> Result<(), ResultsParseError> {
    if next(reader)? != Event::StartObject {
        return Err(ResultsParseError(format!("{what} is not an object")));
    }
    while let Event::Key(key) = next(reader)? {
        member(reader, key)?;
    }
    Ok(())
}

/// Reads an object for its one array member — `head` for its `vars`,
/// `results` for its `bindings` — handing each item's first event to `item`.
/// Other members are read past, and so is a second `name`; `None` when the
/// object has no such member.
fn read_list<'a, T>(
    reader: &mut Reader<'a>,
    what: &str,
    name: &str,
    mut item: impl FnMut(&mut Reader<'a>, Event<'a>) -> Result<T, ResultsParseError>,
) -> Result<Option<Vec<T>>, ResultsParseError> {
    let mut list = None;
    read_object(reader, what, |reader, key| {
        if key != name || list.is_some() {
            return reader.skip().map_err(malformed);
        }
        if next(reader)? != Event::StartArray {
            return Err(ResultsParseError(format!("{what}.{name} is not an array")));
        }
        let mut items = Vec::new();
        loop {
            match next(reader)? {
                Event::EndArray => break,
                first => items.push(item(reader, first)?),
            }
        }
        list = Some(items);
        Ok(())
    })?;
    Ok(list)
}

/// `results`: the rows of its `bindings`, one cell per variable.
fn read_rows<'a>(
    reader: &mut Reader<'a>,
    variables: &[String],
) -> Result<Option<Vec<Vec<Option<Term>>>>, ResultsParseError> {
    let columns = Columns::new(variables);
    let mut windows: Vec<Window> = variables
        .iter()
        .map(|_| Window {
            seen: Vec::with_capacity(WINDOW),
            oldest: 0,
        })
        .collect();
    read_list(reader, "results", "bindings", |reader, first| match first {
        Event::StartObject => read_binding(reader, &columns, &mut windows),
        _ => Err(ResultsParseError("binding is not an object".into())),
    })
}

/// The projected variables of one document, with the first column of each
/// one's name: `SELECT ?s ?s` projects a name twice, and every column of it
/// holds the term its first column reads.
struct Columns<'v> {
    names: &'v [String],
    first: Vec<usize>,
}

impl<'v> Columns<'v> {
    fn new(names: &'v [String]) -> Self {
        let first = names
            .iter()
            .enumerate()
            .map(|(i, name)| names[..i].iter().position(|n| n == name).unwrap_or(i))
            .collect();
        Columns { names, first }
    }

    /// A column named `name`. An encoder writes a row's cells in column
    /// order, so the column after the previous cell's is tried first.
    fn find(&self, name: &str, expected: usize) -> Option<usize> {
        match self.names.get(expected) {
            Some(n) if n == name => Some(expected),
            _ => self.names.iter().position(|n| n == name),
        }
    }
}

/// One binding object, its `{` already read.
fn read_binding<'a>(
    reader: &mut Reader<'a>,
    columns: &Columns,
    windows: &mut [Window<'a>],
) -> Result<Vec<Option<Term>>, ResultsParseError> {
    let mut row = vec![None; columns.names.len()];
    let mut expected = 0;
    while let Event::Key(name) = next(reader)? {
        let column = columns.find(&name, expected).ok_or_else(|| {
            ResultsParseError(format!("binding mentions unprojected variable ?{name}"))
        })?;
        expected = column + 1;
        let first = columns.first[column];
        if row[first].is_some() {
            reader.skip().map_err(malformed)?;
            continue;
        }
        let term = read_term(reader, &mut windows[first])?;
        for (cell, &of) in row.iter_mut().zip(&columns.first).skip(first + 1) {
            if of == first {
                *cell = Some(term.clone());
            }
        }
        row[first] = Some(term);
    }
    Ok(row)
}

/// How many distinct terms a column remembers. On sorted `?s ?p ?o` pages
/// 28 % of cells repeat the last term of their column, 52 % one of the last
/// 4, 64 % one of the last 8 and 65 % one of the last 16.
const WINDOW: usize = 8;

/// The term types the decoder builds.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Uri,
    Bnode,
    Literal,
}

/// A term object's members as the document spells them, escapes decoded.
/// Decoding is a function of exactly these four texts.
#[derive(Debug, PartialEq)]
struct Spelling<'a> {
    kind: Kind,
    value: Cow<'a, str>,
    lang: Option<Cow<'a, str>>,
    datatype: Option<Cow<'a, str>>,
}

/// One column's last few distinct terms, each beside the spelling it was
/// built from. A listing repeats a subject on consecutive rows and a class's
/// few predicates down its column; a cell spelled byte for byte like a
/// remembered one is that term, shared, with nothing validated or copied
/// again. The compare is kind, then length, then bytes — no hash: a pool
/// hashed per document cost more than it saved.
struct Window<'a> {
    seen: Vec<(Spelling<'a>, Term)>,
    /// The entry a miss overwrites once the window is full.
    oldest: usize,
}

impl<'a> Window<'a> {
    fn get(&self, spelling: &Spelling) -> Option<&Term> {
        self.seen
            .iter()
            .find(|(s, _)| s == spelling)
            .map(|(_, t)| t)
    }

    fn remember(&mut self, spelling: Spelling<'a>, term: Term) {
        if self.seen.len() < WINDOW {
            self.seen.push((spelling, term));
        } else {
            self.seen[self.oldest] = (spelling, term);
            self.oldest = (self.oldest + 1) % WINDOW;
        }
    }
}

fn read_term<'a>(
    reader: &mut Reader<'a>,
    window: &mut Window<'a>,
) -> Result<Term, ResultsParseError> {
    if next(reader)? != Event::StartObject {
        return Err(ResultsParseError("term is not an object".into()));
    }
    let [mut kind, mut value, mut lang, mut datatype] = [None, None, None, None];
    while let Event::Key(key) = next(reader)? {
        let slot = match &*key {
            "type" => &mut kind,
            "value" => &mut value,
            "xml:lang" => &mut lang,
            "datatype" => &mut datatype,
            _ => {
                reader.skip().map_err(malformed)?;
                continue;
            }
        };
        if slot.is_some() {
            reader.skip().map_err(malformed)?;
            continue;
        }
        match next(reader)? {
            Event::String(s) => *slot = Some(s),
            _ => return Err(ResultsParseError(format!("term's {key:?} is not a string"))),
        }
    }
    let kind = kind.ok_or_else(|| ResultsParseError("term has no \"type\"".into()))?;
    let value = value.ok_or_else(|| ResultsParseError("term has no \"value\"".into()))?;
    let kind = match &*kind {
        "uri" => Kind::Uri,
        "bnode" => Kind::Bnode,
        "literal" => Kind::Literal,
        // The legacy D2R/Virtuoso "typed-literal" spelling is deliberately
        // rejected: the encoder in this crate can never emit it, so a decoder
        // accepting it could not be exercised by round-trip testing.
        "typed-literal" => {
            return Err(ResultsParseError(
                "legacy \"typed-literal\" term type is not supported".into(),
            ))
        }
        other => return Err(ResultsParseError(format!("unknown term type {other:?}"))),
    };
    let spelling = Spelling {
        kind,
        value,
        lang,
        datatype,
    };
    if let Some(term) = window.get(&spelling) {
        return Ok(term.clone());
    }
    let term = build_term(&spelling)?;
    window.remember(spelling, term.clone());
    Ok(term)
}

/// The term a cell spells, or why it is none. Every text is copied once,
/// from the document (or the unescaped string the reader made) into the
/// term; a well-known datatype is shared.
fn build_term(cell: &Spelling) -> Result<Term, ResultsParseError> {
    let lexical = &*cell.value;
    match cell.kind {
        Kind::Uri => Iri::parse(lexical)
            .map(Term::Iri)
            .map_err(|e| ResultsParseError(format!("invalid IRI term: {}", e.reason()))),
        Kind::Bnode => Ok(Term::Blank(BlankNode::from_label(lexical))),
        Kind::Literal => match (cell.lang.as_deref(), cell.datatype.as_deref()) {
            // The encoder emits *either* xml:lang or datatype, never
            // both; a document carrying both is corrupt, not a term this
            // implementation could have produced.
            (Some(_), Some(_)) => Err(ResultsParseError(
                "literal carries both xml:lang and datatype".into(),
            )),
            (Some(lang), None) => Ok(Term::Literal(Literal::new_tagged(lexical, lang))),
            // rdf:langString only ever appears *with* a language tag.
            (None, Some(dt)) if dt == rdf::text::lang_string => Err(ResultsParseError(
                "rdf:langString literal without xml:lang".into(),
            )),
            (None, Some(dt)) => {
                let datatype = datatype_iri(dt).map_err(|e| {
                    ResultsParseError(format!("invalid datatype IRI: {}", e.reason()))
                })?;
                Ok(Term::Literal(Literal::new_typed(lexical, datatype)))
            }
            (None, None) => Ok(Term::Literal(Literal::new_simple(lexical))),
        },
    }
}

/// A SELECT result table.
///
/// `rows[i][j]` is the binding of `variables[j]` in solution `i`; `None`
/// means the variable is unbound in that solution (e.g. under `OPTIONAL`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SelectResults {
    /// Projected variable names, in projection order, without the leading `?`.
    pub variables: Vec<String>,
    /// Solution rows.
    pub rows: Vec<Vec<Option<Term>>>,
}

impl SelectResults {
    /// Number of solutions.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` if there are no solutions.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The column index of a variable, if projected.
    pub fn column(&self, variable: &str) -> Option<usize> {
        self.variables.iter().position(|v| v == variable)
    }

    /// The binding of `variable` in row `row`, if both exist and it is bound.
    pub fn value(&self, row: usize, variable: &str) -> Option<&Term> {
        let col = self.column(variable)?;
        self.rows.get(row)?.get(col)?.as_ref()
    }

    /// Iterates the rows as [`Binding`] maps (unbound variables omitted).
    pub fn iter_bindings(&self) -> impl Iterator<Item = Binding> + '_ {
        self.rows.iter().map(move |row| {
            self.variables
                .iter()
                .zip(row.iter())
                .filter_map(|(v, t)| t.as_ref().map(|t| (v.clone(), t.clone())))
                .collect()
        })
    }

    /// Serializes the table in the SPARQL 1.1 Query Results JSON format:
    /// the standard `head` / `results.bindings` structure, pushed into one
    /// buffer, every name and value through the workspace's one escaper.
    pub fn to_sparql_json(&self) -> String {
        let mut out = String::from(r#"{"head":{"vars":["#);
        for (i, v) in self.variables.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_str(&mut out, v);
        }
        out.push_str(r#"]},"results":{"bindings":["#);
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            let mut first = true;
            for (v, term) in self.variables.iter().zip(row.iter()) {
                let Some(term) = term else { continue };
                if !first {
                    out.push(',');
                }
                first = false;
                write_str(&mut out, v);
                out.push(':');
                write_term(&mut out, term);
            }
            out.push('}');
        }
        out.push_str("]}}");
        out
    }

    /// Serializes the table as CSV (header row of variables, then one row per
    /// solution; values are the term string values).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.variables.join(","));
        out.push('\n');
        for row in &self.rows {
            let cells: Vec<String> = row
                .iter()
                .map(|t| match t {
                    Some(term) => csv_escape(&crate::expr::term_string_value(term)),
                    None => String::new(),
                })
                .collect();
            out.push_str(&cells.join(","));
            out.push('\n');
        }
        out
    }

    /// Serializes the table in the SPARQL 1.1 Query Results TSV format:
    /// a header of `?`-prefixed variables, then one row per solution with
    /// terms in their SPARQL/Turtle syntax (`<iri>`, `"literal"@lang`,
    /// `"5"^^<...#integer>`, `_:label`); unbound variables are empty cells.
    ///
    /// Tabs, newlines and quotes inside literals are backslash-escaped by
    /// the N-Triples encoder, so a cell can never break the row structure.
    pub fn to_tsv(&self) -> String {
        let mut out = String::new();
        for (i, v) in self.variables.iter().enumerate() {
            if i > 0 {
                out.push('\t');
            }
            out.push('?');
            out.push_str(v);
        }
        out.push('\n');
        for row in &self.rows {
            for (i, term) in row.iter().enumerate() {
                if i > 0 {
                    out.push('\t');
                }
                if let Some(term) = term {
                    out.push_str(&term.to_ntriples());
                }
            }
            out.push('\n');
        }
        out
    }

    /// Parses a SPARQL TSV results document — the exact inverse of
    /// [`SelectResults::to_tsv`]: variables, row order, bound/unbound
    /// structure and every term (IRI, blank node, plain / language-tagged /
    /// typed literal) survive the round-trip losslessly.
    ///
    /// A cell is read as N-Triples reads a term, by the same reader
    /// ([`hbold_rdf_model::text::Cursor`]): every escape of the term
    /// grammars (`\t \b \n \r \f \" \' \\ \uXXXX \UXXXXXXXX`) decodes,
    /// and nothing may follow the term. Around the cells the decoder is
    /// strict: `?`-prefixed header columns, one solution per line, a
    /// trailing newline.
    pub fn from_tsv(text: &str) -> Result<SelectResults, ResultsParseError> {
        let mut lines: Vec<&str> = text.split('\n').collect();
        // The encoder terminates every line, including the last row, with
        // '\n', so a well-formed document splits into a trailing "".
        match lines.pop() {
            Some("") => {}
            _ => return Err(ResultsParseError("TSV must end with a newline".into())),
        }
        if lines.is_empty() {
            return Err(ResultsParseError("TSV is missing its header line".into()));
        }
        let header = lines.remove(0);
        let variables: Vec<String> = if header.is_empty() {
            Vec::new()
        } else {
            header
                .split('\t')
                .map(|col| match col.strip_prefix('?') {
                    Some(name) if !name.is_empty() => Ok(name.to_string()),
                    _ => Err(ResultsParseError(format!(
                        "TSV header column {col:?} is not a ?-prefixed variable"
                    ))),
                })
                .collect::<Result<_, _>>()?
        };
        let mut rows = Vec::with_capacity(lines.len());
        for line in lines {
            let row: Vec<Option<Term>> = if variables.is_empty() {
                if !line.is_empty() {
                    return Err(ResultsParseError(
                        "TSV row has cells but the header projects no variables".into(),
                    ));
                }
                Vec::new()
            } else {
                let cells: Vec<&str> = line.split('\t').collect();
                if cells.len() != variables.len() {
                    return Err(ResultsParseError(format!(
                        "TSV row has {} cells, header has {} variables",
                        cells.len(),
                        variables.len()
                    )));
                }
                cells.into_iter().map(tsv_term).collect::<Result<_, _>>()?
            };
            rows.push(row);
        }
        Ok(SelectResults { variables, rows })
    }
}

/// Parses one TSV cell: empty = unbound, otherwise an N-Triples term, read
/// by the workspace's one term reader.
fn tsv_term(cell: &str) -> Result<Option<Term>, ResultsParseError> {
    if cell.is_empty() {
        return Ok(None);
    }
    let mut cursor = Cursor::new(cell);
    let term = cursor.read_term().and_then(|term| match cursor.at_end() {
        true => Ok(term),
        false => Err(cursor.error("unexpected text after the term")),
    });
    term.map(Some).map_err(|e| {
        let (_, column) = e.line_column(cell);
        ResultsParseError(format!("TSV cell {cell:?}, column {column}: {}", e.message))
    })
}

/// A decoded CSV results document: the raw header and cell strings.
///
/// SPARQL's CSV serialization is intentionally *lossy* — cells hold term
/// string values with no type, language or bound/unbound distinction — so
/// decoding produces strings, not [`Term`]s. What the decoder does guarantee
/// (and what the fuzz harness checks) is that RFC 4180 quoting round-trips
/// every string exactly: commas, quotes, newlines and carriage returns
/// embedded in values never corrupt the table structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsvTable {
    /// The header row (variable names).
    pub header: Vec<String>,
    /// One entry per solution, in order; each holds one string per variable.
    pub rows: Vec<Vec<String>>,
}

impl CsvTable {
    /// Parses an RFC 4180 CSV document as produced by
    /// [`SelectResults::to_csv`]. Quoted fields may contain commas, doubled
    /// quotes, newlines and carriage returns; a quote inside an unquoted
    /// field, a lone CR between fields, or text after a closing quote are
    /// rejected.
    pub fn parse(text: &str) -> Result<CsvTable, ResultsParseError> {
        let chars: Vec<char> = text.chars().collect();
        let mut i = 0;
        let mut records: Vec<Vec<String>> = Vec::new();
        'records: loop {
            let mut record: Vec<String> = Vec::new();
            loop {
                let mut field = String::new();
                if chars.get(i) == Some(&'"') {
                    i += 1;
                    loop {
                        match chars.get(i) {
                            None => {
                                return Err(ResultsParseError(
                                    "unterminated quoted CSV field".into(),
                                ))
                            }
                            Some('"') if chars.get(i + 1) == Some(&'"') => {
                                field.push('"');
                                i += 2;
                            }
                            Some('"') => {
                                i += 1;
                                break;
                            }
                            Some(&c) => {
                                field.push(c);
                                i += 1;
                            }
                        }
                    }
                } else {
                    while let Some(&c) = chars.get(i) {
                        if c == ',' || c == '\n' || c == '\r' {
                            break;
                        }
                        if c == '"' {
                            return Err(ResultsParseError(
                                "quote inside unquoted CSV field".into(),
                            ));
                        }
                        field.push(c);
                        i += 1;
                    }
                }
                record.push(field);
                match chars.get(i) {
                    Some(',') => i += 1,
                    Some('\r') if chars.get(i + 1) == Some(&'\n') => {
                        i += 2;
                        break;
                    }
                    Some('\n') => {
                        i += 1;
                        break;
                    }
                    None => {
                        records.push(record);
                        break 'records;
                    }
                    Some(c) => {
                        return Err(ResultsParseError(format!(
                            "unexpected {c:?} after CSV field"
                        )))
                    }
                }
            }
            records.push(record);
            if i >= chars.len() {
                break;
            }
        }
        if records.is_empty() {
            return Err(ResultsParseError("CSV is missing its header row".into()));
        }
        let header = records.remove(0);
        for (n, row) in records.iter().enumerate() {
            if row.len() != header.len() {
                return Err(ResultsParseError(format!(
                    "CSV row {n} has {} fields, header has {}",
                    row.len(),
                    header.len()
                )));
            }
        }
        Ok(CsvTable {
            header,
            rows: records,
        })
    }
}

/// Escapes a string for JSON output (quotes included).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_str(&mut out, s);
    out
}

fn write_term(out: &mut String, term: &Term) {
    let (kind, value) = match term {
        Term::Iri(iri) => (r#"{"type":"uri","value":"#, iri.as_str()),
        Term::Blank(b) => (r#"{"type":"bnode","value":"#, b.label()),
        Term::Literal(lit) => (r#"{"type":"literal","value":"#, lit.lexical_form()),
    };
    out.push_str(kind);
    write_str(out, value);
    if let Term::Literal(lit) = term {
        match lit.language() {
            Some(lang) => {
                out.push_str(r#","xml:lang":"#);
                write_str(out, lang);
            }
            // A simple literal's `xsd:string` goes without saying (RDF 1.1).
            None if lit.datatype().as_str() == xsd::text::string => {}
            None => {
                out.push_str(r#","datatype":"#);
                write_str(out, lit.datatype().as_str());
            }
        }
    }
    out.push('}');
}

fn csv_escape(s: &str) -> String {
    // A bare carriage return would also break the row structure for RFC 4180
    // consumers, so it forces quoting exactly like an embedded newline.
    if s.contains(',') || s.contains('"') || s.contains('\n') || s.contains('\r') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbold_rdf_model::{Iri, Literal, TermKind};
    use std::collections::HashSet;

    fn results() -> SelectResults {
        SelectResults {
            variables: vec!["s".into(), "name".into()],
            rows: vec![
                vec![
                    Some(Term::Iri(Iri::new("http://e.org/alice").unwrap())),
                    Some(Term::Literal(Literal::lang_string("Alice \"A\"", "en"))),
                ],
                vec![Some(Term::Iri(Iri::new("http://e.org/bob").unwrap())), None],
            ],
        }
    }

    #[test]
    fn accessors() {
        let r = results();
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
        assert_eq!(r.column("name"), Some(1));
        assert_eq!(r.column("missing"), None);
        assert_eq!(r.value(0, "s").unwrap().label(), "alice");
        assert!(r.value(1, "name").is_none());
        let bindings: Vec<_> = r.iter_bindings().collect();
        assert_eq!(bindings[0].len(), 2);
        assert_eq!(bindings[1].len(), 1);
    }

    #[test]
    fn sparql_json_shape() {
        let json = results().to_sparql_json();
        assert!(json.starts_with("{\"head\":{\"vars\":[\"s\",\"name\"]}"));
        assert!(json.contains("\"type\":\"uri\""));
        assert!(json.contains("\"xml:lang\":\"en\""));
        assert!(json.contains("\\\"A\\\""), "quotes must be escaped");
        // Unbound variables are simply omitted from their binding object.
        assert!(json.contains("{\"s\":{\"type\":\"uri\",\"value\":\"http://e.org/bob\"}}"));
    }

    #[test]
    fn csv_output_escapes_commas_and_quotes() {
        let r = SelectResults {
            variables: vec!["v".into()],
            rows: vec![
                vec![Some(Term::Literal(Literal::string("a,b")))],
                vec![Some(Term::Literal(Literal::string("say \"hi\"")))],
                vec![None],
            ],
        };
        let csv = r.to_csv();
        let lines: Vec<_> = csv.lines().collect();
        assert_eq!(lines[0], "v");
        assert_eq!(lines[1], "\"a,b\"");
        assert_eq!(lines[2], "\"say \"\"hi\"\"\"");
        assert_eq!(lines[3], "");
    }

    #[test]
    fn query_results_wrappers() {
        let select = QueryResults::Select(results());
        assert!(select.as_ask().is_none());
        assert!(select.into_select().is_some());
        let ask = QueryResults::Ask(true);
        assert_eq!(ask.as_ask(), Some(true));
        assert!(ask.into_select().is_none());
    }

    #[test]
    fn tsv_output_uses_sparql_term_syntax() {
        let r = SelectResults {
            variables: vec!["s".into(), "v".into()],
            rows: vec![
                vec![
                    Some(Term::Iri(Iri::new("http://e.org/a").unwrap())),
                    Some(Term::Literal(Literal::lang_string("héllo", "en"))),
                ],
                vec![
                    Some(Term::Blank(hbold_rdf_model::BlankNode::numbered(7))),
                    Some(Term::Literal(Literal::integer(5))),
                ],
                vec![
                    None,
                    Some(Term::Literal(Literal::string("tab\there\nand line"))),
                ],
            ],
        };
        let tsv = r.to_tsv();
        let lines: Vec<_> = tsv.lines().collect();
        assert_eq!(lines[0], "?s\t?v");
        assert_eq!(lines[1], "<http://e.org/a>\t\"héllo\"@en");
        assert_eq!(
            lines[2],
            "_:b7\t\"5\"^^<http://www.w3.org/2001/XMLSchema#integer>"
        );
        // Embedded tab and newline are escaped, keeping one solution per line.
        assert_eq!(lines[3], "\t\"tab\\there\\nand line\"");
        assert_eq!(lines.len(), 4);
    }

    #[test]
    fn csv_quotes_carriage_returns() {
        let r = SelectResults {
            variables: vec!["v".into()],
            rows: vec![vec![Some(Term::Literal(Literal::string("a\rb")))]],
        };
        assert_eq!(r.to_csv(), "v\n\"a\rb\"\n");
    }

    #[test]
    fn ask_json_round_trips() {
        for b in [true, false] {
            let json = QueryResults::Ask(b).to_sparql_json();
            assert_eq!(json, format!("{{\"head\":{{}},\"boolean\":{b}}}"));
            assert_eq!(
                QueryResults::from_sparql_json(&json).unwrap(),
                QueryResults::Ask(b)
            );
        }
    }

    #[test]
    fn select_json_round_trips_adversarial_literals() {
        // Control characters, embedded quotes/backslashes/newlines, non-BMP
        // code points, and every term kind — the wire format must preserve
        // all of it exactly.
        let nasty = [
            "plain",
            "say \"hi\"",
            "back\\slash",
            "line\nbreak\rand\ttab",
            "control\u{0001}\u{001f}chars",
            "unicode é ☃ 😀",
            "{\"json\":\"looking\"}",
            "",
        ];
        let mut rows: Vec<Vec<Option<Term>>> = nasty
            .iter()
            .map(|s| {
                vec![
                    Some(Term::Literal(Literal::string(*s))),
                    Some(Term::Literal(Literal::lang_string(*s, "en"))),
                    None,
                ]
            })
            .collect();
        rows.push(vec![
            Some(Term::Iri(Iri::new("http://e.org/x#frag").unwrap())),
            Some(Term::Blank(hbold_rdf_model::BlankNode::new("b1"))),
            Some(Term::Literal(Literal::double(1.5))),
        ]);
        let original = QueryResults::Select(SelectResults {
            variables: vec!["a".into(), "b".into(), "c".into()],
            rows,
        });
        let json = original.to_sparql_json();
        let parsed = QueryResults::from_sparql_json(&json).unwrap();
        assert_eq!(parsed, original);
    }

    #[test]
    fn malformed_results_documents_are_rejected() {
        for bad in [
            "",
            "not json",
            "{\"head\":{}}",
            "{\"head\":{\"vars\":[1]},\"results\":{\"bindings\":[]}}",
            "{\"head\":{\"vars\":[\"s\"]},\"results\":{}}",
            "{\"head\":{\"vars\":[\"s\"]},\"results\":{\"bindings\":[{\"other\":{\"type\":\"uri\",\"value\":\"http://e.org/\"}}]}}",
            "{\"head\":{\"vars\":[\"s\"]},\"results\":{\"bindings\":[{\"s\":{\"value\":\"x\"}}]}}",
            "{\"head\":{\"vars\":[\"s\"]},\"results\":{\"bindings\":[{\"s\":{\"type\":\"nope\",\"value\":\"x\"}}]}}",
            "{\"boolean\":\"yes\"}",
        ] {
            assert!(
                QueryResults::from_sparql_json(bad).is_err(),
                "accepted: {bad}"
            );
        }
    }

    fn nasty_table() -> SelectResults {
        let nasty = [
            "plain",
            "say \"hi\"",
            "back\\slash",
            "line\nbreak\rand\ttab",
            "comma,separated",
            "unicode é ☃ 😀",
            "",
        ];
        let mut rows: Vec<Vec<Option<Term>>> = nasty
            .iter()
            .map(|s| {
                vec![
                    Some(Term::Literal(Literal::string(*s))),
                    Some(Term::Literal(Literal::lang_string(*s, "en-gb"))),
                    None,
                ]
            })
            .collect();
        rows.push(vec![
            Some(Term::Iri(Iri::new("http://e.org/x#frag").unwrap())),
            Some(Term::Blank(hbold_rdf_model::BlankNode::new("b1"))),
            Some(Term::Literal(Literal::integer(i64::MIN))),
        ]);
        SelectResults {
            variables: vec!["a".into(), "b".into(), "c".into()],
            rows,
        }
    }

    #[test]
    fn tsv_round_trips_adversarial_table() {
        let original = nasty_table();
        let tsv = original.to_tsv();
        assert_eq!(SelectResults::from_tsv(&tsv).unwrap(), original);
        // Zero-variable tables (SELECT * over an empty pattern) round-trip
        // too, including the empty-row / zero-cells distinction.
        let empty = SelectResults {
            variables: vec![],
            rows: vec![vec![], vec![]],
        };
        assert_eq!(SelectResults::from_tsv(&empty.to_tsv()).unwrap(), empty);
        // An unbound single cell is distinguishable from the empty string.
        let unbound = SelectResults {
            variables: vec!["v".into()],
            rows: vec![vec![None], vec![Some(Term::Literal(Literal::string("")))]],
        };
        assert_eq!(SelectResults::from_tsv(&unbound.to_tsv()).unwrap(), unbound);
    }

    #[test]
    fn malformed_tsv_is_rejected() {
        for bad in [
            "",                                         // no trailing newline / no header
            "v\n",                                      // header column without '?'
            "?v\n<http://e.org/a>\t<http://e.org/b>\n", // cell count mismatch
            "?v\n\"bad\\qescape\"\n",                   // unknown escape
            "?v\n\"unterminated\n",                     // unterminated literal
            "?v\n\"x\"@bad tag\n",                      // invalid language tag
            "?v\n\"x\"^^plain\n",                       // datatype not an <IRI>
            "?v\nnot-a-term\n",
            "?v\n_:label with space\n",
        ] {
            assert!(
                SelectResults::from_tsv(bad).is_err(),
                "accepted TSV: {bad:?}"
            );
        }
    }

    #[test]
    fn csv_parse_round_trips_string_values() {
        let original = nasty_table();
        let table = CsvTable::parse(&original.to_csv()).unwrap();
        assert_eq!(table.header, original.variables);
        assert_eq!(table.rows.len(), original.rows.len());
        for (parsed, row) in table.rows.iter().zip(&original.rows) {
            for (cell, term) in parsed.iter().zip(row) {
                let expected = term
                    .as_ref()
                    .map(|t| crate::expr::term_string_value(t))
                    .unwrap_or_default();
                assert_eq!(cell, &expected);
            }
        }
    }

    #[test]
    fn malformed_csv_is_rejected() {
        for bad in [
            "v\n\"unterminated",
            "v\nfield\"with quote\n",
            "v\n\"closed\"trailing\n",
            "v\nbare\rreturn\n",
            "a,b\nonly-one\n",
        ] {
            assert!(CsvTable::parse(bad).is_err(), "accepted CSV: {bad:?}");
        }
    }

    #[test]
    fn json_decoder_rejects_what_the_encoder_cannot_emit() {
        for bad in [
            // Legacy "typed-literal" spelling.
            "{\"head\":{\"vars\":[\"s\"]},\"results\":{\"bindings\":[{\"s\":{\"type\":\"typed-literal\",\"value\":\"5\",\"datatype\":\"http://www.w3.org/2001/XMLSchema#integer\"}}]}}",
            // Both xml:lang and datatype on one literal.
            "{\"head\":{\"vars\":[\"s\"]},\"results\":{\"bindings\":[{\"s\":{\"type\":\"literal\",\"value\":\"x\",\"xml:lang\":\"en\",\"datatype\":\"http://www.w3.org/2001/XMLSchema#string\"}}]}}",
            // rdf:langString without a language tag.
            "{\"head\":{\"vars\":[\"s\"]},\"results\":{\"bindings\":[{\"s\":{\"type\":\"literal\",\"value\":\"x\",\"datatype\":\"http://www.w3.org/1999/02/22-rdf-syntax-ns#langString\"}}]}}",
        ] {
            assert!(
                QueryResults::from_sparql_json(bad).is_err(),
                "accepted: {bad}"
            );
        }
    }

    #[test]
    fn json_encoder_bytes_are_pinned() {
        // Captured from the encoder as it stood before it moved onto
        // `hbold_telemetry::json` (one `String` per name, value and term),
        // then with a simple literal's implied `xsd:string` left out:
        // every term shape the fuzz pool knows (that the table is that pool
        // is `tests/oracle_agreement.rs`'s check), bound and unbound cells,
        // a variable name that needs escaping.
        let golden = include_str!("../tests/golden/term_pool.srj");
        let table = QueryResults::from_sparql_json(golden)
            .unwrap()
            .into_select()
            .unwrap();
        assert_eq!(table.variables, ["term", "prev \"quoted\""]);
        let terms: Vec<Term> = table
            .rows
            .iter()
            .map(|row| row[0].clone().unwrap())
            .collect();
        for (i, row) in table.rows.iter().enumerate() {
            assert_eq!(
                row[1],
                (i % 2 == 1).then(|| terms[i - 1].clone()),
                "row {i}"
            );
        }
        let kinds: HashSet<TermKind> = terms.iter().map(Term::kind).collect();
        assert_eq!(kinds.len(), 3, "{kinds:?}");
        assert_eq!(table.to_sparql_json(), golden);
    }

    #[test]
    fn json_decoder_does_not_depend_on_member_order() {
        // `results` before `head`, a term's `value` before its `type`,
        // members nobody asked for (`link`, `distinct`, a vendor extension
        // holding a deep value) wherever an endpoint cares to put them.
        let doc = r#"{
            "results": {"distinct": false, "bindings": [
                {"o": {"xml:lang": "en", "value": "chat", "type": "literal"},
                 "s": {"value": "http://e.org/a", "type": "uri"}},
                {"s": {"value": "b0", "type": "bnode", "vendor": [{"x": [1, 2.5e3, null]}]}},
                {"o": {"datatype": "http://www.w3.org/2001/XMLSchema#integer", "value": "5", "type": "literal"}}
            ], "ordered": true},
            "vendor:stats": {"rows": 3, "nested": [[[]]]},
            "head": {"link": ["http://e.org/meta"], "vars": ["s", "o"]}
        }"#;
        let expected = QueryResults::Select(SelectResults {
            variables: vec!["s".into(), "o".into()],
            rows: vec![
                vec![
                    Some(Term::Iri(Iri::new("http://e.org/a").unwrap())),
                    Some(Term::Literal(Literal::lang_string("chat", "en"))),
                ],
                vec![Some(Term::Blank(BlankNode::new("b0"))), None],
                vec![None, Some(Term::Literal(Literal::integer(5)))],
            ],
        });
        assert_eq!(QueryResults::from_sparql_json(doc).unwrap(), expected);
        assert_eq!(
            QueryResults::from_sparql_json(r#"{"boolean": false, "head": {"link": []}}"#).unwrap(),
            QueryResults::Ask(false)
        );
        // An unprojected variable is still caught when `head` comes last.
        let late_head = r#"{"results":{"bindings":[{"x":{"type":"bnode","value":"b"}}]},"head":{"vars":["s"]}}"#;
        assert!(QueryResults::from_sparql_json(late_head)
            .unwrap_err()
            .0
            .contains("unprojected variable ?x"));
    }

    #[test]
    fn of_a_repeated_json_member_the_first_wins() {
        // The rule `JsonValue::get` has always answered by, at every level:
        // a later member of the same name is read past, whatever it holds.
        let doc = r#"{
            "head": {"vars": ["s"], "vars": ["other"]},
            "head": {"vars": ["late"]},
            "results": {"bindings": [
                {"s": {"type": "uri", "type": "bnode", "value": "http://e.org/first", "value": 7},
                 "s": {"type": "nonsense"}}
            ], "bindings": "ignored"},
            "results": 0
        }"#;
        assert_eq!(
            QueryResults::from_sparql_json(doc).unwrap(),
            QueryResults::Select(SelectResults {
                variables: vec!["s".into()],
                rows: vec![vec![Some(Term::Iri(
                    Iri::new("http://e.org/first").unwrap()
                ))]],
            })
        );
        // `SELECT ?s ?s` projects one name twice, so the encoder repeats the
        // member; both cells read the first.
        let twice = SelectResults {
            variables: vec!["s".into(), "s".into()],
            rows: vec![vec![Some(Term::Literal(Literal::integer(1))); 2]],
        };
        assert_eq!(
            QueryResults::from_sparql_json(&twice.to_sparql_json()).unwrap(),
            QueryResults::Select(twice)
        );
    }

    #[test]
    fn binding_keys_resolve_to_their_columns_in_any_order() {
        let lit = |v: &str| Some(Term::Literal(Literal::string(v)));
        let uri = |v: &str| Some(Term::Iri(Iri::new(v).unwrap()));
        // `?s` projected twice, around `?o`: keys come in column order, in
        // other orders, with `?s` after another variable, and not at all.
        let doc = r#"{"head":{"vars":["s","o","s","x"]},"results":{"bindings":[
            {"s":{"type":"literal","value":"s0"},"o":{"type":"literal","value":"o0"},
             "s":{"type":"literal","value":"late"},"x":{"type":"literal","value":"x0"}},
            {"x":{"type":"literal","value":"x1"},"o":{"type":"literal","value":"o1"},
             "s":{"type":"literal","value":"s1"}},
            {"o":{"type":"literal","value":"o2"},"s":{"type":"literal","value":"s2"}},
            {"x":{"type":"literal","value":"x3"},"s":{"type":"literal","value":"s3"},
             "s":{"type":"literal","value":"late"}},
            {},
            {"s":{"type":"uri","value":"http://e.org/first","value":"http://e.org/second",
                  "type":"literal","vendor":{"value":1}},
             "o":{"type":"literal","value":"en","xml:lang":"en","xml:lang":"fr"}}
        ]}}"#;
        let row = |s: &str, o: &str, x: &str| {
            let cell = |v: &str| (!v.is_empty()).then(|| lit(v)).flatten();
            vec![cell(s), cell(o), cell(s), cell(x)]
        };
        let tagged = Some(Term::Literal(Literal::lang_string("en", "en")));
        let expected = QueryResults::Select(SelectResults {
            variables: vec!["s".into(), "o".into(), "s".into(), "x".into()],
            rows: vec![
                row("s0", "o0", "x0"),
                row("s1", "o1", "x1"),
                row("s2", "o2", ""),
                row("s3", "", "x3"),
                row("", "", ""),
                vec![
                    uri("http://e.org/first"),
                    tagged,
                    uri("http://e.org/first"),
                    None,
                ],
            ],
        });
        assert_eq!(QueryResults::from_sparql_json(doc).unwrap(), expected);
        // A key no column has is the same error wherever it comes.
        for bindings in [
            r#"{"zz":{"type":"bnode","value":"b"}}"#,
            r#"{"s":{"type":"bnode","value":"b"},"zz":{"type":"bnode","value":"b"}}"#,
            r#"{"x":{"type":"bnode","value":"b"},"zz":{"type":"bnode","value":"b"}}"#,
        ] {
            let doc = format!(
                r#"{{"head":{{"vars":["s","o","s","x"]}},"results":{{"bindings":[{bindings}]}}}}"#
            );
            let err = QueryResults::from_sparql_json(&doc).unwrap_err();
            assert_eq!(err.0, "binding mentions unprojected variable ?zz", "{doc}");
        }
    }

    /// A one-column document whose rows hold `cells`, term objects as text.
    fn one_column(cells: &[&str]) -> String {
        let rows: Vec<String> = cells.iter().map(|c| format!(r#"{{"v":{c}}}"#)).collect();
        format!(
            r#"{{"head":{{"vars":["v"]}},"results":{{"bindings":[{}]}}}}"#,
            rows.join(",")
        )
    }

    fn column_of(doc: &str) -> Vec<Term> {
        let table = QueryResults::from_sparql_json(doc).unwrap().into_select();
        let rows = table.unwrap().rows;
        rows.into_iter().map(|mut r| r.remove(0).unwrap()).collect()
    }

    #[test]
    fn a_repeated_cell_decodes_as_it_would_alone() {
        let xsd_string = r#""datatype":"http://www.w3.org/2001/XMLSchema#string""#;
        let cells = [
            r#"{"type":"literal","value":"chat","xml:lang":"en"}"#.to_string(),
            r#"{"type":"literal","value":"chat","xml:lang":"EN"}"#.into(),
            r#"{"type":"literal","value":"chat","xml:lang":"en"}"#.into(),
            r#"{"type":"literal","value":"chat"}"#.into(),
            format!(r#"{{"type":"literal","value":"chat",{xsd_string}}}"#),
            r#"{"type":"bnode","value":"a b."}"#.into(),
            r#"{"type":"bnode","value":"a_b_"}"#.into(),
            r#"{"type":"bnode","value":"a b."}"#.into(),
            r#"{"type":"uri","value":"http://e.org/a"}"#.into(),
            r#"{"type":"literal","value":"http://e.org/a"}"#.into(),
            r#"{"type":"bnode","value":"http://e.org/a"}"#.into(),
            r#"{"value":"http://e.org/a","type":"uri"}"#.into(),
            // The same text escaped: another spelling of the same term.
            r#"{"type":"uri","value":"http:\/\/e.org\/a"}"#.into(),
            r#"{"type":"literal","value":"chat","xml:lang":"en"}"#.into(),
        ];
        let cells: Vec<&str> = cells.iter().map(String::as_str).collect();
        let together = column_of(&one_column(&cells));
        let alone: Vec<Term> = cells
            .iter()
            .flat_map(|c| column_of(&one_column(&[c])))
            .collect();
        assert_eq!(together, alone);
        assert_eq!(together[8], Term::Iri(Iri::new("http://e.org/a").unwrap()));
        assert_eq!(
            together[9],
            Term::Literal(Literal::string("http://e.org/a"))
        );
        assert_eq!(together[10], Term::Blank(BlankNode::new("http___e.org_a")));
    }

    #[test]
    fn a_cell_that_is_an_error_stays_one_after_its_text_decoded() {
        let lang_string = "http://www.w3.org/1999/02/22-rdf-syntax-ns#langString";
        let valid = r#"{"type":"literal","value":"x","xml:lang":"en"}"#;
        for bad in [
            r#"{"type":"literal","value":"x","xml:lang":"en","datatype":"http://www.w3.org/2001/XMLSchema#string"}"#.to_string(),
            format!(r#"{{"type":"literal","value":"x","datatype":"{lang_string}"}}"#),
            r#"{"type":"uri","value":"x"}"#.into(),
        ] {
            for cells in [[valid, bad.as_str()], [bad.as_str(), valid]] {
                let doc = one_column(&cells);
                assert!(QueryResults::from_sparql_json(&doc).is_err(), "{doc}");
            }
        }
    }

    #[test]
    fn a_column_shares_the_terms_of_its_last_eight_distinct_cells() {
        let iri = |i: usize| format!(r#"{{"type":"uri","value":"http://e.org/t{i}"}}"#);
        let buffer = |t: &Term| t.label().as_ptr();
        // t0 again after seven others is shared; after eight it is built anew.
        for (others, shared) in [(7, true), (8, false)] {
            let cells: Vec<String> = (0..=others).chain([0]).map(iri).collect();
            let cells: Vec<&str> = cells.iter().map(String::as_str).collect();
            let column = column_of(&one_column(&cells));
            assert_eq!(column[0], column[others + 1]);
            assert_eq!(
                buffer(&column[0]) == buffer(&column[others + 1]),
                shared,
                "t0 after {others} others"
            );
        }
        // A subject on consecutive rows, four predicates in turn: one buffer
        // each, in every row.
        let rows: Vec<Vec<Option<Term>>> = (0..12)
            .map(|i| {
                let s = Iri::new("http://e.org/s").unwrap();
                let p = Iri::new(format!("http://e.org/p{}", i % 4)).unwrap();
                vec![Some(s.into()), Some(p.into())]
            })
            .collect();
        let json = SelectResults {
            variables: vec!["s".into(), "p".into()],
            rows,
        }
        .to_sparql_json();
        let decoded = QueryResults::from_sparql_json(&json).unwrap().into_select();
        let rows = decoded.unwrap().rows;
        for (i, row) in rows.iter().enumerate().skip(4) {
            let cell = |r: &[Option<Term>], c: usize| buffer(r[c].as_ref().unwrap());
            assert_eq!(cell(row, 0), cell(&rows[0], 0));
            assert_eq!(cell(row, 1), cell(&rows[i % 4], 1));
        }
    }

    #[test]
    fn json_typed_literal_has_datatype() {
        let r = SelectResults {
            variables: vec!["n".into()],
            rows: vec![vec![Some(Term::Literal(Literal::integer(5)))]],
        };
        let json = r.to_sparql_json();
        assert!(json.contains("\"datatype\":\"http://www.w3.org/2001/XMLSchema#integer\""));
    }
}
