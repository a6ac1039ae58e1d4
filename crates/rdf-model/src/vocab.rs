//! Well-known RDF vocabularies used by H-BOLD.
//!
//! Each vocabulary is a module of zero-argument functions returning shared
//! [`Iri`] values (constructed once behind a `OnceLock`, then cheaply
//! cloned). Functions rather than constants because [`Iri`] owns an
//! `Arc<str>` and cannot be built in a `const` context; the IRI texts
//! themselves are constants, in each module's `text`, for code that only
//! needs to recognize a term — a comparison against them costs no reference
//! count.

use std::sync::OnceLock;

use crate::term::{Iri, IriParseError};

/// Declares a vocabulary module: a namespace plus a set of term accessors.
macro_rules! vocabulary {
    (
        $(#[$modmeta:meta])*
        $modname:ident, $ns:literal, {
            $( $(#[$meta:meta])* $fn_name:ident => $local:literal ),* $(,)?
        }
    ) => {
        $(#[$modmeta])*
        pub mod $modname {
            use super::*;

            /// The namespace IRI prefix of this vocabulary.
            pub const NAMESPACE: &str = $ns;

            /// Builds an IRI in this namespace from a local name.
            pub fn iri(local: &str) -> Iri {
                Iri::new_unchecked(format!("{}{}", NAMESPACE, local))
            }

            /// The text of each term of this vocabulary, one constant per
            /// accessor of the same name.
            #[allow(non_upper_case_globals)]
            pub mod text {
                $(
                    #[doc = concat!("`", $ns, $local, "`")]
                    pub const $fn_name: &str = concat!($ns, $local);
                )*
            }

            $(
                $(#[$meta])*
                pub fn $fn_name() -> Iri {
                    static CELL: OnceLock<Iri> = OnceLock::new();
                    CELL.get_or_init(|| Iri::new_unchecked(text::$fn_name)).clone()
                }
            )*

            /// The shared IRI of the term of this vocabulary whose text is
            /// `iri`, if there is one: decoders use it to hand every literal
            /// of a well-known datatype the same `Arc` instead of a copy.
            pub fn lookup(iri: &str) -> Option<Iri> {
                match iri {
                    $( text::$fn_name => Some($fn_name()), )*
                    _ => None,
                }
            }
        }
    };
}

vocabulary!(
    /// The RDF core vocabulary.
    rdf, "http://www.w3.org/1999/02/22-rdf-syntax-ns#", {
        /// `rdf:type` — links an instance to its class.
        type_ => "type",
        /// `rdf:Property`.
        property => "Property",
        /// `rdf:langString` — datatype of language-tagged literals.
        lang_string => "langString",
        /// `rdf:first` (RDF collections).
        first => "first",
        /// `rdf:rest` (RDF collections).
        rest => "rest",
        /// `rdf:nil` (RDF collections).
        nil => "nil",
    }
);

vocabulary!(
    /// The RDF Schema vocabulary.
    rdfs, "http://www.w3.org/2000/01/rdf-schema#", {
        /// `rdfs:Class`.
        class => "Class",
        /// `rdfs:label`.
        label => "label",
        /// `rdfs:comment`.
        comment => "comment",
        /// `rdfs:domain`.
        domain => "domain",
        /// `rdfs:range`.
        range => "range",
        /// `rdfs:subClassOf`.
        sub_class_of => "subClassOf",
        /// `rdfs:subPropertyOf`.
        sub_property_of => "subPropertyOf",
        /// `rdfs:seeAlso`.
        see_also => "seeAlso",
        /// `rdfs:Literal`.
        literal => "Literal",
    }
);

vocabulary!(
    /// A small slice of the OWL vocabulary.
    owl, "http://www.w3.org/2002/07/owl#", {
        /// `owl:Class`.
        class => "Class",
        /// `owl:ObjectProperty`.
        object_property => "ObjectProperty",
        /// `owl:DatatypeProperty`.
        datatype_property => "DatatypeProperty",
        /// `owl:Thing`.
        thing => "Thing",
        /// `owl:sameAs`.
        same_as => "sameAs",
        /// `owl:Ontology`.
        ontology => "Ontology",
    }
);

vocabulary!(
    /// XML Schema datatypes.
    xsd, "http://www.w3.org/2001/XMLSchema#", {
        /// `xsd:string`.
        string => "string",
        /// `xsd:boolean`.
        boolean => "boolean",
        /// `xsd:integer`.
        integer => "integer",
        /// `xsd:int`.
        int => "int",
        /// `xsd:long`.
        long => "long",
        /// `xsd:nonNegativeInteger`.
        non_negative_integer => "nonNegativeInteger",
        /// `xsd:decimal`.
        decimal => "decimal",
        /// `xsd:double`.
        double => "double",
        /// `xsd:float`.
        float => "float",
        /// `xsd:date`.
        date => "date",
        /// `xsd:dateTime`.
        date_time => "dateTime",
        /// `xsd:anyURI`.
        any_uri => "anyURI",
    }
);

vocabulary!(
    /// The Data Catalog vocabulary, used by the simulated open-data portals
    /// and by the crawler's Listing 1 query.
    dcat, "http://www.w3.org/ns/dcat#", {
        /// `dcat:Dataset`.
        dataset => "Dataset",
        /// `dcat:Catalog`.
        catalog => "Catalog",
        /// `dcat:Distribution`.
        distribution_class => "Distribution",
        /// `dcat:distribution` (property).
        distribution => "distribution",
        /// `dcat:accessURL`.
        access_url => "accessURL",
        /// `dcat:downloadURL`.
        download_url => "downloadURL",
        /// `dcat:keyword`.
        keyword => "keyword",
        /// `dcat:theme`.
        theme => "theme",
        /// `dcat:mediaType`.
        media_type => "mediaType",
    }
);

vocabulary!(
    /// Dublin Core terms.
    dcterms, "http://purl.org/dc/terms/", {
        /// `dc:title`.
        title => "title",
        /// `dc:description`.
        description => "description",
        /// `dc:publisher`.
        publisher => "publisher",
        /// `dc:issued`.
        issued => "issued",
        /// `dc:modified`.
        modified => "modified",
        /// `dc:creator`.
        creator => "creator",
        /// `dc:license`.
        license => "license",
        /// `dc:format`.
        format => "format",
    }
);

vocabulary!(
    /// Friend-of-a-Friend vocabulary (used by the Scholarly-like generator).
    foaf, "http://xmlns.com/foaf/0.1/", {
        /// `foaf:Person`.
        person => "Person",
        /// `foaf:Organization`.
        organization => "Organization",
        /// `foaf:Agent`.
        agent => "Agent",
        /// `foaf:Document`.
        document => "Document",
        /// `foaf:name`.
        name => "name",
        /// `foaf:mbox`.
        mbox => "mbox",
        /// `foaf:homepage`.
        homepage => "homepage",
        /// `foaf:member`.
        member => "member",
        /// `foaf:knows`.
        knows => "knows",
    }
);

vocabulary!(
    /// VoID: Vocabulary of Interlinked Datasets (dataset statistics).
    void, "http://rdfs.org/ns/void#", {
        /// `void:Dataset`.
        dataset => "Dataset",
        /// `void:triples`.
        triples => "triples",
        /// `void:entities`.
        entities => "entities",
        /// `void:classes`.
        classes => "classes",
        /// `void:properties`.
        properties => "properties",
        /// `void:sparqlEndpoint`.
        sparql_endpoint => "sparqlEndpoint",
    }
);

impl crate::term::Iri {
    /// Returns `true` if the IRI is in the `xsd:` namespace.
    pub fn is_xsd(&self) -> bool {
        self.as_str().starts_with(xsd::NAMESPACE)
    }
}

/// Returns `true` if `dt` is one of the XSD integer datatypes.
pub fn is_integer_datatype(dt: &Iri) -> bool {
    matches!(
        dt.as_str(),
        xsd::text::integer | xsd::text::int | xsd::text::long | xsd::text::non_negative_integer
    )
}

/// Returns `true` if `dt` is one of the XSD floating-point / decimal datatypes.
pub fn is_floating_datatype(dt: &Iri) -> bool {
    matches!(
        dt.as_str(),
        xsd::text::double | xsd::text::float | xsd::text::decimal
    )
}

/// The IRI of a literal's datatype given as text: the shared vocabulary IRI
/// when the text names an XSD or RDF term — every literal of that datatype
/// then holds one `Arc`, and decoding it allocates nothing — a validated new
/// one ([`Iri::parse`]) otherwise.
pub fn datatype_iri(text: &str) -> Result<Iri, IriParseError> {
    match xsd::lookup(text).or_else(|| rdf::lookup(text)) {
        Some(iri) => Ok(iri),
        None => Iri::parse(text),
    }
}

/// Returns `true` if `dt` is any XSD numeric datatype.
pub fn is_numeric_datatype(dt: &Iri) -> bool {
    is_integer_datatype(dt) || is_floating_datatype(dt)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn namespaces_are_wellformed() {
        for ns in [
            rdf::NAMESPACE,
            rdfs::NAMESPACE,
            owl::NAMESPACE,
            xsd::NAMESPACE,
            dcat::NAMESPACE,
            dcterms::NAMESPACE,
            foaf::NAMESPACE,
            void::NAMESPACE,
        ] {
            assert!(
                Iri::new(ns.to_string() + "x").is_ok(),
                "namespace {ns} must yield valid IRIs"
            );
        }
    }

    #[test]
    fn accessors_return_shared_iris() {
        let a = rdf::type_();
        let b = rdf::type_();
        assert_eq!(a, b);
        assert_eq!(
            a.as_str(),
            "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
        );
        assert_eq!(a.local_name(), "type");
    }

    #[test]
    fn texts_and_lookup_name_the_shared_iris() {
        assert_eq!(xsd::text::integer, xsd::integer().as_str());
        assert_eq!(rdf::text::type_, rdf::type_().as_str());
        let shared = xsd::lookup("http://www.w3.org/2001/XMLSchema#integer").unwrap();
        assert_eq!(shared.as_str().as_ptr(), xsd::integer().as_str().as_ptr());
        assert_eq!(xsd::lookup("http://www.w3.org/2001/XMLSchema#nope"), None);
        assert_eq!(xsd::lookup(rdf::text::type_), None);
        // Known datatypes come out shared, others validated and new.
        let lang = datatype_iri(rdf::text::lang_string).unwrap();
        assert_eq!(lang.as_str().as_ptr(), rdf::lang_string().as_str().as_ptr());
        assert_eq!(
            datatype_iri("http://e.org/dt").unwrap().as_str(),
            "http://e.org/dt"
        );
        assert!(datatype_iri("not an iri").is_err());
    }

    #[test]
    fn iri_builder_in_namespace() {
        let custom = foaf::iri("nickname");
        assert_eq!(custom.as_str(), "http://xmlns.com/foaf/0.1/nickname");
    }

    #[test]
    fn numeric_datatype_predicates() {
        assert!(is_numeric_datatype(&xsd::integer()));
        assert!(is_numeric_datatype(&xsd::double()));
        assert!(is_integer_datatype(&xsd::long()));
        assert!(is_floating_datatype(&xsd::decimal()));
        assert!(!is_numeric_datatype(&xsd::string()));
        assert!(!is_numeric_datatype(&rdf::lang_string()));
    }

    #[test]
    fn dcat_terms_match_listing1_query() {
        // The crawler's Listing 1 query relies on these exact IRIs.
        assert_eq!(
            dcat::dataset().as_str(),
            "http://www.w3.org/ns/dcat#Dataset"
        );
        assert_eq!(
            dcat::distribution().as_str(),
            "http://www.w3.org/ns/dcat#distribution"
        );
        assert_eq!(
            dcat::access_url().as_str(),
            "http://www.w3.org/ns/dcat#accessURL"
        );
        assert_eq!(dcterms::title().as_str(), "http://purl.org/dc/terms/title");
    }
}
