//! Property test of `EvSpec::instantiate`, the one-pass search-expression
//! builder, against a reference that substitutes in two rounds: every `%i`
//! becomes a private marker character (`%n` first, so `%10` is not read as
//! `%1`), then every marker becomes its term. Markers occur in no template
//! and no value, so the reference cannot rescan what it substituted —
//! which is exactly what the builder promises.

use proptest::prelude::*;
use wsq_common::Value;
use wsq_engine::plan::{EvBinding, EvSpec, VTableKind};

fn marker(i: usize) -> String {
    char::from_u32(0xE000 + i as u32).unwrap().to_string()
}

/// A value as a search term: `"` stripped, phrase-quoted around whitespace.
fn term(value: &Value) -> String {
    let clean = value.to_string().replace('"', "");
    if clean.contains(char::is_whitespace) {
        format!("\"{clean}\"")
    } else {
        clean
    }
}

fn reference(template: &str, values: &[Value]) -> String {
    let mut out = template.to_string();
    for i in (1..=values.len()).rev() {
        out = out
            .split(&format!("%{i}"))
            .collect::<Vec<_>>()
            .join(&marker(i));
    }
    for (i, value) in values.iter().enumerate() {
        out = out
            .split(&marker(i + 1))
            .collect::<Vec<_>>()
            .join(&term(value));
    }
    out
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        6 => "[a-zA-Z0-9 \"%]{0,8}".prop_map(Value::from),
        2 => (-1000i64..1000).prop_map(Value::Int),
        1 => Just(Value::Null),
    ]
}

/// Template text: literal runs, `%i` for indexes below, at and above the
/// number of values (with leading zeros and trailing digits), stray `%`.
fn arb_template() -> impl Strategy<Value = String> {
    let piece = prop_oneof![
        3 => "[a-z ]{0,3}".boxed(),
        5 => (0usize..15).prop_map(|i| format!("%{i}")).boxed(),
        1 => "%0[0-9]".boxed(),
        1 => Just("%".to_string()).boxed(),
    ];
    proptest::collection::vec(piece, 0..8).prop_map(|pieces| pieces.concat())
}

fn spec(template: Option<String>, n: usize, supports_near: bool) -> EvSpec {
    let bindings = vec![EvBinding::Const(Value::Null); n];
    let mut spec = EvSpec::new(
        VTableKind::WebCount,
        "AV",
        "WebCount",
        bindings,
        supports_near,
    );
    spec.template = template.map(Into::into);
    spec
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn explicit_template_matches_the_two_round_reference(
        template in arb_template(),
        values in proptest::collection::vec(arb_value(), 0..13),
    ) {
        let got = spec(Some(template.clone()), values.len(), true).instantiate(&values);
        prop_assert_eq!(got, reference(&template, &values), "template {:?}", template);
    }

    #[test]
    fn default_template_matches_the_two_round_reference(
        values in proptest::collection::vec(arb_value(), 0..13),
        supports_near in any::<bool>(),
    ) {
        let spec = spec(None, values.len(), supports_near);
        let got = spec.instantiate(&values);
        prop_assert_eq!(got, reference(&spec.effective_template(), &values));
    }
}
