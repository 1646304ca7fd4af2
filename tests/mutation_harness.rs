//! Mutation harness over every untrusted input format: seeded truncate,
//! bit-flip and splice mutations of trace lines, predicate text,
//! checkpoint JSON and `slicing serve` roster directives must come back
//! as a parse or a typed error — never a panic. The checkpoint decoder
//! must also reject every document the schema registry rejects, accept
//! any key order and unknown keys, and name a repeated key.
//! Deterministic: every mutation is a pure function of its seed.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, Stdio};

use computation_slicing::computation::test_fixtures::figure1;
use computation_slicing::computation::trace::{from_text, parse_line};
use computation_slicing::detect::{checkpoint, GcConfig, MonitorHub};
use computation_slicing::predicates::expr::parse_predicate;
use computation_slicing::recovery::load_hub_checkpoint;
use computation_slicing::{BuildError, Conjunctive, LocalPredicate, Value};
use slicing_observe::json::{self, JsonValue};
use slicing_observe::schema;

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// One seeded mutation of `input`: truncate it, flip one bit, or splice
/// a slice of `donor` over a slice of it.
fn mutate(rng: &mut XorShift, input: &[u8], donor: &[u8]) -> Vec<u8> {
    let mut out = input.to_vec();
    match rng.below(3) {
        0 => out.truncate(rng.below(input.len() + 1)),
        1 if !out.is_empty() => {
            let i = rng.below(out.len());
            out[i] ^= 1 << rng.below(8);
        }
        _ => {
            let a = rng.below(input.len() + 1);
            let b = a + rng.below(input.len() - a + 1);
            let c = rng.below(donor.len() + 1);
            let d = c + rng.below(donor.len() - c + 1);
            out.splice(a..b, donor[c..d].iter().copied());
        }
    }
    out
}

/// Runs `check` on `rounds` mutations of corpus entries. `check` says
/// whether the input was accepted, or why its outcome is not a typed
/// error; the run fails on any such outcome or panic, and when the
/// mutations were all accepted or all rejected (a vacuous run).
fn fuzz(
    seed: u64,
    rounds: usize,
    corpus: &[Vec<u8>],
    check: impl Fn(&[u8]) -> Result<bool, String>,
) {
    let mut rng = XorShift(seed);
    let (mut failures, mut accepted) = (Vec::new(), 0);
    for _ in 0..rounds {
        let input = &corpus[rng.below(corpus.len())];
        let donor = &corpus[rng.below(corpus.len())];
        let mutated = mutate(&mut rng, input, donor);
        let shown = String::from_utf8_lossy(&mutated);
        match catch_unwind(AssertUnwindSafe(|| check(&mutated))) {
            Ok(Ok(ok)) => accepted += usize::from(ok),
            Ok(Err(why)) => failures.push(format!("{why}: {shown:?}")),
            Err(_) => failures.push(format!("panic: {shown:?}")),
        }
    }
    assert!(
        failures.is_empty(),
        "{} failures:\n{}",
        failures.len(),
        failures.join("\n")
    );
    assert!(
        0 < accepted && accepted < rounds,
        "{accepted} of {rounds} accepted"
    );
}

fn figure1_text() -> String {
    computation_slicing::computation::trace::to_text(&figure1())
}

fn lines(text: &str) -> Vec<Vec<u8>> {
    text.lines().map(|l| l.as_bytes().to_vec()).collect()
}

#[test]
fn mutated_trace_lines_parse_or_fail_typed() {
    let mut corpus = lines(&figure1_text());
    corpus.extend(lines(
        "var 1 up true\nvar 0 leader p2\nevent 1 label=x up=false leader=p0\nmsg 0 3 1 12\n",
    ));
    // `parse_line` and `from_text` return `TraceError` by signature, so a
    // returned value is typed; only a panic fails.
    fuzz(1, 4000, &corpus, |bytes| {
        Ok(parse_line(&String::from_utf8_lossy(bytes), 1).is_ok())
    });
    let whole = vec![figure1_text().into_bytes()];
    fuzz(2, 1000, &whole, |bytes| {
        Ok(from_text(&String::from_utf8_lossy(bytes)).is_ok())
    });
}

#[test]
fn mutated_predicates_parse_or_fail_typed() {
    let comp = figure1();
    let corpus: Vec<Vec<u8>> = [
        "x1@0 > 1 && x3@2 <= 3",
        "x1@0 * x2@1 + x3@2 < 5 && x1@0 > 1",
        "!(x2@1 == 0) || x3@2 % 2 == 1",
        "(x1@0 - x3@2) / 2 >= -1 && x2@1 != 4",
    ]
    .iter()
    .map(|s| s.as_bytes().to_vec())
    .collect();
    fuzz(3, 4000, &corpus, |bytes| {
        let parsed = parse_predicate(&comp, &String::from_utf8_lossy(bytes));
        if let Ok(pred) = &parsed {
            let _ = pred.to_conjunctive();
        }
        Ok(parsed.is_ok())
    });
}

/// A busy two-tenant hub's checkpoint: GC on, messages, alarms.
fn checkpoint_text() -> String {
    let mut hub = MonitorHub::new(3).with_gc(GcConfig { lag: 2, every: 4 });
    let vars: Vec<_> = (0..3)
        .map(|p| hub.declare_var(p, "x", Value::Int(0)).unwrap())
        .collect();
    let b = hub.declare_var(1, "up", Value::Bool(true)).unwrap();
    let clause = |p: usize| LocalPredicate::int(vars[p], format!("x@{p} > 0"), |v| v > 0);
    let pred = Conjunctive::new(vec![clause(0), clause(2)]);
    hub.add_tenant("a", &pred, "x@0 > 0 && x@2 > 0").unwrap();
    hub.add_tenant("b", &Conjunctive::new(vec![clause(1)]), "x@1 > 0")
        .unwrap();
    let mut last = Vec::new();
    for i in 0..24i64 {
        let p = (i % 3) as usize;
        let e = hub
            .observe(
                p,
                &[(vars[p], Value::Int(i % 2)), (b, Value::Bool(i % 4 == 0))]
                    [..1 + usize::from(p == 1)],
            )
            .unwrap();
        if let Some(&prev) = last.last() {
            hub.message(prev, e).unwrap();
        }
        last.push(e);
        for r in hub.check_all() {
            hub.acknowledge(r.group);
        }
    }
    checkpoint::encode(&hub.export_state(), 5)
}

/// Whether `json::parse` + `schema::validate` accept `text`.
fn registry_accepts(text: &str) -> bool {
    json::parse(text).is_ok_and(|doc| schema::validate(&doc).is_ok())
}

/// Holds when `checkpoint::decode_str` rejects `text` with a typed error
/// whenever the schema registry rejects it.
fn decoder_covers_registry(text: &str) -> Result<(), String> {
    match checkpoint::decode_str(text) {
        Ok(_) if !registry_accepts(text) => {
            Err("decode_str accepted a document the registry rejects".into())
        }
        Ok(_) | Err(BuildError::InvalidState { .. }) => Ok(()),
        Err(e) => Err(format!("decode_str failed with {e:?}")),
    }
}

#[test]
fn mutated_checkpoints_load_or_fail_typed() {
    let text = checkpoint_text();
    let corpus = vec![text.clone().into_bytes()];
    let path = std::env::temp_dir().join(format!("slicing-mutation-{}.ckpt", std::process::id()));
    // The unmutated document loads and restores.
    std::fs::write(&path, &text).unwrap();
    let (state, _) = load_hub_checkpoint(&path).unwrap();
    MonitorHub::from_state(&state).unwrap();
    fuzz(4, 2000, &corpus, |bytes| {
        decoder_covers_registry(&String::from_utf8_lossy(bytes))?;
        std::fs::write(&path, bytes).map_err(|e| e.to_string())?;
        match load_hub_checkpoint(&path) {
            Ok((state, _)) => match MonitorHub::from_state(&state) {
                Ok(_) => Ok(true),
                Err(BuildError::InvalidState { .. }) => Ok(false),
                Err(e) => Err(format!("restore failed with {e:?}")),
            },
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => Ok(false),
            Err(e) => Err(format!("load failed with {:?}", e.kind())),
        }
    });
    std::fs::remove_file(&path).ok();
}

/// An object's fields, in document order.
type Fields = Vec<(String, JsonValue)>;

/// Applies `edit` to the `target`-th object of `value` in pre-order,
/// counting objects through `seen`.
fn edit_object(
    value: &mut JsonValue,
    target: usize,
    seen: &mut usize,
    edit: &mut dyn FnMut(&mut Fields),
) {
    match value {
        JsonValue::Object(fields) => {
            if *seen == target {
                edit(fields);
            }
            *seen += 1;
            for (_, v) in fields.iter_mut() {
                edit_object(v, target, seen, edit);
            }
        }
        JsonValue::Array(items) => {
            for v in items {
                edit_object(v, target, seen, edit);
            }
        }
        _ => {}
    }
}

/// The checkpoint with `edit` applied to its `target`-th object.
fn edited(doc: &JsonValue, target: usize, edit: &mut dyn FnMut(&mut Fields)) -> String {
    let mut doc = doc.clone();
    edit_object(&mut doc, target, &mut 0, edit);
    doc.to_json()
}

fn object_count(doc: &JsonValue) -> usize {
    let mut count = 0;
    edit_object(&mut doc.clone(), usize::MAX, &mut count, &mut |_| {});
    count
}

#[test]
fn checkpoint_fields_are_order_free_and_checked_by_name() {
    let text = checkpoint_text();
    let doc = json::parse(&text).unwrap();
    let expected = checkpoint::decode_str(&text).unwrap();
    let objects = object_count(&doc);
    assert!(objects > 20, "only {objects} objects");

    // Every object at once: keys in a seeded order, plus unknown keys
    // (one holding a nested value), still decodes to the same state.
    // Editing the last objects first keeps each earlier object's
    // pre-order index unchanged.
    let mut rng = XorShift(6);
    let mut shuffled = doc.clone();
    for target in (0..objects).rev() {
        let mut seen = 0;
        let order: Vec<u64> = (0..32).map(|_| rng.next()).collect();
        edit_object(&mut shuffled, target, &mut seen, &mut |fields| {
            let mut keyed: Vec<_> = fields.drain(..).zip(order.iter().cycle()).collect();
            keyed.sort_by_key(|(_, k)| **k);
            fields.extend(keyed.into_iter().map(|(f, _)| f));
            fields.insert(fields.len() / 2, ("zz_unknown".into(), JsonValue::Null));
            fields.push((
                "extra".into(),
                json::parse(r#"{"t":[1,"x",{"v":null}],"schema":"other"}"#).unwrap(),
            ));
        });
    }
    let text2 = shuffled.to_json();
    assert_ne!(text2, text);
    assert_eq!(checkpoint::decode_str(&text2).unwrap(), expected);

    // Per object and key: a repeated key is rejected by name, and
    // dropping the key or changing its value's type is rejected whenever
    // the registry rejects it.
    let swaps = [
        JsonValue::Null,
        JsonValue::Number(-1.0),
        JsonValue::Number(0.5),
        JsonValue::String("x".into()),
        JsonValue::Array(Vec::new()),
        JsonValue::Object(Vec::new()),
    ];
    let (mut cases, mut registry_rejected) = (0, 0);
    for target in 0..objects {
        let mut keys = Vec::new();
        edit_object(&mut doc.clone(), target, &mut 0, &mut |fields| {
            keys.extend(fields.iter().map(|(k, _)| k.clone()));
        });
        for (i, key) in keys.iter().enumerate() {
            let repeated = edited(&doc, target, &mut |f| f.push(f[i].clone()));
            match checkpoint::decode_str(&repeated) {
                Err(BuildError::InvalidState { detail })
                    if detail.contains(&format!("{key:?}")) => {}
                other => panic!("repeated {key:?} in object {target}: {other:?}"),
            }
            let mut texts = vec![edited(&doc, target, &mut |f| {
                f.remove(i);
            })];
            for swap in &swaps {
                texts.push(edited(&doc, target, &mut |f| f[i].1 = swap.clone()));
            }
            for t in texts {
                cases += 1;
                registry_rejected += usize::from(!registry_accepts(&t));
                if let Err(why) = decoder_covers_registry(&t) {
                    panic!("object {target}, key {key:?}: {why}: {t}");
                }
            }
        }
    }
    assert!(
        0 < registry_rejected && registry_rejected < cases,
        "{registry_rejected} of {cases} edits rejected by the registry"
    );
}

#[test]
fn mutated_roster_directives_never_panic_serve() {
    let trace = figure1_text();
    let (header, events) = trace.split_at(trace.find("event").unwrap());
    let corpus = lines("tenant a x1@0 > 1 && x3@2 <= 3\ntenant c x1@0 > 1\nuntenant a\n");
    let mut rng = XorShift(5);
    let mut failed = 0;
    for round in 0..60 {
        let mut stream = header.to_owned();
        for _ in 0..3 {
            let input = &corpus[rng.below(corpus.len())];
            let donor = &corpus[rng.below(corpus.len())];
            stream.push_str(&String::from_utf8_lossy(&mutate(&mut rng, input, donor)));
            stream.push('\n');
        }
        stream.push_str(events);
        let mut child = Command::new(env!("CARGO_BIN_EXE_slicing"))
            .args(["serve", "--tenant", "t=x2@1 > 1"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("binary spawns");
        use std::io::Write;
        let _ = child
            .stdin
            .as_mut()
            .expect("stdin piped")
            .write_all(stream.as_bytes());
        let out = child.wait_with_output().expect("binary runs");
        let err = String::from_utf8_lossy(&out.stderr);
        let typed = match out.status.code() {
            Some(0) => true,
            Some(1) => !err.trim().is_empty(),
            _ => false,
        };
        assert!(
            typed && !err.contains("panicked"),
            "round {round}: {:?} on stream {stream:?}: {err}",
            out.status
        );
        failed += usize::from(!out.status.success());
    }
    assert!(0 < failed && failed < 60, "{failed} of 60 streams failed");
}
