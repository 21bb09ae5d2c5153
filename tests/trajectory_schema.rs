//! `BENCH_trajectory.json` is the committed performance record: one row per
//! PR × workload × end-to-end metric, parent median against change median.
//! `tools/pairs.sh … <pr>` appends to it; this test holds every row to the
//! schema and to what `BENCHMARK.json` declares, so a reader can trust a
//! row's names and units without opening the PR that wrote it.

use std::collections::HashSet;
use std::path::Path;

/// JSON as far as the two files use it.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

struct Parser<'a> {
    text: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_space(&mut self) {
        while self.text.get(self.pos).is_some_and(u8::is_ascii_whitespace) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> bool {
        self.skip_space();
        let found = self.text.get(self.pos) == Some(&byte);
        self.pos += usize::from(found);
        found
    }

    fn expect(&mut self, byte: u8) {
        assert!(
            self.eat(byte),
            "expected `{}` at {}",
            byte as char,
            self.pos
        );
    }

    fn string(&mut self) -> String {
        self.expect(b'"');
        let start = self.pos;
        while self.text[self.pos] != b'"' {
            // An escape is kept as written: no name compared here holds one.
            self.pos += if self.text[self.pos] == b'\\' { 2 } else { 1 };
        }
        self.pos += 1;
        String::from_utf8(self.text[start..self.pos - 1].to_vec()).expect("UTF-8")
    }

    /// `open item (, item)* close`, `item` parsed by `each`.
    fn sequence(&mut self, close: u8, mut each: impl FnMut(&mut Self)) {
        if self.eat(close) {
            return;
        }
        loop {
            each(self);
            if !self.eat(b',') {
                return self.expect(close);
            }
        }
    }

    fn value(&mut self) -> Json {
        self.skip_space();
        match self.text[self.pos] {
            b'{' => {
                self.pos += 1;
                let mut members = Vec::new();
                self.sequence(b'}', |p| {
                    let key = p.string();
                    p.expect(b':');
                    members.push((key, p.value()));
                });
                Json::Object(members)
            }
            b'[' => {
                self.pos += 1;
                let mut items = Vec::new();
                self.sequence(b']', |p| items.push(p.value()));
                Json::Array(items)
            }
            b'"' => Json::String(self.string()),
            _ => {
                let start = self.pos;
                while self.pos < self.text.len() && !b",]} \n\r\t".contains(&self.text[self.pos]) {
                    self.pos += 1;
                }
                match std::str::from_utf8(&self.text[start..self.pos]).expect("UTF-8") {
                    "null" => Json::Null,
                    "true" => Json::Bool(true),
                    "false" => Json::Bool(false),
                    number => Json::Number(number.parse().expect("a JSON number")),
                }
            }
        }
    }
}

fn read(name: &str) -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let mut parser = Parser {
        text: text.as_bytes(),
        pos: 0,
    };
    let value = parser.value();
    parser.skip_space();
    assert_eq!(parser.pos, text.len(), "{name}: trailing text");
    value
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn items(&self) -> &[Json] {
        match self {
            Json::Array(items) => items,
            other => panic!("expected an array, found {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::String(s) => s,
            other => panic!("expected a string, found {other:?}"),
        }
    }

    fn number(&self) -> f64 {
        match self {
            Json::Number(n) if n.is_finite() => *n,
            other => panic!("expected a number, found {other:?}"),
        }
    }

    fn count(&self) -> u64 {
        let n = self.number();
        assert!(n >= 0.0 && n.fract() == 0.0, "expected a count, found {n}");
        n as u64
    }
}

const REQUIRED: [&str; 7] = [
    "pr", "workload", "metric", "unit", "parent", "change", "source",
];
const OPTIONAL: [&str; 8] = [
    "q1",
    "q3",
    "change_q1",
    "change_q3",
    "pairs_won",
    "pairs",
    "seeds",
    "host_speed",
];

#[test]
fn every_row_follows_the_schema_and_names_what_the_benchmark_declares() {
    let benchmark = read("BENCHMARK.json");
    let names = |list: &str| -> Vec<(String, Option<String>)> {
        let declared = benchmark.get(list).expect(list).items().iter();
        declared
            .map(|d| {
                let unit = d.get("unit").map(|u| u.str().to_owned());
                (d.get("name").expect("name").str().to_owned(), unit)
            })
            .collect()
    };
    let (workloads, metrics) = (names("workloads"), names("end_to_end"));

    let trajectory = read("BENCH_trajectory.json");
    let mut keys = HashSet::new();
    assert!(!trajectory.items().is_empty());
    for row in trajectory.items() {
        let Json::Object(members) = row else {
            panic!("a row is an object: {row:?}");
        };
        let mut seen = HashSet::new();
        for (key, _) in members {
            assert!(
                REQUIRED.contains(&key.as_str()) || OPTIONAL.contains(&key.as_str()),
                "unknown field `{key}` in {row:?}"
            );
            assert!(seen.insert(key), "`{key}` twice in {row:?}");
        }
        let field = |key: &str| {
            row.get(key)
                .unwrap_or_else(|| panic!("no `{key}` in {row:?}"))
        };

        assert!(field("pr").count() >= 1, "{row:?}");
        let workload = field("workload").str();
        assert!(workloads.iter().any(|(w, _)| w == workload), "{row:?}");
        let metric = field("metric").str();
        let declared = metrics.iter().find(|(m, _)| m == metric);
        let (_, unit) = declared.unwrap_or_else(|| panic!("not an end-to-end metric: {row:?}"));
        assert_eq!(unit.as_deref(), Some(field("unit").str()), "{row:?}");
        assert!(field("parent").number() >= 0.0 && field("change").number() >= 0.0);
        assert!(!field("source").str().is_empty(), "{row:?}");

        for (low, high) in [("q1", "q3"), ("change_q1", "change_q3")] {
            match (row.get(low), row.get(high)) {
                (Some(low), Some(high)) => assert!(low.number() <= high.number(), "{row:?}"),
                (None, None) => {}
                _ => panic!("`{low}` and `{high}` come together: {row:?}"),
            }
        }
        if let Some(won) = row.get("pairs_won") {
            assert!(won.count() <= field("pairs").count(), "{row:?}");
        }
        if let Some(pairs) = row.get("pairs") {
            assert!(pairs.count() >= 1, "{row:?}");
        }
        if let Some(seeds) = row.get("seeds") {
            assert!(!seeds.str().is_empty(), "{row:?}");
        }
        if let Some(speed) = row.get("host_speed") {
            assert!(speed.number() > 0.0, "{row:?}");
        }

        let key = (
            field("pr").count(),
            workload.to_owned(),
            metric.to_owned(),
            field("source").str().to_owned(),
        );
        assert!(keys.insert(key.clone()), "two rows for {key:?}");
    }
}
