//! Smoke runs of every workload, untraced and traced, checked against
//! `BENCHMARK.json`: the result line must name exactly the metrics (with
//! units) and the workloads the file lists, and every answer must be
//! correct.

use std::collections::BTreeMap;
use std::process::Command;

/// A parsed JSON value (just enough JSON for `BENCHMARK.json` and the
/// result line).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            other => panic!("not an array: {other:?}"),
        }
    }

    fn obj(&self) -> &BTreeMap<String, Json> {
        match self {
            Json::Obj(m) => m,
            other => panic!("not an object: {other:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing input in {text}");
        v
    }

    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s.get(self.i),
            Some(&c),
            "expected {:?} at {}",
            c as char,
            self.i
        );
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("object key")
                    };
                    self.eat(b':');
                    let v = self.value();
                    assert!(m.insert(k.clone(), v).is_none(), "duplicate key {k}");
                    self.ws();
                    self.i += 1;
                    match self.s[self.i - 1] {
                        b',' => continue,
                        b'}' => return Json::Obj(m),
                        c => panic!("unexpected {:?} in object", c as char),
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut a = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(a);
                }
                loop {
                    a.push(self.value());
                    self.ws();
                    self.i += 1;
                    match self.s[self.i - 1] {
                        b',' => continue,
                        b']' => return Json::Arr(a),
                        c => panic!("unexpected {:?} in array", c as char),
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let start = self.i;
                while self.s[self.i] != b'"' {
                    assert_ne!(self.s[self.i], b'\\', "escapes are not expected here");
                    self.i += 1;
                }
                self.i += 1;
                Json::Str(String::from_utf8(self.s[start..self.i - 1].to_vec()).unwrap())
            }
            b't' | b'f' | b'n' => {
                for (word, v) in [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ] {
                    if self.s[self.i..].starts_with(word.as_bytes()) {
                        self.i += word.len();
                        return v;
                    }
                }
                panic!("bad literal at {}", self.i)
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len()
                    && matches!(
                        self.s[self.i],
                        b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
                    )
                {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).unwrap();
                Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number {text}")))
            }
        }
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Parser::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` section.
fn listed(bench: &Json, section: &str) -> BTreeMap<String, String> {
    bench
        .get(section)
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

fn run(workload: &str, trace: u8) -> Json {
    let out_dir = env!("CARGO_TARGET_TMPDIR");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--smoke",
        ])
        .args(["--trace", &trace.to_string(), "--trace-out", out_dir])
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace {trace}: {}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    Parser::parse(stdout.lines().last().expect("a result line"))
}

fn check(result: &Json, expected: &BTreeMap<String, String>, what: &str) {
    assert_eq!(result.get("correct"), &Json::Bool(true), "{what}");
    assert_eq!(result.get("failed"), &Json::Num(0.0), "{what}");
    let Json::Num(attempted) = result.get("attempted") else {
        panic!("attempted")
    };
    assert!(*attempted >= 1.0, "{what}");
    let got: BTreeMap<String, String> = result
        .get("metrics")
        .obj()
        .iter()
        .map(|(k, v)| {
            let Json::Num(x) = v.get("value") else {
                panic!("{what} {k}: value")
            };
            assert!(x.is_finite(), "{what} {k}");
            assert_eq!(v.obj().len(), 2, "{what} {k}: exactly value and unit");
            (k.clone(), v.get("unit").str().to_string())
        })
        .collect();
    assert_eq!(&got, expected, "{what}: metrics differ from BENCHMARK.json");
}

#[test]
fn benchmark_json_lists_the_binary_workloads_and_metrics() {
    let bench = benchmark_json();
    let workloads: Vec<&str> = bench
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    assert_eq!(workloads, perfbench::WORKLOADS);
    let e2e: BTreeMap<String, String> = perfbench::report::END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(listed(&bench, "end_to_end"), e2e);
    let layers: BTreeMap<String, String> = perfbench::report::per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(listed(&bench, "per_layer"), layers);
    for section in ["end_to_end", "per_layer"] {
        for m in bench.get(section).arr() {
            assert!(perfbench::report::valid_name(m.get("name").str()));
        }
    }
}

#[test]
fn every_workload_emits_exactly_the_listed_metrics() {
    let bench = benchmark_json();
    let e2e = listed(&bench, "end_to_end");
    let layers = listed(&bench, "per_layer");
    for w in bench.get("workloads").arr() {
        let name = w.get("name").str();
        check(&run(name, 0), &e2e, &format!("{name} untraced"));
        check(&run(name, 1), &layers, &format!("{name} traced"));
    }
}

#[test]
fn unknown_workload_fails_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("run perfbench");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
