//! `ogsa-bench report trajectory`: `BENCH_trajectory.json` as one table per
//! workload × end-to-end metric across PRs. A `change` worse than the best
//! `change` of any earlier PR by more than the metric's `BENCHMARK.json`
//! bound is marked. It prints; it gates nothing.

/// Every `{…}` in `text`, as its scalar `"key": value` members with strings
/// unquoted — JSON as far as `BENCHMARK.json` and the trajectory use it
/// (no escaped quotes; `tests/trajectory_schema.rs` holds the schema).
fn objects(text: &str) -> Vec<Vec<(&str, &str)>> {
    let (mut open, mut done, mut key) = (Vec::new(), Vec::new(), None);
    let mut rest = text;
    while let Some(c) = rest.chars().next() {
        let token = match c {
            '"' => rest[1..].find('"').map(|end| &rest[..end + 2]),
            '-' | '0'..='9' | 't' | 'f' | 'n' => {
                rest.find([',', '}', ']', '\n']).map(|end| &rest[..end])
            }
            _ => None,
        };
        let Some(token) = token else {
            match c {
                '{' => open.push(Vec::new()),
                '}' => done.extend(open.pop()),
                _ => {}
            }
            rest = &rest[c.len_utf8()..];
            continue;
        };
        rest = &rest[token.len()..];
        let token = token.trim().trim_matches('"');
        if rest.trim_start().starts_with(':') {
            key = Some(token);
        } else if let (Some(k), Some(members)) = (key.take(), open.last_mut()) {
            members.push((k, token));
        }
    }
    done
}

fn get<'a>(object: &[(&str, &'a str)], key: &str) -> Option<&'a str> {
    object.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
}

fn number(object: &[(&str, &str)], key: &str) -> f64 {
    get(object, key)
        .and_then(|v| v.parse().ok())
        .unwrap_or(f64::NAN)
}

fn read(name: &str) -> String {
    let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

pub fn print() {
    let (spec, trajectory) = (read("BENCHMARK.json"), read("BENCH_trajectory.json"));
    let declared = objects(&spec);
    let rows = objects(&trajectory);
    println!("BENCH_trajectory.json: median parent → change per row, oldest PR first;");
    println!(
        "`!` marks a change worse than the best change of an earlier PR by more than the bound\n"
    );
    let workloads = declared.iter().filter(|o| get(o, "why").is_some());
    for workload in workloads.filter_map(|o| get(o, "name")) {
        for metric in declared.iter().filter(|o| get(o, "bound").is_some()) {
            let (name, bound) = (get(metric, "name").unwrap_or("?"), number(metric, "bound"));
            let higher = get(metric, "better") == Some("higher");
            let mut these: Vec<_> = rows
                .iter()
                .filter(|r| get(r, "workload") == Some(workload) && get(r, "metric") == Some(name))
                .collect();
            if these.is_empty() {
                continue;
            }
            these.sort_by(|a, b| number(a, "pr").total_cmp(&number(b, "pr")));
            println!(
                "{workload} · {name} ({}, {} is better, bound {:.0} %)",
                get(metric, "unit").unwrap_or("?"),
                if higher { "higher" } else { "lower" },
                bound * 100.0
            );
            // The best change of the PRs before the current one's.
            let (mut best, mut best_before, mut pr) = (None::<f64>, None::<f64>, f64::NAN);
            for row in these {
                if number(row, "pr") != pr {
                    (pr, best_before) = (number(row, "pr"), best);
                }
                let (parent, change) = (number(row, "parent"), number(row, "change"));
                let worse = best_before.is_some_and(|b| {
                    if higher {
                        change < b * (1.0 - bound)
                    } else {
                        change > b * (1.0 + bound)
                    }
                });
                println!(
                    "  {} PR {pr:>3}  {parent:>12.3} → {change:>12.3}  {:>+8.2} %  {:>2} pairs  {}",
                    if worse { '!' } else { ' ' },
                    (change - parent) / parent * 100.0,
                    get(row, "pairs").unwrap_or("-"),
                    get(row, "source").unwrap_or("?"),
                );
                let keep = |b: f64| if higher { b.max(change) } else { b.min(change) };
                best = Some(best.map_or(change, keep));
            }
            println!();
        }
    }
}
