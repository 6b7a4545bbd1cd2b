//! The canonical `CONSTANTS` text every check compares.
//!
//! One line per procedure with a non-empty `CONSTANTS(p)`, in declaration
//! order, exactly as `ipcc analyze --emit constants` prints it:
//! `CONSTANTS(p) = { a = 1, g0 = 5 }`. The same text is rendered from an
//! in-process [`ValSets`] and from a serve `constants` reply, so the three
//! sources compare byte for byte.

use ipcp::serve::json::Json;
use ipcp::ValSets;
use ipcp_ir::hash::Fnv128;
use ipcp_ir::program::SlotLayout;
use ipcp_ir::ModuleCfg;

/// A `CONSTANTS` table reduced to what the checks compare.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Constants {
    /// FNV-128 of the canonical text, as 32 hex digits.
    pub digest: String,
    /// `(proc, slot)` pairs in the table.
    pub pairs: usize,
}

impl Constants {
    /// Digests canonical text (whole `CONSTANTS(..)` lines).
    pub fn of_text(text: &str) -> Constants {
        let mut h = Fnv128::new();
        h.write(text.as_bytes());
        let pairs = text.lines().map(line_pairs).sum();
        Constants {
            digest: format!("{:032x}", h.finish()),
            pairs,
        }
    }

    /// The table in `ipcc analyze --emit constants` output: its
    /// `CONSTANTS(` lines, other lines ignored.
    pub fn of_cli_output(stdout: &str) -> Constants {
        let mut text = String::new();
        for line in stdout.lines().filter(|l| l.starts_with("CONSTANTS(")) {
            text.push_str(line);
            text.push('\n');
        }
        Constants::of_text(&text)
    }

    /// The table of an in-process solution.
    pub fn of_vals(vals: &ValSets, mcfg: &ModuleCfg) -> Constants {
        let layout = SlotLayout::new(&mcfg.module);
        Constants::of_text(&vals.display(mcfg, &layout).to_string())
    }

    /// The table of a whole-program serve `constants` reply.
    pub fn of_reply(reply: &Json) -> Result<Constants, String> {
        Ok(Constants::of_text(&reply_text(reply)?))
    }
}

/// Pairs on one canonical line: the items between its braces.
fn line_pairs(line: &str) -> usize {
    match (line.find('{'), line.rfind('}')) {
        (Some(a), Some(b)) if b > a + 1 && !line[a + 1..b].trim().is_empty() => {
            line[a + 1..b].split(", ").count()
        }
        _ => 0,
    }
}

/// Renders a serve `constants` reply (`procs: [{proc, constants: [{slot,
/// value}]}]`) as canonical text.
pub fn reply_text(reply: &Json) -> Result<String, String> {
    let procs = reply
        .as_object()
        .and_then(|o| o.get("procs"))
        .and_then(Json::as_array)
        .ok_or("constants reply has no procs array")?;
    let mut text = String::new();
    for p in procs {
        let o = p.as_object().ok_or("procs item is not an object")?;
        let name = o
            .get("proc")
            .and_then(Json::as_str)
            .ok_or("procs item has no proc name")?;
        let consts = o
            .get("constants")
            .and_then(Json::as_array)
            .ok_or("procs item has no constants array")?;
        if consts.is_empty() {
            continue;
        }
        let mut items = Vec::with_capacity(consts.len());
        for c in consts {
            let c = c.as_object().ok_or("constant is not an object")?;
            let (Some(slot), Some(value)) = (
                c.get("slot").and_then(Json::as_str),
                c.get("value").and_then(Json::as_i64),
            ) else {
                return Err("constant lacks slot or value".into());
            };
            items.push(format!("{slot} = {value}"));
        }
        text.push_str(&format!("CONSTANTS({name}) = {{ {} }}\n", items.join(", ")));
    }
    Ok(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cli_and_in_process_tables_agree() {
        let src = "proc main() { call f(6, 7); } proc f(a, b) { print a + b; }";
        let mcfg = ipcp_ir::lower_module(&ipcp_ir::parse_and_resolve(src).unwrap());
        let a = ipcp::Analysis::run(&mcfg, &ipcp::Config::default().with_jobs(1));
        let ours = Constants::of_vals(&a.vals, &mcfg);
        let cli = Constants::of_cli_output(
            "CONSTANTS(f) = { a = 6, b = 7 }\ntotal constants substituted: 2\n",
        );
        assert_eq!(ours, cli);
        assert_eq!(cli.pairs, 2);
    }

    #[test]
    fn reply_renders_canonical_lines() {
        let reply = ipcp::serve::json::parse(
            r#"{"procs": [{"proc": "main", "constants": []},
                {"proc": "f", "constants": [{"slot": "a", "value": -6}]}]}"#,
        )
        .unwrap();
        assert_eq!(reply_text(&reply).unwrap(), "CONSTANTS(f) = { a = -6 }\n");
    }
}
