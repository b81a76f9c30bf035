#!/usr/bin/env bash
# Non-test lines of Rust under crates/*/src, per crate and in total.
#
# Every line counts (code, comments, blank lines) except the items marked
# `#[cfg(test)]`, wherever they sit in a file (a test module at the end, a
# test-only function between other items), together with the doc comment
# above such an item. An item ends where its braces balance (braces in
# strings, char literals and line comments do not count), or at its `;`
# when it has no body. Usage: `scripts/loc.sh [ROOT]`, where ROOT (default:
# this repository) holds the `crates/` directory to count.
set -euo pipefail
root="${1:-$(dirname "$0")/..}"

count_file_lines="$(cat <<'AWK'
function unclosed() {
    print "loc.sh: a #[cfg(test)] item never closes in " file > "/dev/stderr"
    exit 1
}
# Track the brace depth of `s`, carrying open strings across lines.
function scan(s,    i, c) {
    for (i = 1; i <= length(s); i++) {
        c = substr(s, i, 1)
        if (instr) {
            if (c == "\\") i++
            else if (c == "\"") instr = 0
        } else if (inraw) {
            if (c == "\"" && substr(s, i + 1, hashes) == closer) { inraw = 0; i += hashes }
        } else if (c == "/" && substr(s, i + 1, 1) == "/") {
            return
        } else if (c == "\"") {
            instr = 1
        } else if (c == "r" && match(substr(s, i), /^r#*"/)) {
            hashes = RLENGTH - 2
            closer = substr("################", 1, hashes)
            inraw = 1
            i += RLENGTH - 1
        } else if (c == "'" && match(substr(s, i), /^'([^'\\]|\\.)'/)) {
            i += RLENGTH - 1
        } else if (c == "{") {
            depth++
            opened = 1
        } else if (c == "}") {
            depth--
        }
    }
}
FNR == 1 { if (skip) unclosed(); n += held; skip = 0; held = 0; file = FILENAME }
skip {
    scan($0)
    if (instr || inraw) next
    if ((opened && depth <= 0) || (!opened && $0 ~ /;[[:space:]]*$/)) skip = 0
    next
}
/^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ {
    skip = 1; depth = 0; opened = 0; instr = 0; inraw = 0; held = 0
    next
}
/^[[:space:]]*\/\/\// { held++; next }
{ n += held + 1; held = 0 }
END { if (skip) unclosed(); print n + held + 0 }
AWK
)"

total=0
for src in "$root"/crates/*/src; do
    crate="$(basename "$(dirname "$src")")"
    lines="$(find "$src" -name '*.rs' -print0 | sort -z | xargs -0 awk "$count_file_lines")"
    printf '%-12s %7d\n' "$crate" "$lines"
    total=$((total + lines))
done
printf '%-12s %7d\n' total "$total"
