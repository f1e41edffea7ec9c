#!/bin/sh
# JSON gate: every JSON document is built as a `tit_core::json::Json`
# value and rendered by its one serializer, never spelled out by hand.
#
# Scope: crates/*/src/**/*.rs, binaries included, up to each file's
# first `#[cfg(test)]` (tests may spell out the JSON they expect).
# A site is a hand-written object-key template: an escaped key followed
# by a colon, as in "{\"key\":" inside a Rust string literal. Comment
# and doc-comment lines are skipped. The Chrome timeline writer
# (crates/telemetry/src/timeline.rs) streams its events by hand on
# purpose and is the one exempt file.
#
# Exit status: 0 when clean, 1 with an offender listing otherwise.

set -eu
cd "$(dirname "$0")/.."

exempt="crates/telemetry/src/timeline.rs"

status=0
for f in $(find crates/*/src -name '*.rs' | sort); do
    [ "$f" = "$exempt" ] && continue
    offenders=$(awk '
        /#\[cfg\(test\)\]/ { exit }         # test module: stop scanning
        {
            stripped = $0
            sub(/^[ \t]*/, "", stripped)
        }
        stripped ~ /^\/\// { next }          # comment or doc line
        /\\"[A-Za-z_][A-Za-z0-9_.]*\\":/ { printf "%d:%s\n", NR, $0 }
    ' "$f")
    if [ -n "$offenders" ]; then
        status=1
        printf '%s\n' "$offenders" | while IFS= read -r o; do
            printf '%s:%s\n' "$f" "$o"
        done
    fi
done

if [ "$status" -ne 0 ]; then
    echo ""
    echo "json gate: hand-written JSON key templates in library or binary code."
    echo "Build the document as a tit_core::json::Json value (json::obj or"
    echo "tit_core::json_obj!) and render it with its Display serializer instead."
fi
exit "$status"
