#!/bin/sh
# Panic-freedom gate: non-test code must not call unwrap(),
# expect( or panic! without a written justification.
#
# Scope: crates/*/src/**/*.rs, binaries under src/bin/ included, up to
# the first `#[cfg(test)]` in a file (test modules panic by design).
# A site is exempt when the same line or the line directly above it
# carries a `// panics:` comment explaining why the panic is
# unreachable or wanted. Comment and doc-comment lines are skipped.
#
# Exit status: 0 when clean, 1 with an offender listing otherwise.

set -eu
cd "$(dirname "$0")/.."

status=0
for f in $(find crates/*/src -name '*.rs' | sort); do
    offenders=$(awk '
        /#\[cfg\(test\)\]/ { exit }         # test module: stop scanning
        { line = $0 }
        { prev_ok = exempt; exempt = 0 }
        line ~ /\/\/ *panics:/ { exempt = 1 }
        {
            stripped = line
            sub(/^[ \t]*/, "", stripped)
        }
        stripped ~ /^\/\// { next }          # comment or doc line
        line ~ /(\.unwrap\(\)|\.expect\(|panic!)/ {
            if (!prev_ok && !exempt) printf "%d:%s\n", NR, line
        }
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
    echo "panic gate: unjustified unwrap()/expect(/panic! in non-test code."
    echo "Either handle the error, or add a '// panics: <reason>' comment"
    echo "on the same line or the line above."
fi
exit "$status"
