#!/usr/bin/env bash
# Non-blank source lines outside `#[cfg(test)]` items, per top-level
# directory, under crates/, shims/ and examples/ (test-only files under
# `tests/` and `benches/` directories are skipped). The last line is the
# total. Run from anywhere: `bash scripts/loc.sh`.
set -euo pipefail
cd "$(dirname "$0")/.."
find crates shims examples -name '*.rs' -not -path '*/tests/*' -not -path '*/benches/*' -not -path '*/target/*' | sort | xargs awk '
    FNR == 1 { skip = 0 }
    skip == 0 && /^[ \t]*#\[cfg\(test\)\]/ { skip = 1; depth = 0; opened = 0; sub(/^[ \t]*#\[cfg\(test\)\]/, "") }
    skip == 1 {
        o = gsub(/\{/, "{"); c = gsub(/\}/, "}")
        depth += o - c; if (o > 0) opened = 1
        if ((opened && depth <= 0) || (!opened && /;/)) skip = 0
        next
    }
    /[^ \t]/ { split(FILENAME, p, "/"); n[p[1] "/" p[2]]++; total++ }
    END { for (k in n) printf "%7d  %s\n", n[k], k | "sort -k2"; close("sort -k2"); printf "%7d  total\n", total }
'
