#!/usr/bin/env bash
# Environment-knob drift check; runs from any directory of the repository.
#
# Every "ASPEN_*" string literal in src/, bench/*.cpp, tests/ and examples/
# needs a row in src/benchutil/options.hpp (the test-only ASPEN_TEST_*
# family is exempt), and every name options.hpp documents must appear as
# such a literal somewhere. Prints each offending name and exits 1.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

literals=$(grep -rhoE '"ASPEN_[A-Z0-9_]+"' src bench/*.cpp tests examples |
           tr -d '"' | grep -v '^ASPEN_TEST_' | sort -u)
# Full names only: family prefixes such as ASPEN_PERTURB_ end in '_'.
rows=$(grep -oE 'ASPEN_[A-Z0-9_]+' src/benchutil/options.hpp |
       grep -v '_$' | sort -u)

undocumented=$(comm -23 <(echo "$literals") <(echo "$rows"))
unread=$(comm -13 <(echo "$literals") <(echo "$rows"))
if [ -n "$undocumented" ]; then
  echo "named in code but without an options.hpp row:"
  echo "$undocumented" | sed 's/^/  /'
fi
if [ -n "$unread" ]; then
  echo "options.hpp rows that no code names:"
  echo "$unread" | sed 's/^/  /'
fi
[ -z "$undocumented$unread" ] || exit 1
echo "env knobs: $(echo "$rows" | wc -l) options.hpp rows, each named in code"
