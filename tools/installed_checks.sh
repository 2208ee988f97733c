#!/usr/bin/env bash
# Installed-package checks: the console script and `python -m isocrpc` of
# the installed package run, warn nothing, and refuse bad input with one
# error line.
#
#     bash tools/installed_checks.sh    # isocrpc installed, from any directory
#
# Run it outside the checkout, so that `import isocrpc` finds the installed
# package, not src/. It needs the console script on PATH. Its scratch files
# go to a temporary directory. Exits non-zero at the first check that fails.
set -eu

here=$(cd "$(dirname "$0")" && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
cd "$tmp"

isocrpc list
isocrpc verify --family paraboloid --res 8x8
python -m isocrpc list
# the installed package runs on numpy alone: importing the CLI
# loads no scipy module
python -c "import sys, isocrpc.cli; sys.exit(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
python -W error::RuntimeWarning -m isocrpc generate --family helicoid --res 8x8 > /dev/null
python -W error::RuntimeWarning -m isocrpc dual --family paraboloid --res 8x8 > /dev/null
python -W error::RuntimeWarning -m isocrpc verify --family spiral_ruled --a -50 --res 50x50
python -W error -m isocrpc trace --family euclidean_rotational --seed 0.5,1.0 --steps 100 > /dev/null
# a chart point runs on numpy scalars: traces through powers of u,
# through k2 = 0 and through a steep spiral warn nothing, and the
# umbilic sphere is one error line
bash "$here/point_traces.sh"
# a step below the rounding of (u, v) stops the trace after the seed
python -m isocrpc trace --family helicoid --seed 1,0.5 --steps 2 --dt 1e-17 > /dev/null 2> step-stderr.txt
cat step-stderr.txt
test "$(grep -c "trace stopped" step-stderr.txt)" = 1
# a box whose width overflows is refused at parsing, before numpy
# could warn: exit 1, an error line, no traceback or warning
rc=0
python -W error -m isocrpc generate --family paraboloid --domain=-1e308,1e308,-1,1 --res 3x3 > /dev/null 2> domain-stderr.txt || rc=$?
cat domain-stderr.txt
test "$rc" = 1
grep -q "^error: --domain" domain-stderr.txt
if grep -q -e Traceback -e Warning domain-stderr.txt; then exit 1; fi
# a refused value: exit 1, one line naming its flag, no traceback,
# warning or ERROR row (the Euclidean box at a = -1e-3 has no
# admissible node)
refused() {
  flag=$1; shift
  rc=0
  python -W error -m isocrpc "$@" > refused-stdout.txt 2> refused-stderr.txt || rc=$?
  cat refused-stderr.txt
  test "$rc" = 1
  grep -q "^error: --$flag " refused-stderr.txt
  if grep -q -e Traceback -e Warning refused-stderr.txt; then exit 1; fi
  if grep -q ",ERROR" refused-stdout.txt; then exit 1; fi
}
refused a verify --family euclidean_rotational --a -1e-3 --res 8x8
# a height integral that misses its tolerance (QAGS reports the
# miss in its ier) is one error line, not a traceback
rc=0
python -W error -m isocrpc generate --family euclidean_rotational --a 1e-14 --res 5x5 > /dev/null 2> height-stderr.txt || rc=$?
cat height-stderr.txt
test "$rc" = 1
test "$(wc -l < height-stderr.txt)" = 1
grep -q "^error: euclidean_rotational: " height-stderr.txt
if grep -q -e Traceback -e Warning height-stderr.txt; then exit 1; fi
# an ERROR row (every node of the box masked: sin^a u underflows) is
# exit 1 and one stderr line naming its error, no traceback or warning
rc=0
python -W error -m isocrpc verify --family helical_general --a 1e8 > error-stdout.txt 2> error-stderr.txt || rc=$?
cat error-stdout.txt error-stderr.txt
test "$rc" = 1
test "$(grep -c ",ERROR$" error-stdout.txt)" = 1
test "$(wc -l < error-stderr.txt)" = 1
grep -q "^verify: helical_general a=100000000: helical_general: every grid node is masked$" error-stderr.txt
if grep -q -e Traceback -e Warning error-stderr.txt; then exit 1; fi
refused res generate --family paraboloid --res 1x5
refused steps trace --family helicoid --seed 1,0.5 --steps 0
# exits 1 for its FAIL rows as for an uncaught exception, so stderr
# is what shows a crash
isocrpc verify --family all --a -1e-5 --res 8x8 > /dev/null 2> verify-stderr.txt || true
if grep -q Traceback verify-stderr.txt; then cat verify-stderr.txt; exit 1; fi
