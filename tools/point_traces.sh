#!/usr/bin/env bash
# Point traces: one chart point runs on numpy scalars, and no trace through
# its powers of u may warn.
#
#     bash tools/point_traces.sh                  # isocrpc installed
#     PYTHONPATH=src bash tools/point_traces.sh   # from the repository root
#
# 200 steps of each --kind spelling through powers of u (u^0.5, u^-0.5 and
# u^-1.5 in both rotational charts, u, u^0.5 and u^-0.5 in the Euclidean
# one) run under -W error; at a = 1 (u^2, numpy's square fast path) the
# chart is the isotropic sphere, umbilic everywhere, so the seed is one
# error line. Then 300 steps where k2 rounds to 0 at every stage (the
# paraboloid at a = 1e150), and of each kind through a steep spiral
# (a = -1e-3). Exits non-zero at the first trace that warns or fails.
set -eu

stderr=$(mktemp)
trap 'rm -f "$stderr"' EXIT

for chart in "rotational_power_1 --a -0.5 --seed 1,0.5" "rotational_power_2 --a -2 --seed 1,0.5" \
             "euclidean_rotational --a 0.5 --seed 0.3,1"; do
  for kind in char+ char- characteristic+ characteristic- principal1 principal2; do
    # $chart is split into its flags on purpose
    python -W error -m isocrpc trace --family $chart --steps 200 --kind "$kind" > /dev/null
  done
done
# k2 rounds to 0 at every stage of these traces
for kind in char+ char-; do
  python -W error -m isocrpc trace --family paraboloid --a 1e150 --seed 0.9,0.5 --steps 300 --kind "$kind" > /dev/null
done
for kind in char+ char- principal1 principal2; do
  python -W error::RuntimeWarning -m isocrpc trace --family spiral_ruled --a -1e-3 --seed 1.0,0.5 --steps 300 --kind "$kind" > /dev/null
done
rc=0
python -W error -m isocrpc trace --family rotational_power_1 --a 1 --seed 1,0.5 --steps 200 > /dev/null 2> "$stderr" || rc=$?
cat "$stderr"
test "$rc" = 1
test "$(cat "$stderr")" = "error: characteristic directions undefined at an umbilic"
