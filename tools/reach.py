"""Reach check: every function of src/isocrpc runs in the CLI or in the
acceptance criteria.

    python tools/reach.py

In one interpreter, under sys.setprofile, it runs a CLI sweep (every
subcommand on all catalog families, every trace --kind spelling, and the
flags --a, --domain, --params, --tol, --seed, --dt and --config) and then
tests/test_acceptance.py. It lists each function, method and lambda defined
in src/isocrpc that neither ran, and exits 1 if there is one or if a
criterion fails. isocrpc is imported from src/; outputs go to a temporary
directory.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import sys
import tempfile
import types

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "isocrpc"
# code objects that run as part of the function or module around them
INLINE = {"<module>", "<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}


def defined() -> dict:
    """(file, first line, name) -> "file:line name" of every function in the package."""
    found = {}

    def walk(code: types.CodeType) -> None:
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                if const.co_name not in INLINE:
                    key = (const.co_filename, const.co_firstlineno, const.co_name)
                    found[key] = f"{pathlib.Path(key[0]).name}:{key[1]} {key[2]}"
                walk(const)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(compile(path.read_text(), str(path), "exec"))
    return found


def cli_sweep(tmp: pathlib.Path) -> None:
    from isocrpc import cli, families

    config = tmp / "config.json"
    config.write_text(json.dumps({"family": "paraboloid", "a": 0.5, "res": [8, 8]}))
    runs = [
        ["list"], ["list", "--json"],
        ["verify", "--family", "all", "--res", "20x20"],
        ["verify", "--family", "all", "--a", "-0.5,2", "--res", "20x20",
         "--tol", "crpc=1e-6", "--seed", "1"],
        ["generate", "--config", str(config)],
        ["generate", "--family", "helical_log", "--params", "c=0.5",
         "--domain", "0.5,1.5,0,1", "--res", "8x8"],
    ]
    for fid in families.family_ids():
        u0, u1, v0, v1 = families.make_spec(fid).domain
        seed = f"--seed={(u0 + u1) / 2!r},{(v0 + v1) / 2!r}"
        runs += [["generate", "--family", fid, "--res", "20x20"],
                 ["dual", "--family", fid, "--res", "20x20"]]
        runs += [["trace", "--family", fid, seed, "--kind", kind, "--steps", "50", "--dt", "0.01"]
                 for kind in cli.KINDS]
    for argv in runs:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.main([*argv, "--out", str(tmp / "out")])


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    functions = defined()
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            reached.add((code.co_filename, code.co_firstlineno, code.co_name))

    import pytest

    sys.setprofile(profile)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            cli_sweep(pathlib.Path(tmp))
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", str(ROOT),
                              str(ROOT / "tests" / "test_acceptance.py")])
    finally:
        sys.setprofile(None)
    missed = sorted(functions[key] for key in functions.keys() - reached)
    for name in missed:
        print(f"reach: not run by the CLI sweep or the criteria: {name}")
    print(f"reach: {len(functions) - len(missed)} of {len(functions)} functions run")
    return 1 if missed or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
