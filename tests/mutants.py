"""Sample small mutants of the package's modules and report the ones a pytest selection misses.

Run by hand from the repository root; pytest does not collect this file::

    python tests/mutants.py --module frames spectra --sample 10 --seed 1
    python tests/mutants.py --module verify --sample 5 -- tests/test_verify.py
    python tests/mutants.py --module spectra --function _push --function channel_output_spectra --sample 1000

A mutant is one edit found in a module's syntax tree: a comparison swapped
(``<`` and ``<=``, ``>`` and ``>=``, ``==`` and ``!=``), an arithmetic
operator swapped (``+`` and ``-``, ``*`` and ``//``, ...), ``and`` and ``or``
swapped, an integer constant raised by 1, a call of a named function with one
positional argument replaced by that argument (``dict(x)`` -> ``(x)``: a
dropped wrapper), or an expression statement replaced by ``pass`` (a dropped
call made for its effect, such as ``np.take(..., out=...)``).  Docstrings, and
expressions inside f-strings and annotations, are left alone.  Each mutant is
spliced into the module's text at the offsets of its tokens, so the rest of
the file keeps its text (tests that edit source text, such as
``test_dropped_power_fails_a_check``, still find theirs).  For each
module ``--sample`` mutants are drawn with ``--seed``; with one or more
``--function NAME``, only from the mutants inside a function (or method) of
one of those names, so a sample can be aimed at a change.  Every mutant runs the
selection (default ``tests``) with ``pytest -x`` in one scratch copy of the
tree; a run that passes is a survivor, and the survivors are listed at the end.
The survivors known to change no output are kept, each with its reason, in
``tests/mutants_survivors.md``.
A full tier-1 run takes about a minute, so a mutant that survives costs that much.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
import tokenize
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "isotwirl"
TIMEOUT_S = 900  # a run of the selection that takes longer counts as killed

SWAPS = {
    ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="), ast.GtE: (">=", ">"),
    ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="),
    ast.Add: ("+", "-"), ast.Sub: ("-", "+"), ast.Mult: ("*", "//"), ast.FloorDiv: ("//", "*"),
    ast.Div: ("/", "*"), ast.Mod: ("%", "//"), ast.Pow: ("**", "*"),
    ast.LShift: ("<<", ">>"), ast.RShift: (">>", "<<"), ast.BitAnd: ("&", "|"), ast.BitOr: ("|", "&"),
    ast.And: ("and", "or"), ast.Or: ("or", "and"),
}


@dataclass(frozen=True)
class Mutant:
    module: str
    line: int
    start: int  # character offsets of the replaced text in the module's source
    end: int
    new: str

    def apply(self, source: str) -> str:
        return source[:self.start] + self.new + source[self.end:]

    def describe(self, source: str) -> str:
        return f"{self.module}.py:{self.line}: {source[self.start:self.end]!r} -> {self.new!r}"


def mutants(module: str, source: str, functions: set[str] | None = None) -> list[Mutant]:
    """Every mutant of ``source``, in source order; only those inside a function named in ``functions`` if given."""
    lines = source.splitlines(keepends=True)
    starts = [0]
    for text in lines:
        starts.append(starts[-1] + len(text))

    def at(line: int, col: int) -> int:  # the AST counts columns in UTF-8 bytes
        return starts[line - 1] + len(lines[line - 1].encode()[:col].decode())

    def span(node: ast.AST) -> tuple[int, int]:
        return at(node.lineno, node.col_offset), at(node.end_lineno, node.end_col_offset)

    tokens = [
        (starts[tok.start[0] - 1] + tok.start[1], starts[tok.end[0] - 1] + tok.end[1], tok.string)
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type in (tokenize.OP, tokenize.NAME)
    ]

    def between(left: ast.AST, right: ast.AST, op: ast.AST) -> Mutant | None:
        old, new = SWAPS[type(op)]
        lo, hi = at(left.end_lineno, left.end_col_offset), at(right.lineno, right.col_offset)
        for start, end, text in tokens:
            if lo <= start and end <= hi and text == old:
                return Mutant(module, left.end_lineno, start, end, new)
        return None

    tree = ast.parse(source)
    # f-string parts carry no reliable offsets before Python 3.12, and annotations are never evaluated
    skipped = []
    for node in ast.walk(tree):
        if isinstance(node, ast.JoinedStr):
            skipped.append(node)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            skipped.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            skipped.append(node.returns)
    skip = {id(inner) for node in skipped if node for inner in ast.walk(node)}
    found: list[Mutant | None] = []
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.BinOp) and type(node.op) in SWAPS:
            found.append(between(node.left, node.right, node.op))
        elif isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            found += [between(a, b, op) for a, b, op in zip(sides, sides[1:], node.ops) if type(op) in SWAPS]
        elif isinstance(node, ast.BoolOp):
            found += [between(a, b, node.op) for a, b in zip(node.values, node.values[1:])]
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            found.append(Mutant(module, node.lineno, *span(node), str(node.value + 1)))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and len(node.args) == 1
              and not node.keywords and not isinstance(node.args[0], ast.Starred)):
            lo, hi = span(node.args[0])
            found.append(Mutant(module, node.lineno, *span(node), f"({source[lo:hi]})"))
        elif isinstance(node, ast.Expr) and not isinstance(node.value, ast.Constant):
            found.append(Mutant(module, node.lineno, *span(node), "pass"))
    kept = [m for m in found if m is not None]
    if functions is not None:
        spans = [(at(f.lineno, f.col_offset), at(f.end_lineno, f.end_col_offset)) for f in ast.walk(tree)
                 if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)) and f.name in functions]
        kept = [m for m in kept if any(lo <= m.start < hi for lo, hi in spans)]
    return sorted(kept, key=lambda m: m.start)


def function_names(source: str) -> set[str]:
    """The names of every function and method defined in ``source``."""
    return {f.name for f in ast.walk(ast.parse(source)) if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--module", nargs="+", default=["frames", "spectra"],
                        help="modules of src/isotwirl to mutate (default: frames spectra)")
    parser.add_argument("--sample", type=int, default=10, help="mutants drawn per module (default 10)")
    parser.add_argument("--seed", type=int, default=0, help="seed of the draw (default 0)")
    parser.add_argument("--function", action="append", metavar="NAME",
                        help="draw only mutants inside functions of this name; repeatable (default: every mutant)")
    parser.add_argument("selection", nargs="*", default=["tests"], help="pytest arguments (default: tests)")
    args = parser.parse_args(argv)

    functions = set(args.function) if args.function else None
    sources = {module: (PACKAGE / f"{module}.py").read_text() for module in args.module}
    if functions is not None:
        unknown = functions - set().union(*map(function_names, sources.values()))
        if unknown:
            parser.error(f"no function named {', '.join(sorted(unknown))} in {', '.join(args.module)}")
    rng = random.Random(args.seed)
    drawn = []
    for module, source in sources.items():
        every = mutants(module, source, functions)
        drawn += [(m, source) for m in sorted(rng.sample(every, min(args.sample, len(every))), key=lambda m: m.start)]
        print(f"{module}.py: {len(every)} mutants, {min(args.sample, len(every))} drawn", flush=True)

    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # a stale .pyc of the same size and second would hide a mutant
    survivors = []
    with tempfile.TemporaryDirectory(prefix="isotwirl-mutants-") as scratch:
        tree = Path(scratch) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench-*"))
        for mutant, source in drawn:
            target = tree / "src" / "isotwirl" / f"{mutant.module}.py"
            target.write_text(mutant.apply(source))
            began = time.perf_counter()
            try:
                run = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                                      *args.selection], cwd=tree, env=env, capture_output=True,
                                     timeout=TIMEOUT_S)
                verdict = "SURVIVED" if run.returncode == 0 else "killed"
            except subprocess.TimeoutExpired:
                verdict = "killed (timeout)"
            finally:
                target.write_text(source)
            print(f"{verdict:16} {time.perf_counter() - began:6.1f} s  {mutant.describe(source)}", flush=True)
            if verdict == "SURVIVED":
                survivors.append(mutant.describe(source))
    print(f"\n{len(survivors)} of {len(drawn)} survived")
    for line in survivors:
        print(f"  {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
