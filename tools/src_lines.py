#!/usr/bin/env python3
"""Count the lines of the pixmap package: ``wc -l`` per file, and a code/docstring/comment/blank split.

Usage: python3 tools/src_lines.py [--src CHECKOUT]

Reads every ``CHECKOUT/src/pixmap/*.py`` (CHECKOUT defaults to the checkout
holding this script) and prints one row per file, sorted by name, then a
``total`` row. ``lines`` is what ``wc -l`` prints: the number of newline
characters. The other four columns split those lines by Python's
``tokenize``, and each line lands in exactly one of them:

* ``docstring``: a line spanned by a string literal that is a statement on
  its own (a module, class or function docstring, or any bare string);
* ``code``: any other line that holds a token other than a comment, such as
  a line of code with a trailing comment, or a line inside a string literal
  that is part of an expression;
* ``comment``: a line whose only token is a ``#`` comment;
* ``blank``: a line with no token at all, outside any string.

So ``code + docstring + comment + blank`` equals ``lines`` for every file
that ends in a newline.
"""

from __future__ import annotations

import argparse
import io
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
# Tokens that end or indent a logical line, or end the file.
_LAYOUT = (tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER)


def split_lines(text: str) -> dict[str, int]:
    """Lines of ``text`` per kind, by the rule in the module docstring."""
    tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
    rows = {kind: set() for kind in KINDS[:3]}
    rows["comment"].update(t.start[0] for t in tokens if t.type == tokenize.COMMENT)
    sig = [t for t in tokens if t.type not in (tokenize.NL, tokenize.COMMENT)]
    for i, tok in enumerate(sig):
        if tok.type in _LAYOUT:
            continue
        alone = (i == 0 or sig[i - 1].type in _LAYOUT) and sig[i + 1].type in _LAYOUT
        kind = "docstring" if tok.type == tokenize.STRING and alone else "code"
        rows[kind].update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    for row in range(1, len(text.splitlines()) + 1):
        counts[next((k for k in KINDS[:3] if row in rows[k]), "blank")] += 1
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=Path(__file__).resolve().parent.parent,
                        help="checkout whose src/pixmap is counted (default: this one)")
    args = parser.parse_args(argv)
    paths = sorted((Path(args.src) / "src" / "pixmap").glob("*.py"))
    if not paths:
        parser.error(f"no src/pixmap/*.py under {args.src}")
    total = dict.fromkeys(("lines", *KINDS), 0)
    print(f"{'lines':>6} {'code':>6} {'docstring':>9} {'comment':>7} {'blank':>6}  file")
    for path in paths:
        text = path.read_text(encoding="utf-8")
        row = {"lines": text.count("\n"), **split_lines(text)}
        for key in total:
            total[key] += row[key]
        name = path.relative_to(Path(args.src)).as_posix()
        print(f"{row['lines']:>6} {row['code']:>6} {row['docstring']:>9} {row['comment']:>7} {row['blank']:>6}  {name}")
    print(f"{total['lines']:>6} {total['code']:>6} {total['docstring']:>9} {total['comment']:>7} {total['blank']:>6}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
