"""Count the code, docstring, comment and blank lines of Python files.

Run from the repository root, for example:

    python3 tools/src_lines.py src/fbqp/*.py

Each output line is ``code docstring comment blank total path``, and a last
line sums them over the files. The counts come from ``tokenize``, and each
line lands in one class:

- code: a token other than a comment or a bare string statement touches it,
  so a closing bracket counts, and so does each line of a multi-line string
  that is an argument or a value;
- docstring: it lies within a string that is a statement of its own (a
  module, class or function docstring), blank lines inside it included;
- comment: it holds a comment and nothing else;
- blank: it holds only whitespace.

The four counts add up to the file's line count, as ``wc -l`` gives it for
a file that ends in a newline.
"""

from __future__ import annotations

import argparse
import io
import tokenize

KINDS = ("code", "docstring", "comment", "blank")
_LAYOUT = {tokenize.NEWLINE, tokenize.NL, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def count_lines(source: str) -> dict[str, int]:
    """The number of lines of ``source`` in each class of ``KINDS``."""
    lines = io.StringIO(source).readlines()
    tokens = list(tokenize.generate_tokens(iter(lines).__next__))
    kind = ["blank"] * len(lines)
    rank = {name: position for position, name in enumerate(reversed(KINDS))}

    def mark(token, name):
        for row in range(token.start[0], token.end[0] + 1):
            if rank[name] > rank[kind[row - 1]]:
                kind[row - 1] = name

    previous = tokenize.NEWLINE
    for position, token in enumerate(tokens):
        if token.type == tokenize.COMMENT:
            mark(token, "comment")
        elif token.type not in _LAYOUT:
            alone = previous in _LAYOUT and tokens[position + 1].type == tokenize.NEWLINE
            mark(token, "docstring" if token.type == tokenize.STRING and alone else "code")
        if token.type not in (tokenize.COMMENT, tokenize.NL):
            previous = token.type
    return {name: kind.count(name) for name in KINDS}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("paths", nargs="+", help="Python files")
    args = parser.parse_args(argv)
    total = dict.fromkeys(KINDS, 0)
    for path in args.paths:
        with open(path, "r", encoding="utf-8") as handle:
            counts = count_lines(handle.read())
        total = {name: total[name] + counts[name] for name in KINDS}
        print(*counts.values(), sum(counts.values()), path)
    print(*total.values(), sum(total.values()), "total")


if __name__ == "__main__":
    main()
