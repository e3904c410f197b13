"""Code lines of the ``obscon`` package, by ``tokenize``.

A code line is a physical line that holds at least one token other than a
comment, a line break, an indent or a dedent, or a docstring. A docstring is
a string statement on its own: a STRING token that starts a logical line and
ends it. So blank lines, comment lines and docstrings never count, and a
statement spread over three lines counts three.

Run from the repository root to print each module's count and the total:

    python tests/code_lines.py [DIR]

DIR defaults to ``src/obscon``.
"""

from __future__ import annotations

import io
import os
import sys
import tokenize

_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER}
_LINE_START = {tokenize.NEWLINE, tokenize.NL, tokenize.INDENT, tokenize.DEDENT}


def code_lines(source: str) -> int:
    """The number of code lines in the Python ``source`` text."""
    # without comments, a docstring with a comment after it still ends its line
    tokens = [tok for tok in tokenize.generate_tokens(io.StringIO(source).readline)
              if tok.type != tokenize.COMMENT]
    lines = set()
    for i, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            continue
        if (tok.type == tokenize.STRING
                and (i == 0 or tokens[i - 1].type in _LINE_START)
                and tokens[i + 1].type in (tokenize.NEWLINE, tokenize.ENDMARKER)):
            continue  # a docstring, or any other bare string statement
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def package_counts(directory: str) -> dict[str, int]:
    """Each ``.py`` module's code lines under ``directory``, by relative path."""
    counts = {}
    for root, dirs, files in os.walk(directory):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                with open(path, encoding="utf-8") as fh:
                    counts[os.path.relpath(path, directory)] = code_lines(fh.read())
    return counts


def main(argv: list[str]) -> int:
    directory = argv[0] if argv else os.path.join("src", "obscon")
    counts = package_counts(directory)
    width = max(map(len, counts), default=5)
    for name, lines in counts.items():
        print(f"{name:<{width}}  {lines:>5}")
    print(f"{'total':<{width}}  {sum(counts.values()):>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
