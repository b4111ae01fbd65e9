"""Count the package's source lines: total, and code only.

Usage: ``python tools/loc.py [ROOT ...]`` (default ``src``), or ``make loc``.

Total lines are every line of every ``*.py`` file under the roots.  Code
lines leave out blank lines, comment lines and docstring lines: a line counts
when a token other than a comment touches it, where a logical line made of
string literals alone (a docstring, or any bare string statement) counts as
no code.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path
from typing import Iterable, Set, Tuple

#: Tokens that never make a line code.
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def code_lines(path: Path) -> int:
    """Number of lines of ``path`` that hold code."""
    lines: Set[int] = set()
    statement = []  # the significant tokens of the current logical line
    with open(path, "rb") as fh:
        for token in tokenize.tokenize(fh.readline):
            if token.type not in _LAYOUT:
                statement.append(token)
            elif token.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
                if not all(t.type == tokenize.STRING for t in statement):
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                statement = []
    return len(lines)


def count(roots: Iterable[str]) -> Tuple[int, int, int]:
    """(files, total lines, code lines) over every ``*.py`` under ``roots``."""
    files = total = code = 0
    for root in roots:
        for path in sorted(Path(root).rglob("*.py")):
            files += 1
            with open(path, "rb") as fh:
                total += sum(1 for _ in fh)
            code += code_lines(path)
    return files, total, code


def main(argv=None) -> int:
    roots = (sys.argv[1:] if argv is None else argv) or ["src"]
    files, total, code = count(roots)
    print(f"{' '.join(roots)}: {files} files, {total} total lines, {code} code lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
