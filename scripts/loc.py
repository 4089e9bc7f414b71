#!/usr/bin/env python3
"""Count the code lines of each module of src/barriersmc.

A code line is a line that holds a token other than a comment or a
docstring; blank lines do not count. A docstring is a statement that is
only a string literal. Prints one `<count> <module>` line per module, then
the total.

Usage: python3 scripts/loc.py [PACKAGE_DIR]
"""

import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "barriersmc"
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    lines = set()
    statement = []  # the tokens of the current logical line
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in LAYOUT:
                statement.append(tok)
            elif tok.type == tokenize.NEWLINE and statement:
                if not (len(statement) == 1 and statement[0].type == tokenize.STRING):
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                statement = []
    return len(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    package = Path(argv[0]) if argv else PACKAGE
    total = 0
    for path in sorted(package.glob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{n:5d} {path.name}")
    print(f"{total:5d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
