"""Reading the package's text inputs: generator files and data tables.

Inputs are untrusted.  A file that cannot be read raises ``IoError``;
one that is not UTF-8, or holds an integer that is not plain ASCII
digits, raises ``ParseError`` with the line number.
"""

from __future__ import annotations

from .errors import IoError, ParseError


def read_lines(path):
    """The lines of a UTF-8 text file."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise IoError(str(exc))
    try:
        return data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError("not UTF-8 text", line=line)


def parse_int(token, message, lineno=None):
    """An integer in ASCII digits; ``int`` also takes 1_0, +5, non-ASCII."""
    token = token.strip()
    if token.isascii() and token.isdigit():
        return int(token)
    raise ParseError(message, line=lineno)
