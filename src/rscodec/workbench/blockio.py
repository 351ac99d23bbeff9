r"""Text format for codeword blocks.

A block file starts with one header line

    rs <n> <k> <m> <prim_poly_hex>

followed by one line per block: n space-separated decimal symbols, with a
literal ? marking an erased position.  Tokens are separated by runs of
ASCII space or tab, and a line ends in \n, \r\n or the end of the file;
a line of spaces and tabs alone is blank.  n, k, m and the symbols are ASCII
digits only ([0-9]+): no sign, no digit separator, no other script.
prim_poly_hex is ASCII hex digits, optionally after the 0x that
write_header puts there ((0x)?[0-9A-Fa-f]+).
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator, Sequence
from typing import TextIO

from ..codec import CodeParams, ReceivedWord
from ..galois import Field

ERASURE_MARK = "?"


class BlockFormatError(ValueError):
    """Malformed block file content."""


def _tokens(line: str) -> list[str]:
    r"""The tokens of one line; see the module docstring.

    str.split() would also split on NBSP, \v, \f and \x1c-\x1f, and take
    a line of them for blank; here they stay in a token, which then fails
    to parse.
    """
    if line.endswith("\n"):
        line = line[:-2] if line.endswith("\r\n") else line[:-1]
    return [token for token in line.replace("\t", " ").split(" ") if token]


def _decimal(token: str) -> int:
    """Value of an ASCII [0-9]+ token.

    int() alone would also take '+5', '1_0' and non-ASCII digits such as
    Arabic-Indic three.
    """
    if not (token.isascii() and token.isdigit()):
        raise ValueError(f"not a decimal number: {token!r}")
    return int(token)


_HEX_TOKEN = re.compile(r"(?:0x)?([0-9A-Fa-f]+)")


def _hex(token: str) -> int:
    """Value of a (0x)?[0-9A-Fa-f]+ token.

    int(token, 16) alone would also take '+11D', '1_1D', '0X11D' and
    non-ASCII digits.
    """
    match = _HEX_TOKEN.fullmatch(token)
    if match is None:
        raise ValueError(f"not a hex number: {token!r}")
    return int(match.group(1), 16)


def write_header(out: TextIO, params: CodeParams) -> None:
    field = params.field
    out.write(f"rs {params.n} {params.k} {field.m} 0x{field.prim_poly:x}\n")


def write_block(out: TextIO, symbols: Sequence[int],
                erasures: Iterable[int] = ()) -> None:
    tokens = [str(s) for s in symbols]
    for pos in erasures:
        tokens[pos] = ERASURE_MARK
    out.write(" ".join(tokens) + "\n")


def read_header(line: str) -> CodeParams:
    parts = _tokens(line)
    if len(parts) != 5 or parts[0] != "rs":
        raise BlockFormatError(
            f"expected header 'rs n k m prim_poly_hex', got {line.rstrip()!r}")
    try:
        n, k, m = _decimal(parts[1]), _decimal(parts[2]), _decimal(parts[3])
        prim_poly = _hex(parts[4])
    except ValueError as exc:
        raise BlockFormatError(f"bad header field: {exc}") from None
    try:
        field = Field(m, prim_poly)
        params = CodeParams(field, k)
    except (KeyError, ValueError) as exc:
        raise BlockFormatError(f"bad code parameters: {exc}") from None
    if n != params.n:
        raise BlockFormatError(f"header says n = {n} but m = {m} gives {params.n}")
    return params


def _rows(handle: TextIO, width: int, field: Field, first: int,
          mark: str | None = None
          ) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Symbols and erased positions of each non-blank line of handle.

    Every line must hold width tokens, each a decimal element of field or
    the erasure mark, if any; a marked position reads as 0.  first is the
    first line's number in error messages.
    """
    for lineno, line in enumerate(handle, start=first):
        tokens = _tokens(line)
        if not tokens:
            continue
        if len(tokens) != width:
            raise BlockFormatError(
                f"line {lineno}: expected {width} symbols, got {len(tokens)}")
        erasures = ([pos for pos, token in enumerate(tokens) if token == mark]
                    if mark in tokens else [])
        for pos in erasures:
            tokens[pos] = "0"
        symbols = _decimals(tokens, lineno)
        try:
            field.check_elements(symbols)
        except ValueError as exc:
            raise BlockFormatError(f"line {lineno}: {exc}") from None
        yield tuple(symbols), tuple(erasures)


def _decimals(tokens: list[str], lineno: int) -> list[int]:
    """Values of one line's tokens, each an ASCII [0-9]+ token.

    Each token is nonempty, so one test over the joined tokens checks them
    all.  The tokens are scanned one by one only to name the first that
    _decimal rejects, either for its characters or, past int's limit on
    digits, for its length.
    """
    digits = "".join(tokens)
    if digits.isascii() and digits.isdigit():
        try:
            return list(map(int, tokens))
        except ValueError:
            pass
    for token in tokens:
        try:
            _decimal(token)
        except ValueError:
            break
    raise BlockFormatError(f"line {lineno}: bad symbol {token!r}")


def read_blocks(handle: TextIO) -> tuple[CodeParams, list[ReceivedWord]]:
    """Parse a block file into code parameters and received words."""
    header = handle.readline()
    if not _tokens(header):
        raise BlockFormatError("missing header line")
    params = read_header(header)
    rows = _rows(handle, params.n, params.field, 2, ERASURE_MARK)
    return params, [ReceivedWord(*row) for row in rows]


def read_messages(handle: TextIO, params: CodeParams) -> list[tuple[int, ...]]:
    """Parse lines of k space-separated message symbols."""
    return [symbols for symbols, _ in _rows(handle, params.k, params.field, 1)]
