"""Command-line workbench for the codec.

Subcommands: encode, corrupt, decode, bench.  encode and bench take the
code from --m, --k and --prim-poly; corrupt and decode read it from the
block file's header alone.  decode's --algorithm takes
a name from rscodec.DECODERS, or errors-only, which is suggested on
blocks that carry no erasures and refuses blocks that do.  Exit status 0
on success, 1 when decoding fails or bench sees suggested cost more than
truong, 2 on usage or input-format errors.  Each subcommand imports only
the modules it runs, so encode and decode load neither the channel nor
the counted benchmark.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from ..codec import DECODERS, CodeParams, decode_suggested, encode
from ..galois import Field
from . import blockio

USAGE_ERROR = 2
DECODE_ERROR = 1


class UsageError(ValueError):
    pass


def _field_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--m", type=int, required=True,
                        help="extension degree of GF(2^m)")
    parser.add_argument("--prim-poly", type=_hex_int, default=None,
                        metavar="HEX", help="primitive polynomial bits, hex")
    parser.add_argument("--k", type=int, required=True,
                        help="message length")


def _hex_int(text: str) -> int:
    try:
        return blockio._hex(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a hex value: {text!r}") from None


def _io_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--in", dest="infile", default="-", metavar="PATH",
                        help="input path, - for stdin")
    parser.add_argument("--out", dest="outfile", default="-", metavar="PATH",
                        help="output path, - for stdout")


def _params_from_args(args: argparse.Namespace) -> CodeParams:
    return CodeParams(Field(args.m, args.prim_poly), args.k)


@contextlib.contextmanager
def _open_in(path: str):
    if path == "-":
        yield sys.stdin
    else:
        # lines end as on piped stdin: at \n only, so a lone \r is no break
        with open(path, "r", newline="\n") as handle:
            yield handle


@contextlib.contextmanager
def _open_out(path: str):
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w") as handle:
            yield handle


def _cmd_encode(args: argparse.Namespace) -> int:
    params = _params_from_args(args)
    with _open_in(args.infile) as src:
        messages = blockio.read_messages(src, params)
    with _open_out(args.outfile) as dst:
        blockio.write_header(dst, params)
        for message in messages:
            blockio.write_block(dst, encode(params, message))
    return 0


def _parse_positions(text: str, t: int, l: int) -> tuple[tuple, tuple]:
    try:
        values = tuple(blockio._decimal(tok) for tok in text.split(","))
    except ValueError:
        raise UsageError(f"bad --positions value: {text!r}") from None
    if len(values) != t + l:
        raise UsageError(
            f"--positions needs t + l = {t + l} entries, got {len(values)}")
    return values[:t], values[t:]


def _cmd_corrupt(args: argparse.Namespace) -> int:
    import dataclasses
    import random

    from .channel import ChannelSpec, corrupt

    with _open_in(args.infile) as src:
        params, blocks = blockio.read_blocks(src)
    error_positions = erasure_positions = None
    if args.positions is not None:
        error_positions, erasure_positions = _parse_positions(
            args.positions, args.t, args.l)
    # refuse what corrupt would refuse for any block before any output
    base = ChannelSpec(t=args.t, l=args.l, error_positions=error_positions,
                       erasure_positions=erasure_positions)
    base.check(params.n)
    rng = random.Random(args.seed)
    with _open_out(args.outfile) as dst:
        blockio.write_header(dst, params)
        for block in blocks:
            if block.erasures:
                raise UsageError("corrupt expects clean codeword blocks, "
                                 "found erasure marks")
            spec = dataclasses.replace(base, seed=rng.getrandbits(32))
            received = corrupt(params, block.symbols, spec)
            blockio.write_block(dst, received.symbols, received.erasures)
    return 0


def _cmd_decode(args: argparse.Namespace) -> int:
    with _open_in(args.infile) as src:
        params, blocks = blockio.read_blocks(src)
    # errors-only is suggested on a block with no erasures
    decoder = DECODERS.get(args.algorithm, decode_suggested)
    failures = 0
    with _open_out(args.outfile) as dst:
        for index, block in enumerate(blocks):
            if args.algorithm == "errors-only" and block.erasures:
                print(f"block {index}: erasures present, "
                      f"errors-only cannot apply", file=sys.stderr)
                failures += 1
                continue
            result = decoder(params, block)
            if result.ok:
                blockio.write_block(dst, result.message)
            else:
                print(f"block {index}: decode failed ({result.cause.value})",
                      file=sys.stderr)
                failures += 1
    return DECODE_ERROR if failures else 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .counters import bench, format_report, write_csv

    params = _params_from_args(args)
    try:
        report = bench(params, args.trials, l=args.l, t=args.t,
                       seed=args.seed, strict=False)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    print(format_report(report))
    if args.csv is not None:
        write_csv(report, args.csv)
        print(f"wrote {args.csv}")
    if not report.claim_holds:
        print("claim violated: suggested exceeded truong on trials "
              f"{report.mult_violations + report.iteration_violations}",
              file=sys.stderr)
        return DECODE_ERROR
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rscodec",
        description="Reed-Solomon errors-and-erasures workbench")
    sub = parser.add_subparsers(dest="command", required=True)

    p_enc = sub.add_parser("encode", help="encode message lines into a block file")
    _field_args(p_enc)
    _io_args(p_enc)
    p_enc.set_defaults(handler=_cmd_encode)

    p_cor = sub.add_parser("corrupt", help="add errors and erasures to blocks")
    _io_args(p_cor)
    p_cor.add_argument("--t", type=int, default=0, help="error count")
    p_cor.add_argument("--l", type=int, default=0, help="erasure count")
    p_cor.add_argument("--seed", type=int, default=0, help="RNG seed")
    p_cor.add_argument("--positions", default=None, metavar="LIST",
                       help="comma-separated positions: t error entries, "
                            "then l erasure entries")
    p_cor.set_defaults(handler=_cmd_corrupt)

    p_dec = sub.add_parser("decode", help="decode a block file to message lines")
    _io_args(p_dec)
    p_dec.add_argument("--algorithm",
                       choices=sorted([*DECODERS, "errors-only"]),
                       default="suggested")
    p_dec.set_defaults(handler=_cmd_decode)

    p_ben = sub.add_parser(
        "bench", help="compare pipeline operation counts",
        description="Count the field operations of every decoder on seeded "
                    "random trials.")
    _field_args(p_ben)
    p_ben.add_argument("--t", type=int, default=None,
                       help="error count; random within radius if omitted")
    p_ben.add_argument("--l", type=int, default=0, help="erasure count")
    p_ben.add_argument("--seed", type=int, default=0, help="RNG seed")
    p_ben.add_argument("--trials", type=int, default=100)
    p_ben.add_argument("--csv", default=None, metavar="PATH",
                       help="write mean per-step counts as CSV")
    p_ben.set_defaults(handler=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:  # UsageError, BlockFormatError too
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def run() -> int:
    return main()


if __name__ == "__main__":
    sys.exit(main())
