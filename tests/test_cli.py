"""End-to-end runs of the command-line workbench, in process."""

import io
import sys
import time

import pytest

from rscodec import CodeParams, Field
from rscodec.workbench import bench
from rscodec.workbench.cli import main


def write_lines(path, text):
    path.write_text(text)
    return str(path)


def read_lines(path):
    return path.read_text().splitlines()


@pytest.fixture
def message_file(tmp_path):
    return write_lines(tmp_path / "messages.txt", "1 2 3\n0 0 5\n7 7 7\n")


def encode_args(infile, outfile):
    return ["encode", "--m", "3", "--k", "3", "--in", infile, "--out", outfile]


def test_encode_writes_header_and_blocks(tmp_path, message_file):
    out = tmp_path / "blocks.txt"
    assert main(encode_args(message_file, str(out))) == 0
    lines = read_lines(out)
    assert lines[0] == "rs 7 3 3 0xb"
    assert len(lines) == 4
    assert all(len(line.split()) == 7 for line in lines[1:])


def test_clean_round_trip(tmp_path, message_file, capsys):
    blocks = tmp_path / "blocks.txt"
    main(encode_args(message_file, str(blocks)))
    for algorithm in ("gao", "truong", "suggested", "errors-only"):
        decoded = tmp_path / f"decoded-{algorithm}.txt"
        code = main(["decode", "--algorithm", algorithm,
                     "--in", str(blocks), "--out", str(decoded)])
        assert code == 0
        assert read_lines(decoded) == ["1 2 3", "0 0 5", "7 7 7"]
    capsys.readouterr()


def test_corrupt_then_decode(tmp_path, message_file):
    blocks = tmp_path / "blocks.txt"
    noisy = tmp_path / "noisy.txt"
    main(encode_args(message_file, str(blocks)))
    assert main(["corrupt", "--t", "1", "--l", "2", "--seed", "7",
                 "--in", str(blocks), "--out", str(noisy)]) == 0
    noisy_lines = read_lines(noisy)
    assert all(line.split().count("?") == 2 for line in noisy_lines[1:])
    for algorithm in ("gao", "truong", "suggested"):
        decoded = tmp_path / f"decoded-{algorithm}.txt"
        code = main(["decode", "--algorithm", algorithm,
                     "--in", str(noisy), "--out", str(decoded)])
        assert code == 0
        assert read_lines(decoded) == ["1 2 3", "0 0 5", "7 7 7"]


def test_corrupt_with_explicit_positions(tmp_path, message_file):
    blocks = tmp_path / "blocks.txt"
    noisy = tmp_path / "noisy.txt"
    main(encode_args(message_file, str(blocks)))
    assert main(["corrupt", "--t", "1", "--l", "2", "--positions", "3,0,6",
                 "--in", str(blocks), "--out", str(noisy)]) == 0
    for clean, dirty in zip(read_lines(blocks)[1:], read_lines(noisy)[1:]):
        before, after = clean.split(), dirty.split()
        assert after[0] == "?" and after[6] == "?"
        assert after[3] != before[3]
        for pos in (1, 2, 4, 5):
            assert after[pos] == before[pos]


def test_errors_only_rejects_erasures(tmp_path, message_file, capsys):
    blocks = tmp_path / "blocks.txt"
    noisy = tmp_path / "noisy.txt"
    main(encode_args(message_file, str(blocks)))
    main(["corrupt", "--l", "1", "--in", str(blocks), "--out", str(noisy)])
    code = main(["decode", "--algorithm", "errors-only",
                 "--in", str(noisy), "--out", str(tmp_path / "x.txt")])
    assert code == 1
    assert "errors-only cannot apply" in capsys.readouterr().err


def test_decode_failure_exit_code(tmp_path, capsys):
    # five erasures exceed what RS(7, 3) can absorb
    blocks = write_lines(tmp_path / "bad.txt",
                         "rs 7 3 3 0xb\n? ? ? ? ? 1 1\n")
    code = main(["decode", "--in", blocks, "--out", str(tmp_path / "x.txt")])
    assert code == 1
    err = capsys.readouterr().err
    assert "block 0: decode failed (degree_overflow)" in err


def test_corrupt_refuses_dirty_input(tmp_path, capsys):
    blocks = write_lines(tmp_path / "dirty.txt",
                         "rs 7 3 3 0xb\n? 1 1 1 1 1 1\n")
    code = main(["corrupt", "--t", "1", "--in", blocks,
                 "--out", str(tmp_path / "x.txt")])
    assert code == 2
    assert "clean codeword blocks" in capsys.readouterr().err


def test_stdio_paths(tmp_path, message_file, monkeypatch, capsys):
    blocks = tmp_path / "blocks.txt"
    main(encode_args(message_file, str(blocks)))
    monkeypatch.setattr(sys, "stdin", io.StringIO(blocks.read_text()))
    assert main(["decode"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == ["1 2 3", "0 0 5", "7 7 7"]


def test_decode_and_corrupt_take_the_code_from_the_header(capsys):
    for command in ("decode", "corrupt"):
        assert main([command, "--help"]) == 0
        out = capsys.readouterr().out
        for flag in ("--m", "--k", "--prim-poly"):
            assert flag not in out


def test_usage_errors(tmp_path, message_file, capsys):
    blocks = tmp_path / "blocks.txt"
    main(encode_args(message_file, str(blocks)))
    capsys.readouterr()

    # argparse rejections surface as exit 2
    assert main([]) == 2
    assert main(["decode", "--algorithm", "bogus", "--in", str(blocks)]) == 2
    # n is 2^m - 1, so there is no --n flag
    assert main(["encode", "--m", "3", "--k", "3", "--n", "7",
                 "--in", message_file]) == 2
    # the header alone states the code, so decode takes no --k
    assert main(["decode", "--k", "5", "--in", str(blocks)]) == 2
    assert "unrecognized arguments: --k 5" in capsys.readouterr().err
    # missing input file
    assert main(["decode", "--in", str(tmp_path / "nope.txt")]) == 2
    # malformed header
    bad = write_lines(tmp_path / "bad.txt", "hello\n")
    assert main(["decode", "--in", bad]) == 2
    # symbol outside the field
    bad2 = write_lines(tmp_path / "bad2.txt", "rs 7 3 3 0xb\n9 0 0 0 0 0 0\n")
    assert main(["decode", "--in", bad2]) == 2
    # wrong symbol count on a block line
    bad3 = write_lines(tmp_path / "bad3.txt", "rs 7 3 3 0xb\n1 2 3\n")
    assert main(["decode", "--in", bad3]) == 2
    # positions list of the wrong length
    assert main(["corrupt", "--t", "2", "--positions", "1",
                 "--in", str(blocks)]) == 2
    # int() would read these as 3 and 1: positions are [0-9]+ like symbols
    assert main(["corrupt", "--t", "2", "--positions", "\u0663,+1",
                 "--in", str(blocks)]) == 2
    assert "bad --positions value" in capsys.readouterr().err
    capsys.readouterr()


def test_bench_command(tmp_path, capsys):
    csv_path = tmp_path / "counts.csv"
    code = main(["bench", "--m", "3", "--k", "3", "--l", "1",
                 "--trials", "12", "--seed", "4", "--csv", str(csv_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "RS(7, 3)" in out
    assert "suggested <= truong (mults and iterations): held" in out
    assert csv_path.exists()
    header = csv_path.read_text().splitlines()[0]
    assert header == "algorithm,step,mults,invs,iterations"


def test_bench_rejects_bad_shape(capsys):
    assert main(["bench", "--m", "3", "--k", "3", "--l", "9",
                 "--trials", "2"]) == 2
    assert "error:" in capsys.readouterr().err


def test_bench_counts_fields_above_m_10(capsys):
    # counting runs the fast kernels, so an RS(4095, 4000) trial costs
    # about what three plain decodes cost, a few tens of ms
    start = time.perf_counter()
    report = bench(CodeParams(Field(12), 4000), 1, l=16)
    assert main(["bench", "--m", "12", "--k", "4000", "--l", "16", "--t", "8",
                 "--trials", "1"]) == 0
    assert time.perf_counter() - start < 5
    assert report.agreements == (True,) and report.claim_holds
    out = capsys.readouterr().out
    assert "RS(4095, 4000)" in out and "agreed on 1/1" in out


def test_block_file_round_trip(tmp_path, rs73):
    from rscodec import ReceivedWord
    from rscodec.workbench import blockio

    path = tmp_path / "blocks.txt"
    word = ReceivedWord((1, 2, 0, 4, 0, 6, 7), (2, 4))
    with open(path, "w") as out:
        blockio.write_header(out, rs73)
        blockio.write_block(out, word.symbols, word.erasures)
        out.write("\n")  # blank lines are tolerated
        blockio.write_block(out, (0, 1, 2, 3, 4, 5, 6))
    with open(path) as src:
        params, blocks = blockio.read_blocks(src)
    assert params == rs73
    assert blocks[0] == word
    assert blocks[1].symbols == (0, 1, 2, 3, 4, 5, 6)
    assert blocks[1].erasures == ()


def test_custom_field_flags(tmp_path, capsys):
    msg = write_lines(tmp_path / "m.txt", "1 2 3 4 5 6 7\n")
    blocks = tmp_path / "b.txt"
    code = main(["encode", "--m", "4", "--k", "7", "--prim-poly", "13",
                 "--in", msg, "--out", str(blocks)])
    assert code == 0
    assert read_lines(blocks)[0] == "rs 15 7 4 0x13"
    decoded = tmp_path / "d.txt"
    assert main(["decode", "--in", str(blocks), "--out", str(decoded)]) == 0
    assert read_lines(decoded) == ["1 2 3 4 5 6 7"]
    capsys.readouterr()


@pytest.mark.parametrize("token", ["+5", "0_3", "\u0663", "\uff13"])
def test_non_ascii_decimal_tokens_are_rejected(tmp_path, token, capsys):
    # int() reads each as a valid small number (the last two are the
    # Arabic-Indic and fullwidth digit three); the format allows [0-9]+ only
    block = write_lines(tmp_path / "block.txt",
                        f"rs 7 3 3 0xb\n{token} 0 0 0 0 0 0\n")
    assert main(["decode", "--in", block]) == 2
    header = write_lines(tmp_path / "header.txt",
                         f"rs 7 {token} 3 0xb\n0 0 0 0 0 0 0\n")
    assert main(["decode", "--in", header]) == 2
    message = write_lines(tmp_path / "message.txt", f"1 {token} 3\n")
    assert main(["encode", "--m", "3", "--k", "3", "--in", message]) == 2
    assert "error:" in capsys.readouterr().err


ZERO_BLOCK = " ".join(["0"] * 255) + "\n"


@pytest.mark.parametrize("token", [
    "+11D", "-11d", "1_1D", "0x_11d", "0X11D", "0x", "\u0661\u0661d",
    "\uff11\uff11D"])
def test_non_ascii_hex_prim_poly_is_rejected(tmp_path, token, capsys):
    # int(token, 16) takes all of these but the bare 0x, most as 0x11d;
    # the last two spell 11 in Arabic-Indic and fullwidth digits
    block = write_lines(tmp_path / "block.txt",
                        f"rs 255 223 8 {token}\n{ZERO_BLOCK}")
    assert main(["decode", "--in", block]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("token", ["11d", "11D", "0x11d", "0x11D"])
def test_hex_prim_poly_is_accepted(tmp_path, token, capsys):
    block = write_lines(tmp_path / "block.txt",
                        f"rs 255 223 8 {token}\n{ZERO_BLOCK}")
    assert main(["decode", "--in", block]) == 0
    assert capsys.readouterr().out.split() == ["0"] * 223


@pytest.mark.parametrize("token", ["-11d", "+11d", "1_1d", "\uff11\uff11d"])
def test_strict_prim_poly_flag_is_rejected(tmp_path, token, capsys):
    # int(token, 16) takes the last three as 0x11d and the first as a
    # negative number that Field used to crash on
    message = write_lines(tmp_path / "message.txt", "1 2 3\n")
    assert main(["encode", "--m", "8", "--k", "3", f"--prim-poly={token}",
                 "--in", message]) == 2
    assert "not a hex value" in capsys.readouterr().err


@pytest.mark.parametrize("token", ["11d", "0x11d"])
def test_prim_poly_flag_is_accepted(tmp_path, token, capsys):
    message = write_lines(tmp_path / "message.txt", "1 2 3\n")
    assert main(["encode", "--m", "8", "--k", "3", f"--prim-poly={token}",
                 "--in", message]) == 0
    assert capsys.readouterr().out.startswith("rs 255 3 8 0x11d\n")


# ------------------------------------------------------------ parser edges

CLEAN_BLOCK = "rs 7 3 3 0xb\n0 2 3 3 0 1 2\n"  # the message 1 2 3


@pytest.mark.parametrize("text", [
    CLEAN_BLOCK.replace("\n", "\r\n"),
    CLEAN_BLOCK.rstrip("\n"),
], ids=["crlf", "no-final-newline"])
def test_line_ending_variants_decode(tmp_path, text, capsys):
    path = tmp_path / "blocks.txt"
    path.write_bytes(text.encode())
    assert main(["decode", "--in", str(path)]) == 0
    assert capsys.readouterr().out == "1 2 3\n"


@pytest.mark.parametrize("text, message", [
    (" \t\n  \n", "missing header line"),
    ("rs 99999999999 5 99999999999 0x11d\n", "bad code parameters"),
    (f"rs 7 {10**20} 3 0xb\n0 0 0 0 0 0 0\n", "bad code parameters"),
    ("rs 7 3 3 0xb\n0 2 3 3 0\n", "line 2: expected 7 symbols, got 5"),
    # str.split() takes NBSP, \v, \f and \x1c-\x1f for separators too
    ("rs\xa07\xa03\xa03\xa00xb\n0 2 3 3 0 1 2\n", "expected header"),
    ("rs 7 3 3 0xb\n0\xa02 3 3 0 1 2\n", "line 2: expected 7 symbols, got 6"),
    ("rs 7 3 3 0xb\n0 2 3 3 0 1\x0b2\n", "line 2: expected 7 symbols, got 6"),
    (CLEAN_BLOCK + "\x1c\n" + CLEAN_BLOCK[13:], "line 3: expected 7 symbols"),
    (CLEAN_BLOCK + "\x0c \t\n", "line 3: expected 7 symbols, got 1"),
    (CLEAN_BLOCK.replace("\n", "\r", 1), "expected header"),
], ids=["blank-header", "huge-header", "huge-k", "truncated-last-line",
        "nbsp-header", "nbsp-symbols", "vt-symbols", "fs-line", "ff-line",
        "cr-line"])
def test_malformed_block_file_is_rejected(tmp_path, text, message, capsys):
    path = write_lines(tmp_path / "blocks.txt", text)
    assert main(["decode", "--in", path]) == 2
    assert message in capsys.readouterr().err


def test_message_separators_are_space_or_tab(tmp_path, monkeypatch, capsys):
    # str.split() would read this line as the message 1 2 3
    message = write_lines(tmp_path / "message.txt", "1\x1c2\x1c3\n")
    assert main(["encode", "--m", "3", "--k", "3", "--in", message]) == 2
    assert "line 1: expected 3 symbols, got 1" in capsys.readouterr().err
    # piped stdin keeps the \r of \r\n
    monkeypatch.setattr(sys, "stdin", io.StringIO("1 \t2\t3 \r\n\t\r\n"))
    assert main(["encode", "--m", "3", "--k", "3"]) == 0
    assert capsys.readouterr().out == CLEAN_BLOCK


def test_erasure_mark_in_a_message_file_is_rejected(tmp_path, capsys):
    # a message has no erasures; the error names the token as block files do
    message = write_lines(tmp_path / "message.txt", "1 2 3\n1 ? 3\n")
    assert main(["encode", "--m", "3", "--k", "3", "--in", message]) == 2
    assert "line 2: bad symbol '?'" in capsys.readouterr().err
