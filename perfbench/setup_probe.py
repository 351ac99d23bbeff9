"""One fresh interpreter's set-up, timed from outside for setup_s.

Usage: python3 perfbench/setup_probe.py M K   (with the checkout's src on
PYTHONPATH).  Imports the codec and the CLI module, builds the field and
code parameters, and makes one encode and one decode so that first-call
costs are paid here.  Exits 0 only if the warm-up round trip is correct.
"""

import sys

import rscodec
import rscodec.workbench.cli  # noqa: F401  (import cost belongs to set-up)


def main() -> int:
    m, k = int(sys.argv[1]), int(sys.argv[2])
    params = rscodec.CodeParams(rscodec.Field(m), k)
    message = tuple(i % params.field.order for i in range(1, k + 1))
    codeword = rscodec.encode(params, message)
    result = rscodec.decode_suggested(params, rscodec.ReceivedWord(codeword))
    return 0 if result.message == message else 1


if __name__ == "__main__":
    sys.exit(main())
