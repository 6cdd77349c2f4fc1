"""Seeded mutation fuzz of the CLI's input handling.

Small valid inputs for the commands that read a file are mutated at the
byte level (flips, insertions, deletions, non-UTF-8 bytes, truncation)
and at the line level (lines dropped, repeated, swapped, tokens replaced)
and run through ``cli.main`` in process.  Every run must end with a
documented exit code and no escaping exception, and every non-zero exit
must say why on stderr.  Only the input file is fuzzed, never a size flag.
"""

import contextlib
import io
import random

from boolmetric.cli import main

PLANE = """algebra finite k=3
space W dim=2
point 000 000
point 110 100
point 011 001
basepoint 1
"""

COFINITE = """algebra cofinite
space L dim=2
point fin{} fin{}
point fin{1,3} cof{}
point cof{2} fin{0}
"""

PAIR = """algebra finite k=2
space A dim=2
point 00 00
point 11 10
space B dim=2
point 00 00
point 01 01
"""

ISOMETRY = """algebra finite k=3
space W dim=2
point 000 000
point 110 100
point 011 001
point 111 111
map F from=W to=W
pair 0 -> 3
pair 1 -> 2
"""

CONTRACTION = """algebra finite k=3
space W dim=2
point 000 000
point 110 100
point 011 001
map F from=W to=W
pair 0 -> 0
pair 1 -> 2
"""

SEEDS = {
    "alpha": [PLANE, COFINITE],
    "base": [PLANE],
    "conv": [PLANE, COFINITE],
    "isometric": [PAIR],
    "extend": [ISOMETRY, CONTRACTION],
    "extend-contraction": [CONTRACTION, ISOMETRY],
}

TOKENS = ["0", "1", "-1", "7", "99999", "->", "k=0", "k=1", "k=9", "dim=0", "dim=3",
          "from=W", "to=Z", "fin{}", "cof{1}", "fin{2,1}", "fin{70000}", "000", "1111",
          "01x", "point", "space", "map", "pair", "basepoint", "algebra", "#", "\t"]

NON_UTF8 = [b"\xff", b"\xfe", b"\xe9", b"\xc3", b"\x80", b"\x00", b"\xed\xa0\x80"]


def mutate(rng: random.Random, data: bytes) -> bytes:
    """One to three byte- or line-level edits of ``data``, mostly one."""
    for _ in range(rng.choice([1, 1, 1, 2, 3])):
        lines = data.split(b"\n")
        op = rng.randrange(9)
        i = rng.randrange(len(data) + 1)
        j = rng.randrange(len(lines))
        if op == 0:
            data = data[:i] + bytes([rng.randrange(256)]) + data[i + 1:]
        elif op == 1:
            data = data[:i] + rng.choice(NON_UTF8) + data[i:]
        elif op == 2:
            data = data[:i] + data[i + rng.randint(1, 4):]
        elif op == 3:
            data = data[:i]
        elif op == 4:
            del lines[j]
            data = b"\n".join(lines)
        elif op == 5:
            lines.insert(rng.randrange(len(lines) + 1), lines[j])
            data = b"\n".join(lines)
        elif op == 6:
            k = rng.randrange(len(lines))
            lines[j], lines[k] = lines[k], lines[j]
            data = b"\n".join(lines)
        else:
            tokens = lines[j].split(b" ")
            t = rng.randrange(len(tokens))
            tokens[t] = rng.choice(TOKENS).encode()
            if op == 8:
                tokens.insert(rng.randrange(len(tokens) + 1), rng.choice(TOKENS).encode())
            lines[j] = b" ".join(tokens)
            data = b"\n".join(lines)
    return data


def test_mutated_inputs_exit_cleanly(tmp_path):
    rng = random.Random(31337)
    path = tmp_path / "input.txt"
    codes = {}
    escaped = []
    for _ in range(1500):
        command = rng.choice(sorted(SEEDS))
        data = mutate(rng, rng.choice(SEEDS[command]).encode())
        path.write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main([command, "--input", str(path), "--max-points", "4096"])
            except BaseException as exc:  # noqa: BLE001 - any escape is a finding
                escaped.append((command, data, repr(exc)))
                continue
        reason = [line for line in err.getvalue().splitlines()
                  if line.startswith(("error: ", "infeasible: ", "violation: "))]
        assert code in (0, 1, 2, 3), (command, data, code)
        assert code == 0 or reason, (command, data, code, err.getvalue())
        codes[code] = codes.get(code, 0) + 1
    assert not escaped, escaped[:5]
    # the mutations reach accepted inputs, syntax errors and infeasible requests
    assert codes.get(0, 0) >= 80 and codes.get(2, 0) >= 1000 and codes.get(3, 0) >= 15, codes
