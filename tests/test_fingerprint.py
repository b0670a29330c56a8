"""Smoke test of the bit-level fingerprint script, on a small slice."""

import re

import fingerprint

LINE = re.compile(r"^(.*) (scalar|array|cold) (\S+) (.*)$")


def test_small_slice(capsys):
    assert fingerprint.main(["--count", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert {line.split()[0] for line in lines} == {"corpus", "near-cut", "wide-n", "extreme"}
    assert any("moment 2" in line for line in lines)
    assert any(line.startswith("extreme") and "failed (" in line for line in lines)
    # a point's record is the same in a row, in the array call and cold
    by_point = {}
    for line in lines:
        match = LINE.match(line)
        if match and not line.startswith("extreme"):
            label, kind, z, bits = match.groups()
            by_point.setdefault((label, z), {})[kind] = bits
    assert len(by_point) > 20
    for point, kinds in by_point.items():
        assert len(set(kinds.values())) == 1, point
    assert sum("cold" in kinds for kinds in by_point.values()) >= 8
