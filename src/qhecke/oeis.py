"""OEIS b-file reading and sequence comparison.

A b-file is plain text with two whitespace-separated integer columns
"n value"; blank lines and '#' comments are ignored.
"""

from __future__ import annotations

from .combinat import count_P, count_Q
from .errors import BFileError

SEQUENCES = {
    "A238872": count_P,
    "A321440": count_Q,
}


def parse_bfile(path):
    """Parse a b-file into a list of (n, value) pairs."""
    out = []
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise BFileError(f"cannot read {path}: {exc}")
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2:
            raise BFileError(f"expected two columns, got {len(fields)}", lineno)
        try:
            n, value = int(fields[0]), int(fields[1])
        except ValueError:
            raise BFileError(f"non-integer token in {fields!r}", lineno)
        out.append((n, value))
    return out


def oeis_compare(seq_id, bfile_path, max_n):
    """Compare an enumerator against b-file data for 1 <= n <= max_n.

    Returns (checked, mismatches) where mismatches is a list of
    (n, computed, filed); raises ValueError when no row is in range.
    """
    if seq_id not in SEQUENCES:
        raise KeyError(f"unknown sequence {seq_id}; known: {sorted(SEQUENCES)}")
    counter = SEQUENCES[seq_id]
    checked = 0
    mismatches = []
    for n, filed in parse_bfile(bfile_path):
        if n < 1 or n > max_n:
            continue
        computed = counter(n)
        checked += 1
        if computed != filed:
            mismatches.append((n, computed, filed))
    if not checked:
        raise ValueError(f"{bfile_path} has no row with 1 <= n <= {max_n}; nothing to compare")
    return checked, mismatches
