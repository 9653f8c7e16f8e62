"""Independent test oracles: a tree walk for the left-total transform and a
per-input preimage count for the compiled transducer."""

from ait.leftward import IntervalTable, run_left_total
from ait.monotone import DepthExceeded


def is_total_uprime_by_walk(x: str, table: IntervalTable) -> bool:
    """Walk the depth-(L+1) tree under x checking that every leaf path hits
    a transformed halting prefix."""
    depth = table.config.max_program_len + 1
    if len(x) > depth:
        raise ValueError("string deeper than the walk")

    def down(y: str) -> bool:
        if run_left_total(y, table).halted:
            return True
        if len(y) == depth:
            return False
        return down(y + "0") and down(y + "1")

    return down(x)


def preimage_count_by_apply(nu, members, n: int) -> int:
    """|{y of length n : nu(y) extends some member}|, applying nu afresh to
    every length-n input and testing its image against each member."""
    targets = tuple(set(members))
    if n > nu.depth:
        raise DepthExceeded(f"length {n} exceeds built depth {nu.depth}")
    count = 0
    for v in range(1 << n):
        image = nu.apply(format(v, f"0{n}b") if n else "")
        if any(image.startswith(x) for x in targets):
            count += 1
    return count
