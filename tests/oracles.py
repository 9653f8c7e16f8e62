"""Independent test oracles for the left-total transform."""

from ait.leftward import IntervalTable, run_left_total


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
