"""Read back the trajectory CSV that `fileio.save_trajectory` writes."""


def load_trajectory_rows(path: str) -> list[tuple[int, float, float, float]]:
    """(t, gap, drift, utility) per row, after the t,gap,drift,utility header."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    assert lines and lines[0] == "t,gap,drift,utility", f"{path}: missing trajectory header"
    rows = []
    for ln in lines[1:]:
        t, gap, drift, utility = ln.split(",")
        rows.append((int(t), float(gap), float(drift), float(utility)))
    return rows
