"""Property tests of the trajectory CSV reader: against a float()-per-cell
reference, and reading back what the writer wrote."""
from __future__ import annotations

import math
import re

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from legiplan.model import COORD_LIMIT  # noqa: E402
from legiplan.scenario_io import (  # noqa: E402
    CSV_COLUMNS,
    CSV_HEADER,
    format_trajectory_csv,
    read_trajectory_csv,
)

_TIME_ERRORS = (
    "trajectory CSV rows must be strictly increasing in t",
    "trajectory CSV time steps must be even",
)


def _reference_cells(text: str) -> np.ndarray:
    """The reader's cell rules, one float() per cell: the cells of a log's
    data rows, (rows, 7), or the ValueError the reader must raise first."""
    width = len(CSV_COLUMNS)
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"trajectory CSV must start with header {CSV_HEADER!r}")
    parsed = []
    for line in lines[1:]:
        try:
            parsed.append([float(cell) for cell in line.split(",")])
        except ValueError:
            parsed.append(None)
    # Rows that are all finite numbers of one width are counted; otherwise the
    # first row that is not 7 finite numbers is named.
    numbers = [cells is not None and all(map(math.isfinite, cells)) for cells in parsed]
    if not all(numbers) or len({len(cells) for cells in parsed}) > 1:
        number = next(
            n for n, (cells, ok) in enumerate(zip(parsed, numbers), 1)
            if not ok or len(cells) != width
        )
        raise ValueError(f"trajectory CSV data row {number} must hold {width} numbers")
    if len(parsed) < 2 or len(parsed[0]) != width:
        raise ValueError(f"trajectory CSV needs at least two data rows of {width} columns")
    return np.array(parsed)


# Cells only float() reads (`1_0`, Arabic-Indic 3.5, padding), cells neither
# reads or that are not finite, and cells only numpy's parser reads (it strips
# the separator \x1f; float() does not).
_ODD_CELLS = [
    "1_0", "٣.٥", " 1.5", "+1", "-0", "\t2e-3 ", "nan", "-inf", "inf", "1e400", "zero", "",
    "1\x1f", "\x1f2",
]


@st.composite
def _log_texts(draw) -> str:
    """Logs from format_trajectory_csv rows, edited: odd cells, ragged rows,
    rows all of one wrong width, and blank or whitespace-only lines."""
    values = draw(st.lists(
        st.lists(st.floats(-1e3, 1e3), min_size=6, max_size=6), max_size=8
    ))
    lines = format_trajectory_csv([(0.4 * k, *v) for k, v in enumerate(values)]).splitlines()
    width = draw(st.sampled_from([7] * 5 + [1, 6, 8]))  # every row's width, before edits
    out = [lines[0]]
    for line in lines[1:]:
        cells = (line.split(",") + ["0"])[:width]
        edit = draw(st.sampled_from(["none"] * 12 + ["odd", "odd", "drop", "add"]))
        if edit == "odd":
            cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(_ODD_CELLS))
        elif edit == "drop" and len(cells) > 1:
            cells.pop()
        elif edit == "add":
            cells.append("1")
        out.append(",".join(cells))
        if draw(st.integers(0, 4)) == 0:
            out.append(draw(st.sampled_from(["", " ", "\t", " \t ", "\x1f"])))
    return draw(st.sampled_from(["\n", "\r\n"])).join(out) + draw(st.sampled_from(["", "\n"]))


# Above the "error" mark, so it wins: hypothesis imports libcst to report a
# failing example, and that import warns; as an error it would end the session.
@pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@pytest.mark.filterwarnings("error")  # a numpy warning from the parse is a failure
class TestTrajectoryCsv:
    @settings(max_examples=200, deadline=None)
    @given(text=_log_texts())
    @example(text=f"{CSV_HEADER}\n0,0,0,0,0,0,1\n0.4,1\x1f,0,0,0,0,1\n")  # numpy reads it
    @example(text=f"{CSV_HEADER}\n0,0,0,0,0,0,1\n0.4,1_0,0,0,0,0,1\n")  # only float() does
    def test_reader_matches_a_float_per_cell_reference(self, text):
        try:
            expected = _reference_cells(text)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                read_trajectory_csv(text)
            return
        try:
            _, columns = read_trajectory_csv(text)
        except ValueError as exc:  # the cells are read; only t's steps may fail
            assert str(exc).startswith(_TIME_ERRORS)
            return
        read = np.column_stack([columns[name] for name in CSV_COLUMNS])
        assert read.tobytes() == expected.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(
        values=st.lists(
            st.tuples(
                *[st.floats(-COORD_LIMIT, COORD_LIMIT)] * 2,  # x and y, inside the domain
                *[st.floats(allow_nan=False, allow_infinity=False)] * 4,
            ),
            min_size=2, max_size=30,
        ),
        dt=st.sampled_from([0.4, 1.2, 1 / 3, 0.05]),
    )
    def test_written_log_reads_back_as_its_text(self, values, dt):
        rows = [(k * dt, *cells) for k, cells in enumerate(values)]
        _, columns = read_trajectory_csv(format_trajectory_csv(rows))
        expected = np.array(
            [[float(f"{row[0]:.6f}"), *(float(f"{v:.9g}") for v in row[1:])] for row in rows]
        )
        read = np.column_stack([columns[name] for name in CSV_COLUMNS])
        assert read.tobytes() == expected.tobytes()



@pytest.mark.parametrize("column", ["x", "y"])
@pytest.mark.parametrize("value", [1.0000001e150, -1e300, 1.7976931348623157e308])
def test_log_with_a_coordinate_beyond_the_domain_rejected(column, value):
    def log(coord: float) -> str:
        first = dict.fromkeys(CSV_COLUMNS, 0.0) | {column: coord}
        return format_trajectory_csv([tuple(first.values()), (0.4, *[0.0] * 6)])

    with pytest.raises(ValueError, match=r"^waypoint coordinates must lie within \+-1e\+150$"):
        read_trajectory_csv(log(value))
    for bound in (COORD_LIMIT, -COORD_LIMIT):  # the bound itself is inside
        trajectory, _ = read_trajectory_csv(log(bound))
        assert trajectory.waypoints[0, CSV_COLUMNS.index(column) - 1] == bound
