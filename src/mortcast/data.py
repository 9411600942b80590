"""Mortality table ingestion and logit-rate surfaces.

Raw tables hold central death rates m (or, for pre-converted sources,
one-year death probabilities q) on an annual single-age grid, with
optional death counts and exposures. A ``MortalitySurface`` is the complete
rectangular window the models consume: logit initial rates
y = log(q / (1 - q)), with q = 1 - exp(-m) linking the two rate definitions,
and the counts of the CBD fits, the source's or, for rates-only input, the
pair :func:`synthesize_counts` makes from q.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DuplicateCellError,
    EmptyInputError,
    MissingCellError,
    NonFiniteLogitError,
    ParseError,
)

HMD_SEX_COLUMNS = {"female": 2, "male": 3, "total": 4}
#: flat exposure of counts synthesized from rates: the Poisson LL is then
#: E * sum(m log mu - mu) + const, so the level cannot move its maximum
SYNTH_EXPOSURE = 1e5


def central_to_initial(m):
    """Convert central death rates to initial (one-year) death probabilities.

    Parameters
    ----------
    m : float or ndarray
        Central rates, must be finite and >= 0.

    Returns
    -------
    q : same shape as ``m``
        1 - exp(-m), in [0, 1).
    """
    m = np.asarray(m, dtype=float)
    if not np.all(np.isfinite(m)):
        raise ValueError("central rate must be finite")
    if np.any(m < 0):
        raise ValueError("central rate must be >= 0")
    q = -np.expm1(-m)
    return q if q.ndim else float(q)


def initial_to_central(q):
    """Inverse of :func:`central_to_initial`: m = -log(1 - q) for q in [0, 1)."""
    q = np.asarray(q, dtype=float)
    if np.any(q < 0) or np.any(q >= 1):
        raise ValueError("initial rate must lie in [0, 1)")
    m = -np.log1p(-q)
    return m if m.ndim else float(m)


def logit(q):
    """log(q / (1 - q)) for q strictly inside (0, 1).

    Raises
    ------
    NonFiniteLogitError
        If any value sits on or outside the open unit interval. Rates are
        never clamped here; see the ``clamp_q`` option of :func:`build_surface`.
    """
    q = np.asarray(q, dtype=float)
    if np.any(~np.isfinite(q)) or np.any(q <= 0.0) or np.any(q >= 1.0):
        raise NonFiniteLogitError("rate outside (0, 1)")
    y = np.log(q) - np.log1p(-q)
    return y if y.ndim else float(y)


def inverse_logit(y):
    """Logistic map 1 / (1 + exp(-y)), split by sign so exp never overflows:
    with z = exp(-|y|) in (0, 1], it is 1 / (1 + z) for y >= 0 and z / (1 + z)
    below. Underflow of z to 0 (|y| > 745) is the correctly rounded limit."""
    y = np.asarray(y, dtype=float)
    with np.errstate(under="ignore"):
        z = np.exp(-np.abs(y))
        q = np.where(y >= 0, 1.0, z) / (1.0 + z)
    return q if q.ndim else float(q)


def consecutive_axis(values, name: str) -> np.ndarray:
    """``values`` as an int array, which must be non-empty and consecutive."""
    axis = np.asarray(list(values), dtype=int)
    if axis.size == 0:
        raise ValueError(f"{name} is empty")
    if np.any(np.diff(axis) != 1):
        raise ValueError(f"{name} must be consecutive integers")
    return axis


def cohort_labels(ages, years) -> np.ndarray:
    """Consecutive cohort labels years[0]-ages[-1] .. years[-1]-ages[0]."""
    ages = np.asarray(ages, dtype=int)
    years = np.asarray(years, dtype=int)
    return np.arange(years[0] - ages[-1], years[-1] - ages[0] + 1)


def cohort_cols(ages, years, cohorts) -> np.ndarray:
    """(n, m) grid of indices into the cohort axis ``cohorts``, entry (i, j)
    for the cohort t_i - x_j; ``ages`` and ``years`` are int arrays."""
    return (years[:, None] - ages[None, :]) - cohorts[0]


@dataclass(frozen=True)
class RawMortalityTable:
    """Long-format mortality rows keyed by (year, age).

    Parameters
    ----------
    years, ages : int arrays, one entry per row
    rates : float array
        Central rates m, or initial rates q when ``rate_kind == "initial"``.
    counts : (deaths, exposures) pair of float arrays, or None
        Optional observed death counts and central exposures, aligned with
        rows. NaN marks a row without the value, which :func:`window_counts`
        rejects inside a window. A row's rate must match D/E (central) or
        1 - exp(-D/E) (initial) to 1e-6 relative.
    rate_kind : {"central", "initial"}
    """

    years: np.ndarray
    ages: np.ndarray
    rates: np.ndarray
    counts: tuple[np.ndarray, np.ndarray] | None = None
    rate_kind: str = "central"
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        years = np.asarray(self.years, dtype=int)
        ages = np.asarray(self.ages, dtype=int)
        rates = np.asarray(self.rates, dtype=float)
        counts = () if self.counts is None else [
            np.asarray(c, dtype=float) for c in self.counts]
        shapes = [c.shape for c in (years, ages, rates, *counts)]
        if years.ndim != 1 or len(set(shapes)) > 1:
            raise ValueError("years, ages, rates and counts need one entry per row, "
                             f"got shapes {shapes}")
        object.__setattr__(self, "years", years)
        object.__setattr__(self, "ages", ages)
        object.__setattr__(self, "rates", rates)
        if self.rate_kind not in ("central", "initial"):
            raise ValueError(f"unknown rate_kind {self.rate_kind!r}")
        if len(years) == 0:
            raise EmptyInputError("table has no rows")
        index = {}
        for i, (t, x) in enumerate(zip(years, ages)):
            key = (int(t), int(x))
            if key in index:
                raise DuplicateCellError(f"duplicate cell (year={t}, age={x})")
            index[key] = i
        object.__setattr__(self, "_index", index)
        if self.counts is not None:
            d, e = counts
            object.__setattr__(self, "counts", (d, e))
            ok = np.isfinite(d) & np.isfinite(e) & (e > 0)
            implied = np.where(ok, d / np.where(ok, e, 1.0), np.nan)
            if self.rate_kind == "initial":  # D/E is a central rate
                implied = -np.expm1(-implied)
            bad = ok & (np.abs(rates - implied) > 1e-6 * np.maximum(rates, 1e-12))
            if np.any(bad):
                i = int(np.argmax(bad))
                raise ValueError(
                    f"rate inconsistent with deaths/exposure at "
                    f"(year={years[i]}, age={ages[i]}): "
                    f"{self.rate_kind} rate {float(rates[i])!r} vs "
                    f"{float(implied[i])!r} implied by D/E"
                )

    def lookup(self, year: int, age: int) -> int:
        """Row index of a cell, raising ``MissingCellError`` if absent."""
        try:
            return self._index[(int(year), int(age))]
        except KeyError:
            raise MissingCellError(f"no data for (year={year}, age={age})") from None


def _parse_hmd_1x1(text: str, sex: str) -> RawMortalityTable:
    if sex not in HMD_SEX_COLUMNS:
        raise ValueError(f"sex must be one of {sorted(HMD_SEX_COLUMNS)}, got {sex!r}")
    col = HMD_SEX_COLUMNS[sex]
    years, ages, rates = [], [], []
    seen_header = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        fields = line.split()
        if not fields:
            continue
        if not seen_header:  # the preamble ends at the table's header
            seen_header = fields[0].lower() == "year"
            continue
        if len(fields) != 5:
            raise ParseError(
                f"expected 5 whitespace-separated columns, got {len(fields)}",
                line=lineno,
            )
        try:
            year = int(fields[0])
        except ValueError:
            raise ParseError(f"bad year field {fields[0]!r}", line=lineno) from None
        age_txt = fields[1]
        if age_txt.endswith("+"):
            age_txt = age_txt[:-1]
        try:
            age = int(age_txt)
        except ValueError:
            raise ParseError(f"bad age field {fields[1]!r}", line=lineno) from None
        value = fields[col]
        if value == ".":
            continue  # HMD missing-value marker; cell simply absent
        try:
            rate = float(value)
        except ValueError:
            raise ParseError(f"bad rate field {value!r}", line=lineno) from None
        years.append(year)
        ages.append(age)
        rates.append(rate)
    if not seen_header:
        raise EmptyInputError("no 'Year Age Female Male Total' header line found")
    if not years:
        raise EmptyInputError("no data rows found")
    return RawMortalityTable(np.array(years), np.array(ages), np.array(rates))


def _parse_csv(text: str) -> RawMortalityTable:
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise EmptyInputError("no data rows found") from None
    header = [h.strip().lower() for h in header]
    required = {"year", "age"}
    if not required.issubset(header):
        missing = sorted(required - set(header))
        raise ParseError(f"missing required column(s) {missing}", line=1)
    if "mx" in header:
        rate_col, rate_kind = header.index("mx"), "central"
    elif "qx" in header:
        rate_col, rate_kind = header.index("qx"), "initial"
    else:
        raise ParseError("need a rate column named 'mx' or 'qx'", line=1)
    known = {"year", "age", "mx", "qx", "deaths", "exposure"}
    unknown = [h for h in header if h not in known]
    if unknown:
        raise ParseError(f"unknown column(s) {unknown}", line=1)
    if ("deaths" in header) != ("exposure" in header):
        raise ParseError("columns 'deaths' and 'exposure' come as a pair", line=1)
    year_col, age_col = header.index("year"), header.index("age")
    count_cols = [header.index(c) for c in ("deaths", "exposure") if c in header]

    years, ages, rates, deaths, expos = [], [], [], [], []
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not f.strip() for f in row):
            continue
        if len(row) != len(header):
            raise ParseError(
                f"expected {len(header)} fields, got {len(row)}", line=lineno
            )
        try:
            years.append(int(row[year_col]))
            ages.append(int(row[age_col]))
            rates.append(float(row[rate_col]))
            if count_cols:
                deaths.append(float(row[count_cols[0]]))
                expos.append(float(row[count_cols[1]]))
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from None
    if not years:
        raise EmptyInputError("no data rows found")
    return RawMortalityTable(
        np.array(years),
        np.array(ages),
        np.array(rates),
        counts=(deaths, expos) if count_cols else None,
        rate_kind=rate_kind,
    )


def parse_table(text: str, fmt: str, sex: str = "total") -> RawMortalityTable:
    """Parse mortality text in either supported format.

    Parameters
    ----------
    text : str
        Full file contents; one leading byte-order mark is dropped.
    fmt : {"hmd_1x1", "csv"}
        ``hmd_1x1``: a preamble, then whitespace columns from the header
        ``Year Age Female Male Total``; age "110+" parses as 110; "." marks
        a missing cell. ``csv``: header ``year,age,mx`` (or ``qx``),
        optionally with both ``deaths`` and ``exposure`` columns.
    sex : {"female", "male", "total"}
        Column selected from hmd_1x1 input; ignored for csv.
    """
    if fmt not in ("hmd_1x1", "csv"):
        raise ValueError(f"unknown format {fmt!r}")
    text = text.removeprefix("\ufeff")
    return _parse_hmd_1x1(text, sex) if fmt == "hmd_1x1" else _parse_csv(text)


@dataclass(frozen=True)
class MortalitySurface:
    """Complete rectangular grid of initial rates.

    Attributes
    ----------
    ages : int array, shape (m,)
        Consecutive single ages.
    years : int array, shape (n,)
        Consecutive calendar years.
    q : float array, shape (n, m)
        Initial rates in (0, 1); rows index years, columns index ages.
    y : float array, shape (n, m)
        logit(q), computed on first use (finite, as q is inside (0, 1)).
    counts : (deaths, exposures) pair of float arrays, shape (n, m) each
        What the CBD fits read: the given pair, checked by :func:`checked_counts`,
        or when none is given, the pair :func:`synthesize_counts` makes from q.
    """

    ages: np.ndarray
    years: np.ndarray
    q: np.ndarray
    counts: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        ages = consecutive_axis(self.ages, "ages")
        years = consecutive_axis(self.years, "years")
        q = np.asarray(self.q, dtype=float)
        if q.shape != (years.size, ages.size):
            raise ValueError(
                f"grid shape {q.shape} does not match "
                f"{years.size} years x {ages.size} ages"
            )
        if not np.all((q > 0.0) & (q < 1.0)):  # NaN fails both comparisons
            raise NonFiniteLogitError("surface rate outside (0, 1)")
        object.__setattr__(self, "ages", ages)
        object.__setattr__(self, "years", years)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "counts", synthesize_counts(q) if self.counts is None
                           else checked_counts(*self.counts, ages, years))

    @cached_property
    def y(self) -> np.ndarray:
        return logit(self.q)

    @property
    def n_years(self) -> int:
        return self.years.size


def _axis(window, name: str) -> np.ndarray:
    """The years or ages of an inclusive (lo, hi) window."""
    lo, hi = map(int, window)
    if hi < lo:
        raise ValueError(f"{name} range {lo}:{hi} is reversed")
    return np.arange(lo, hi + 1)


def build_surface(
    table: RawMortalityTable,
    ages,
    years,
    clamp_q: float | None = None,
) -> MortalitySurface:
    """Window a raw table into a complete surface, with :func:`window_counts`.

    Parameters
    ----------
    table : RawMortalityTable
    ages, years : (lo, hi) inclusive windows
    clamp_q : float in (0, 1), optional
        If given, rates q <= 0 are replaced by this value instead of
        raising ``NonFiniteLogitError``. Off by default: silent imputation
        must be an explicit choice.

    Raises
    ------
    ValueError
        ``clamp_q`` is given but not strictly inside (0, 1), or, once every
        rate has passed, a count is bad (:func:`checked_counts`).
    MissingCellError
        A requested cell is not in the table.
    NonFiniteLogitError
        A cell has a NaN q, q >= 1, or q <= 0 with clamping off.
    """
    if clamp_q is not None and not 0.0 < clamp_q < 1.0:
        raise ValueError(f"clamp_q must lie in (0, 1), got {clamp_q!r}")
    window = ages, years
    ages, years, rows = _cell_rows(table, ages, years)
    r = table.rates[rows]
    central = table.rate_kind == "central"
    ok_m = np.isfinite(r) & (r >= 0) if central else np.True_
    q = central_to_initial(np.where(ok_m, r, 0.0)) if central else r
    if clamp_q is not None:
        q = np.where(q <= 0.0, clamp_q, q)
    bad = (rows < 0) | ~ok_m | ~np.isfinite(q) | (q <= 0.0) | (q >= 1.0)
    if bad.any():
        # redo the first bad cell in (year, age) order alone, so that it
        # raises exactly the error a cell-by-cell pass would
        i, j = np.unravel_index(np.argmax(bad), bad.shape)
        t, x = int(years[i]), int(ages[j])
        r = table.rates[table.lookup(t, x)]
        qx = central_to_initial(r) if central else float(r)
        if np.isnan(qx):
            raise NonFiniteLogitError("rate q is NaN", year=t, age=x)
        if qx <= 0.0 and clamp_q is None:
            raise NonFiniteLogitError("rate q <= 0", year=t, age=x)
        raise NonFiniteLogitError("rate q >= 1", year=t, age=x)
    return MortalitySurface(ages, years, q, window_counts(table, *window))


def checked_counts(D, E, ages, years) -> tuple[np.ndarray, np.ndarray]:
    """D and E as float (years x ages) grids; every count must be finite,
    every exposure > 0 and every death count >= 0, else ``ValueError``
    names the first bad cell in (year, age) order."""
    D, E = np.asarray(D, dtype=float), np.asarray(E, dtype=float)
    if D.shape != (len(years), len(ages)) or E.shape != D.shape:
        raise ValueError(f"D/E grids must have shape ({len(years)}, {len(ages)})")
    bad = ~(np.isfinite(D) & np.isfinite(E)) | (E <= 0) | (D < 0)
    if bad.any():
        i, j = np.unravel_index(np.argmax(bad), bad.shape)
        raise ValueError(
            f"bad count at (year={years[i]}, age={ages[j]}): deaths={float(D[i, j])!r}, "
            f"exposure={float(E[i, j])!r}; counts must be finite, exposures > 0 "
            f"and deaths >= 0")
    return D, E


def window_counts(
    table: RawMortalityTable, ages, years
) -> tuple[np.ndarray, np.ndarray] | None:
    """(deaths, exposures) grids for a window, checked by
    :func:`checked_counts`; None if the table has no count columns."""
    if table.counts is None:
        return None
    ages, years, rows = _cell_rows(table, ages, years)
    if (rows < 0).any():
        i, j = np.unravel_index(np.argmax(rows < 0), rows.shape)
        table.lookup(years[i], ages[j])  # raises MissingCellError
    D, E = table.counts
    return checked_counts(D[rows], E[rows], ages, years)


def synthesize_counts(q) -> tuple[np.ndarray, np.ndarray]:
    """(D, E) grids backed out of initial rates at exposure ``SYNTH_EXPOSURE``,
    for sources with rates only: m = -log(1 - q), E is constant and
    D = E * m (non-integer counts are fine for the fitting routines)."""
    q = np.asarray(q, dtype=float)
    E = np.full_like(q, SYNTH_EXPOSURE)
    return E * initial_to_central(q), E


def _cell_rows(table: RawMortalityTable, ages, years):
    """The window's (ages, years) axes and its (years x ages) grid of the
    table's row indices, -1 where a cell is absent."""
    ages, years = _axis(ages, "ages"), _axis(years, "years")
    get = table._index.get
    rows = [[get((t, x), -1) for x in ages.tolist()] for t in years.tolist()]
    return ages, years, np.array(rows)


def split_train_test(
    surface: MortalitySurface, last_train_year: int
) -> tuple[MortalitySurface, MortalitySurface]:
    """Partition a surface by calendar year into (train, test).

    ``last_train_year`` must satisfy years[0] <= last_train_year < years[-1]
    so that both halves are non-empty; the two halves share the age axis.
    """
    years = surface.years
    if not (years[0] <= last_train_year < years[-1]):
        raise ValueError(
            f"last_train_year {last_train_year} outside "
            f"[{years[0]}, {years[-1] - 1}]"
        )
    k = int(last_train_year - years[0]) + 1
    D, E = surface.counts
    return (MortalitySurface(surface.ages, years[:k], surface.q[:k], (D[:k], E[:k])),
            MortalitySurface(surface.ages, years[k:], surface.q[k:], (D[k:], E[k:])))
