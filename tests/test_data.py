import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mortcast.data import (
    MortalitySurface,
    RawMortalityTable,
    build_surface,
    central_to_initial,
    initial_to_central,
    inverse_logit,
    logit,
    parse_table,
    split_train_test,
    synthesize_counts,
    window_counts,
)
from mortcast.errors import (
    DuplicateCellError,
    EmptyInputError,
    MissingCellError,
    NonFiniteLogitError,
    ParseError,
)


class TestParseHmd:
    def test_male_column_selection(self, hmd_sample):
        # hand-parsed from the fixed Year/Age/Female/Male/Total column order
        table = parse_table(hmd_sample, "hmd_1x1", sex="male")
        i = table.lookup(1947, 60)
        assert table.rates[i] == 0.030000

    def test_female_and_total_columns(self, hmd_sample):
        f = parse_table(hmd_sample, "hmd_1x1", sex="female")
        t = parse_table(hmd_sample, "hmd_1x1", sex="total")
        assert f.rates[f.lookup(1947, 60)] == 0.021000
        assert t.rates[t.lookup(1947, 60)] == 0.025000

    def test_missing_marker_skipped(self, hmd_sample):
        table = parse_table(hmd_sample, "hmd_1x1", sex="male")
        with pytest.raises(MissingCellError):
            table.lookup(1949, 110)

    def test_open_age_group_parses_as_110(self):
        text = "Year Age Female Male Total\n1950 110+ 0.5 0.6 0.55\n"
        table = parse_table(text, "hmd_1x1", sex="male")
        assert table.rates[table.lookup(1950, 110)] == 0.6

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            parse_table("", "hmd_1x1", sex="male")
        with pytest.raises(EmptyInputError):
            parse_table("Year Age Female Male Total\n", "hmd_1x1", sex="male")

    def test_malformed_line_reports_number(self):
        text = "Year Age Female Male Total\n1950 60 0.1 0.2 0.3\n1951 61 oops\n"
        with pytest.raises(ParseError) as err:
            parse_table(text, "hmd_1x1", sex="male")
        assert err.value.line == 3

    def test_duplicate_cell(self):
        text = (
            "Year Age Female Male Total\n"
            "1950 60 0.1 0.2 0.3\n"
            "1950 60 0.1 0.2 0.3\n"
        )
        with pytest.raises(DuplicateCellError):
            parse_table(text, "hmd_1x1", sex="male")

    def test_whole_sample_table(self, hmd_sample):
        # the preamble and the blank line are skipped, the 110+ row is all "."
        table = parse_table(hmd_sample, "hmd_1x1", sex="male")
        assert table.years.tolist() == [1947, 1947, 1948, 1948, 1949, 1949]
        assert table.ages.tolist() == [60, 61, 60, 61, 60, 61]
        assert table.rates.tolist() == [0.03, 0.033, 0.029, 0.0321, 0.028, 0.031]

    def test_table_starts_only_at_its_header(self, hmd_sample):
        rows = [line for line in hmd_sample.splitlines() if line.split()[:1] != ["Year"]]
        with pytest.raises(EmptyInputError, match="'Year Age Female Male Total' header"):
            parse_table("\n".join(rows), "hmd_1x1", sex="male")
        with pytest.raises(EmptyInputError, match="header"):
            parse_table("1950 60 0.1 0.2 0.3\n", "hmd_1x1", sex="male")

    def test_repeated_header_reports_its_line(self):
        text = (
            "Year Age Female Male Total\n"
            "1950 60 0.1 0.2 0.3\n"
            "Year Age Female Male Total\n"
            "1950 61 0.1 0.2 0.3\n"
        )
        with pytest.raises(ParseError, match="bad year field 'Year'") as err:
            parse_table(text, "hmd_1x1", sex="male")
        assert err.value.line == 3

    @pytest.mark.parametrize("row, message", [
        ("1950 6x 0.1 0.2 0.3", "bad age field '6x'"),
        ("1950 60 0.1 n/a 0.3", "bad rate field 'n/a'"),
        # a table holds int64 years and ages; these used to overflow uncaught
        ("100000000000000000000000000000 60 0.1 0.2 0.3",
         "bad year field '100000000000000000000000000000'"),
        ("1950 9223372036854775808+ 0.1 0.2 0.3", r"bad age field '9223372036854775808\+'"),
    ], ids=["age", "rate", "year-past-int64", "age-past-int64"])
    def test_bad_field_reports_its_line(self, row, message):
        text = f"Year Age Female Male Total\n1950 61 0.1 0.2 0.3\n{row}\n"
        with pytest.raises(ParseError, match=f"line 3: {message}"):
            parse_table(text, "hmd_1x1", sex="male")

    def test_unknown_sex(self, hmd_sample):
        with pytest.raises(ValueError):
            parse_table(hmd_sample, "hmd_1x1", sex="unisex")


class TestParseCsv:
    def test_mx_roundtrip(self):
        table = parse_table("year,age,mx\n2000,60,0.02\n2000,61,0.03\n", "csv")
        assert table.rate_kind == "central"
        assert table.rates[table.lookup(2000, 61)] == 0.03

    @pytest.mark.parametrize("fmt, text", [
        ("csv", "year,age,mx,deaths,exposure\n2000,60,0.02,200,10000\n2000,61,0.03,300,10000\n"),
        ("hmd_1x1", "Year Age Female Male Total\n2000 60 0.1 0.2 0.3\n"),
    ], ids=["csv", "hmd_1x1"])
    def test_byte_order_mark_dropped(self, fmt, text):
        # spreadsheet exports open a UTF-8 file with U+FEFF; unstripped, it
        # hides the first column name and the HMD header
        plain, marked = parse_table(text, fmt), parse_table("\ufeff" + text, fmt)
        for name in ("years", "ages", "rates", "counts"):
            np.testing.assert_array_equal(getattr(marked, name), getattr(plain, name))
        assert marked.rate_kind == plain.rate_kind

    def test_qx_variant(self):
        table = parse_table("year,age,qx\n2000,60,0.02\n", "csv")
        assert table.rate_kind == "initial"

    def test_deaths_exposure_columns(self):
        table = parse_table(
            "year,age,mx,deaths,exposure\n2000,60,0.02,200,10000\n", "csv"
        )
        deaths, exposures = table.counts
        assert deaths[0] == 200.0
        assert exposures[0] == 10000.0

    def test_inconsistent_counts_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            parse_table(
                "year,age,mx,deaths,exposure\n2000,60,0.02,500,10000\n", "csv"
            )

    def test_unknown_column(self):
        with pytest.raises(ParseError, match="unknown column"):
            parse_table("year,age,mx,extra\n2000,60,0.02,1\n", "csv")

    @pytest.mark.parametrize("header, message", [
        ("year,age,mx,mx", r"repeated column\(s\) \['mx'\]"),
        ("year,age,mx,year", r"repeated column\(s\) \['year'\]"),
        ("Year,age,mx,MX,year", r"repeated column\(s\) \['mx', 'year'\]"),
        ("year,age,mx,qx", "one rate column, 'mx' or 'qx', not both"),
    ], ids=["mx-twice", "year-twice", "case-folded", "mx-and-qx"])
    def test_ambiguous_header(self, header, message):
        # each used to parse: a repeated name read its first column and
        # ignored the other, and mx silently won over qx
        row = ",".join(["2000", "60"] + ["0.02"] * (header.count(",") - 1))
        with pytest.raises(ParseError, match=f"line 1: {message}"):
            parse_table(f"{header}\n{row}\n", "csv")

    @pytest.mark.parametrize("row, value", [
        ("100000000000000000000000000000,60,0.01", "100000000000000000000000000000"),
        ("2000,-9223372036854775809,0.01", "-9223372036854775809"),
    ], ids=["year", "age"])
    def test_integer_past_int64_names_its_line(self, row, value):
        # np.asarray(years, dtype=int) used to raise an uncaught OverflowError
        with pytest.raises(ParseError,
                           match=f"line 3: {value} is outside the 64-bit integer range"):
            parse_table(f"year,age,mx\n2000,60,0.01\n{row}\n", "csv")
        table = parse_table("year,age,mx\n9223372036854775807,-9223372036854775808,0.01\n",
                            "csv")
        assert table.lookup(2**63 - 1, -2**63) == 0

    def test_blank_and_whitespace_rows_are_skipped(self):
        text = "year,age,mx\n2000,60,0.02\n\n , ,\t\n\t\n2000,61,0.03\n"
        table = parse_table(text, "csv")
        assert table.years.tolist() == [2000, 2000] and table.ages.tolist() == [60, 61]
        assert table.rates.tolist() == [0.02, 0.03]
        # a skipped row still counts toward the line numbers
        with pytest.raises(ParseError, match="^line 4: "):
            parse_table("year,age,mx\n\n  \n2000,60,abc\n", "csv")

    def test_missing_rate_column(self):
        with pytest.raises(ParseError, match="mx"):
            parse_table("year,age,rate\n2000,60,0.02\n", "csv")

    @pytest.mark.parametrize("text, error, message", [
        ("age,mx\n60,0.02\n", ParseError, r"line 1: missing required column\(s\) \['year'\]"),
        ("year,mx\n2000,0.02\n", ParseError, r"line 1: missing required column\(s\) \['age'\]"),
        ("year,age,mx\n2000,60,0.02\n2000,61\n", ParseError, "line 3: expected 3 fields, got 2"),
        ("year,age,mx\n2000,60,0.02\n2000,61,abc\n", ParseError,
         "line 3: could not convert string to float: 'abc'"),
        ("year,age,mx\n", EmptyInputError, "no data rows found"),
        ("", EmptyInputError, "no data rows found"),
    ], ids=["no-year", "no-age", "field-count", "number", "header-only", "empty"])
    def test_malformed_text_is_named(self, text, error, message):
        with pytest.raises(error, match=message):
            parse_table(text, "csv")

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            parse_table("x", "tsv")


class TestRateConversions:
    def test_zero_rate(self):
        assert central_to_initial(0.0) == 0.0

    def test_log_two_gives_half(self):
        assert central_to_initial(math.log(2)) == pytest.approx(0.5, abs=1e-15)

    def test_point_one(self):
        # 1 - exp(-0.1) frozen from a 40-digit evaluation
        assert central_to_initial(0.1) == pytest.approx(
            0.09516258196404043, abs=1e-15
        )

    def test_rejects_negative_and_nonfinite(self):
        with pytest.raises(ValueError):
            central_to_initial(-0.5)
        with pytest.raises(ValueError):
            central_to_initial(float("nan"))
        with pytest.raises(ValueError):
            central_to_initial(float("inf"))

    def test_initial_to_central_inverts(self):
        m = np.array([0.0, 0.01, 0.3, 2.0])
        np.testing.assert_allclose(
            initial_to_central(central_to_initial(m)), m, rtol=1e-12
        )

    @given(
        m1=st.floats(0.0, 10.0),
        delta=st.floats(1e-6, 5.0),
    )
    @settings(deadline=None, max_examples=200)
    def test_monotone(self, m1, delta):
        assert central_to_initial(m1) < central_to_initial(m1 + delta)


class TestLogit:
    def test_half_maps_to_zero(self):
        assert logit(0.5) == 0.0

    def test_point_one(self):
        # log(1/9) frozen from a 40-digit evaluation
        assert logit(0.1) == pytest.approx(-2.1972245773362196, abs=1e-14)

    def test_boundaries_rejected(self):
        for bad in (0.0, 1.0, -0.1, 1.1, float("nan")):
            with pytest.raises(NonFiniteLogitError):
                logit(bad)

    def test_strictly_increasing(self):
        q = np.linspace(0.01, 0.99, 99)
        assert np.all(np.diff(logit(q)) > 0)

    @given(st.floats(1e-8, 1 - 1e-8))
    @settings(deadline=None, max_examples=300)
    def test_round_trip(self, q):
        assert inverse_logit(logit(q)) == pytest.approx(q, abs=1e-12)


def _table_from_m(ages, years, m_grid):
    yy, xx, mm = [], [], []
    for i, t in enumerate(years):
        for j, x in enumerate(ages):
            yy.append(t)
            xx.append(x)
            mm.append(m_grid[i][j])
    return RawMortalityTable(np.array(yy), np.array(xx), np.array(mm))


def _cell_by_cell_q(table, ages, years, clamp_q):
    """Reference q grid: one lookup and one conversion per cell."""
    q = np.empty((len(years), len(ages)))
    for i, t in enumerate(years):
        for j, x in enumerate(ages):
            r = table.rates[table.lookup(t, x)]
            if table.rate_kind == "central" and not (math.isfinite(r) and r >= 0):
                raise NonFiniteLogitError("central rate is not finite and >= 0", year=t, age=x)
            qx = central_to_initial(r) if table.rate_kind == "central" else float(r)
            if math.isnan(qx):
                raise NonFiniteLogitError("rate q is NaN", year=t, age=x)
            if qx <= 0.0:
                if clamp_q is None:
                    raise NonFiniteLogitError("rate q <= 0", year=t, age=x)
                qx = clamp_q
            if qx >= 1.0:
                raise NonFiniteLogitError("rate q >= 1", year=t, age=x)
            q[i, j] = qx
    return q


class TestBuildSurface:
    def test_single_cell_log_two(self):
        table = _table_from_m([70], [2000], [[math.log(2)]])
        s = build_surface(table, (70, 70), (2000, 2000))
        assert s.q.shape == (1, 1)
        assert s.y[0, 0] == pytest.approx(0.0, abs=1e-15)

    def test_window_shape(self):
        ages = range(60, 65)
        years = range(1990, 2000)
        m = [[0.01 + 0.001 * j for j in range(5)] for _ in range(10)]
        s = build_surface(_table_from_m(ages, years, m), (60, 64), (1990, 1999))
        assert s.q.shape == (10, 5)
        np.testing.assert_allclose(s.y, np.log(s.q) - np.log1p(-s.q), atol=1e-15)

    def test_missing_cell(self):
        table = _table_from_m([60], [2000], [[0.02]])
        with pytest.raises(MissingCellError, match="2001"):
            build_surface(table, (60, 60), (2000, 2001))

    def test_zero_rate_is_hard_error(self):
        table = _table_from_m([60, 61], [2000], [[0.0, 0.02]])
        with pytest.raises(NonFiniteLogitError) as err:
            build_surface(table, (60, 61), (2000, 2000))
        assert err.value.age == 60 and err.value.year == 2000

    def test_zero_rate_clamped_on_request(self):
        table = _table_from_m([60, 61], [2000], [[0.0, 0.02]])
        s = build_surface(table, (60, 61), (2000, 2000), clamp_q=1e-6)
        assert s.q[0, 0] == 1e-6

    def test_nan_qx_cell_is_named(self):
        table = parse_table("year,age,qx\n2000,60,0.25\n2000,61,nan\n", "csv")
        with pytest.raises(NonFiniteLogitError, match="NaN") as err:
            build_surface(table, (60, 61), (2000, 2000), clamp_q=1e-6)
        assert (err.value.year, err.value.age) == (2000, 61)

    @pytest.mark.parametrize("clamp_q", [None, 1e-6])
    @pytest.mark.parametrize("mx", [math.nan, math.inf, -0.1], ids=["nan", "inf", "negative"])
    def test_bad_central_rate_is_named(self, mx, clamp_q):
        # it used to raise central_to_initial's bare ValueError, naming no cell
        table = _table_from_m([60, 61, 62], [2000, 2001],
                              [[0.02, 0.03, 0.04], [0.021, mx, math.nan]])
        with pytest.raises(NonFiniteLogitError, match=r"^central rate is not finite and >= 0 "
                                                      r"at \(year=2001, age=61\)$") as err:
            build_surface(table, (60, 62), (2000, 2001), clamp_q=clamp_q)
        assert (err.value.year, err.value.age) == (2001, 61)

    def test_checks_a_window_in_one_pass(self, monkeypatch):
        # the first bad cell used to be looked up and converted a second time
        import mortcast.data as data

        calls = {"central_to_initial": 0, "lookup": 0}
        for owner, name in ((data, "central_to_initial"), (RawMortalityTable, "lookup")):
            def counting(*args, _name=name, _original=getattr(owner, name)):
                calls[_name] += 1
                return _original(*args)
            monkeypatch.setattr(owner, name, counting)
        table = _table_from_m([60, 61, 62], [2000, 2001],
                              [[0.02, math.nan, 0.04], [0.021, 0.031, 0.041]])
        with pytest.raises(NonFiniteLogitError, match=r"\(year=2000, age=61\)"):
            build_surface(table, (60, 61), (2000, 2001))
        assert calls == {"central_to_initial": 1, "lookup": 0}

    def test_qx_table_skips_conversion(self):
        table = parse_table("year,age,qx\n2000,60,0.25\n", "csv")
        s = build_surface(table, (60, 60), (2000, 2000))
        assert s.q[0, 0] == 0.25

    def test_reversed_range_rejected(self):
        table = _table_from_m([60], [2000], [[0.02]])
        with pytest.raises(ValueError, match="reversed"):
            build_surface(table, (60, 60), (2006, 1947))

    @pytest.mark.parametrize("rate_kind", ["central", "initial"])
    @pytest.mark.parametrize("clamp_q", [None, 1e-6])
    def test_matches_cell_by_cell_reference(self, rate_kind, clamp_q):
        # two defective cells, (2000, 61) then (2001, 60) in (year, age)
        # order: the first one must raise exactly as a cell-by-cell loop
        # would, and clean grids must come out bit for bit the same
        defects = [None, "missing", float("nan"), float("inf"), -0.1, 0.0, 50.0, 1.0]
        ages, years = [60, 61, 62], [2000, 2001, 2002]
        for a, b in itertools.product(defects, repeat=2):
            grid = {(t, x): 0.01 + 0.001 * (x - 60) + 0.0001 * (t - 2000)
                    for t in years for x in ages}
            grid[(2000, 61)], grid[(2001, 60)] = a, b
            cells = [(t, x, r) for (t, x), r in grid.items() if r != "missing"]
            cells = [(t, x, 0.02 if r is None else r) for t, x, r in cells]
            yy, xx, rr = (np.array(c) for c in zip(*cells))
            table = RawMortalityTable(yy, xx, rr.astype(float), rate_kind=rate_kind)
            try:
                want = _cell_by_cell_q(table, ages, years, clamp_q)
                logit(want)
            except Exception as exc:
                with pytest.raises(type(exc)) as err:
                    build_surface(table, (60, 62), (2000, 2002), clamp_q=clamp_q)
                assert str(err.value) == str(exc)
                assert getattr(err.value, "year", None) == getattr(exc, "year", None)
                assert getattr(err.value, "age", None) == getattr(exc, "age", None)
                continue
            got = build_surface(table, (60, 62), (2000, 2002), clamp_q=clamp_q)
            assert got.q.tobytes() == want.tobytes()

    def test_window_larger_than_its_table_is_not_built(self):
        # 400,000 cells on a 6-row table: only the leading part that holds the
        # first absent cell is looked up, not the whole window (tens of MB)
        table = _table_from_m([60, 61], [2000, 2001, 2002], [[0.02, 0.03]] * 3)
        tracemalloc.start()
        try:
            with pytest.raises(MissingCellError, match=r"^no data for \(year=2003, age=60\)$"):
                build_surface(table, (60, 61), (2000, 201999))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6

    @pytest.mark.parametrize("window", [build_surface, window_counts])
    @pytest.mark.parametrize("ages", [(60, 10**11), (60, 10**20)], ids=["1e11", "1e20"])
    def test_huge_window_names_its_first_absent_cell(self, window, ages):
        # the axes were arrays: 10**11 ages asked numpy for 745 GiB, and a
        # span past 2**63 for more than it can index
        table = parse_table("year,age,mx,deaths,exposure\n2000,60,0.02,200,10000\n", "csv")
        with pytest.raises(MissingCellError, match=r"^no data for \(year=2000, age=61\)$"):
            window(table, ages, (2000, 2000))

    @pytest.mark.parametrize("clamp_q", [0.0, -0.5, math.nan, 1.0])
    def test_clamp_q_must_lie_inside_the_unit_interval(self, clamp_q):
        # an invalid clamp used to surface as "rate q >= 1" at the q = 0 cell
        table = _table_from_m([60, 61], [2000], [[0.0, 0.02]])
        with pytest.raises(ValueError, match=r"clamp_q must lie in \(0, 1\)"):
            build_surface(table, (60, 61), (2000, 2000), clamp_q=clamp_q)


class TestWindowCounts:
    def test_extracts_grids_when_present(self):
        from mortcast.data import window_counts

        text = (
            "year,age,mx,deaths,exposure\n"
            "2000,60,0.02,200,10000\n"
            "2000,61,0.03,300,10000\n"
            "2001,60,0.021,210,10000\n"
            "2001,61,0.031,310,10000\n"
        )
        table = parse_table(text, "csv")
        counts = window_counts(table, (60, 61), (2000, 2001))
        assert counts is not None
        D, E = counts
        np.testing.assert_array_equal(D, [[200, 300], [210, 310]])
        np.testing.assert_array_equal(E, np.full((2, 2), 10000.0))

    def test_missing_cell_names_the_first_one(self):
        from mortcast.data import window_counts

        text = "year,age,mx,deaths,exposure\n2000,60,0.02,200,10000\n"
        table = parse_table(text, "csv")
        with pytest.raises(MissingCellError, match=r"year=2000, age=61"):
            window_counts(table, (60, 61), (2000, 2001))

    def test_none_without_count_columns(self):
        from mortcast.data import window_counts

        table = parse_table("year,age,mx\n2000,60,0.02\n", "csv")
        assert window_counts(table, (60, 60), (2000, 2000)) is None

    @pytest.mark.parametrize("deaths, exposure", [("300", "0"), ("nan", "10000")],
                             ids=["zero-exposure", "nan-deaths"])
    def test_bad_cell_raises_naming_the_first_one(self, deaths, exposure):
        # no silent fallback: a window with a bad count cell used to give None,
        # and the CBD fit then ran on counts synthesized from the rates
        from mortcast.data import window_counts

        text = (
            "year,age,mx,deaths,exposure\n"
            "2001,60,0.021,nan,10000\n"  # bad too, but later in (year, age) order
            "2000,60,0.02,200,10000\n"
            f"2000,61,0.03,{deaths},{exposure}\n"
            "2001,61,0.031,310,10000\n"
        )
        table = parse_table(text, "csv")
        with pytest.raises(ValueError, match=r"year=2000, age=61"):
            window_counts(table, (60, 61), (2000, 2001))
        assert window_counts(table, (60, 60), (2000, 2000)) is not None

    def test_surface_carries_the_window_counts(self):
        text = "year,age,mx,deaths,exposure\n" + "".join(
            f"{t},{x},{(t - 1990 + x) / 1e4!r},{t - 1990 + x},10000\n"
            for t in range(1998, 2003) for x in range(59, 63))
        table = parse_table(text, "csv")
        D, E = window_counts(table, (60, 61), (1999, 2001))
        surface = build_surface(table, (60, 61), (1999, 2001))
        assert surface.counts[0].tobytes() == D.tobytes()
        assert surface.counts[1].tobytes() == E.tobytes()

    def test_surface_looks_up_and_checks_its_window_once(self, monkeypatch):
        # build_surface used to repeat both through window_counts, and
        # MortalitySurface checked the counts a second time
        import mortcast.data as data

        calls = {"_cell_rows": 0, "checked_counts": 0}
        for name in calls:
            def counting(*args, _name=name, _original=getattr(data, name)):
                calls[_name] += 1
                return _original(*args)
            monkeypatch.setattr(data, name, counting)
        text = "year,age,mx,deaths,exposure\n" + "".join(
            f"{t},{x},{(t - 1990 + x) / 1e4!r},{t - 1990 + x},10000\n"
            for t in range(1998, 2003) for x in range(59, 63))
        build_surface(parse_table(text, "csv"), (60, 61), (1999, 2001))
        assert calls == {"_cell_rows": 1, "checked_counts": 1}

    def test_surface_checks_rates_before_counts(self):
        # a cell with both a zero rate and a zero exposure is named as a rate
        # error, the order build_surface has always checked them in
        table = parse_table("year,age,mx,deaths,exposure\n2000,60,0.0,0,0\n", "csv")
        with pytest.raises(NonFiniteLogitError, match="q <= 0"):
            build_surface(table, (60, 60), (2000, 2000))
        with pytest.raises(ValueError, match=r"bad count at \(year=2000, age=60\)"):
            build_surface(table, (60, 60), (2000, 2000), clamp_q=1e-6)

    def test_qx_table_with_counts(self):
        # D/E is a central rate, so a qx cell matches 1 - exp(-D/E), not D/E
        from mortcast.data import window_counts

        D = np.array([[200.0, 300.0], [210.0, 310.0]])
        q = -np.expm1(-D / 1e4)
        text = "year,age,qx,deaths,exposure\n" + "".join(
            f"{t},{x},{float(q[i, j])!r},{float(D[i, j])!r},10000\n"
            for i, t in enumerate((2000, 2001)) for j, x in enumerate((60, 61)))
        D_got, E_got = window_counts(parse_table(text, "csv"), (60, 61), (2000, 2001))
        np.testing.assert_array_equal(D_got, D)
        np.testing.assert_array_equal(E_got, np.full((2, 2), 1e4))
        with pytest.raises(ValueError, match=r"inconsistent .*year=2000, age=60"):
            parse_table("year,age,qx,deaths,exposure\n2000,60,0.02,200,10000\n", "csv")

    @pytest.mark.parametrize("column", ["deaths", "exposure"])
    def test_count_columns_come_as_a_pair(self, column):
        with pytest.raises(ParseError, match="pair") as err:
            parse_table(f"year,age,mx,{column}\n2000,60,0.02,200\n", "csv")
        assert err.value.line == 1

    def test_list_counts_give_float_grids(self):
        # counts are converted on construction, as years, ages and rates are,
        # so a table built from lists windows like a parsed one
        from mortcast.data import window_counts

        table = RawMortalityTable([2000, 2000], [60, 61], [0.02, 0.03],
                                  counts=([200.0, 300.0], [1e4, 1e4]))
        D, E = window_counts(table, (60, 61), (2000, 2000))
        assert D.dtype == E.dtype == np.float64
        np.testing.assert_array_equal(D, [[200.0, 300.0]])
        np.testing.assert_array_equal(E, [[1e4, 1e4]])

    @pytest.mark.parametrize("ages, rates, counts", [
        ([60, 60], [0.02, 0.02], ([200.0], [1e4])),
        ([60, 60], [0.02, 0.02], ([200.0] * 3, [1e4] * 3)),
        ([60, 60], [0.02], None),
        ([60], [0.02, 0.03], None),
    ], ids=["one-count", "three-counts", "one-rate", "one-age"])
    def test_columns_need_one_entry_per_row(self, ages, rates, counts):
        # a short column must not broadcast over the rows or truncate them
        with pytest.raises(ValueError, match=r"one entry per row, got shapes \[\(2,\)"):
            RawMortalityTable([2000, 2001], ages, rates, counts=counts)


class TestSurfaceValidation:
    def test_rejects_gap_in_years(self, small_surface):
        with pytest.raises(ValueError, match="consecutive"):
            MortalitySurface(
                ages=small_surface.ages,
                years=np.array([2000, 2002]),
                q=small_surface.q[:2],
            )

    def test_rejects_nan_rate(self):
        with pytest.raises(NonFiniteLogitError, match="outside"):
            MortalitySurface(ages=[60, 61], years=[2000], q=[[np.nan, 0.02]])

    def test_rate_only_surface_carries_synthesized_counts(self, small_surface):
        D, E = synthesize_counts(small_surface.q)
        assert small_surface.counts[0].tobytes() == D.tobytes()
        assert small_surface.counts[1].tobytes() == E.tobytes()


@pytest.mark.parametrize("call, error, message", [
    (lambda: initial_to_central(-0.1), ValueError, r"^initial rate must lie in \[0, 1\)$"),
    (lambda: initial_to_central([0.5, 1.0]), ValueError, r"^initial rate must lie in \[0, 1\)$"),
    (lambda: RawMortalityTable([2000], [60], [0.02], rate_kind="crude"), ValueError,
     "^unknown rate_kind 'crude'$"),
    (lambda: RawMortalityTable([], [], []), EmptyInputError, "^table has no rows$"),
    (lambda: MortalitySurface([60, 61], [2000], [[0.02, 0.03], [0.02, 0.03]]), ValueError,
     r"^grid shape \(2, 2\) does not match 1 years x 2 ages$"),
], ids=["initial-negative", "initial-one", "rate-kind", "no-rows", "grid-shape"])
def test_input_checks_name_their_input(call, error, message):
    with pytest.raises(error, match=message):
        call()


class TestSplit:
    def test_documented_split(self, rng):
        from conftest import make_surface

        s = make_surface((60, 62), (1947, 2016), rng)
        train, test = split_train_test(s, 2006)
        assert train.years[0] == 1947 and train.years[-1] == 2006
        assert test.years[0] == 2007 and test.years[-1] == 2016
        assert train.n_years == 60 and test.n_years == 10
        np.testing.assert_array_equal(train.ages, test.ages)

    def test_partition_property(self, small_surface):
        train, test = split_train_test(small_surface, 1999)
        merged = np.concatenate([train.years, test.years])
        np.testing.assert_array_equal(merged, small_surface.years)
        assert set(train.years).isdisjoint(test.years)
        np.testing.assert_array_equal(
            np.vstack([train.y, test.y]), small_surface.y
        )

    def test_counts_split_with_the_rates(self, small_surface, rng):
        D = rng.uniform(0.0, 100.0, small_surface.q.shape)
        E = rng.uniform(1e3, 1e4, small_surface.q.shape)
        s = MortalitySurface(small_surface.ages, small_surface.years, small_surface.q, (D, E))
        train, test = split_train_test(s, 1999)
        k = train.n_years
        for half, rows in ((train, slice(None, k)), (test, slice(k, None))):
            np.testing.assert_array_equal(half.q, s.q[rows])
            np.testing.assert_array_equal(half.counts[0], D[rows])
            np.testing.assert_array_equal(half.counts[1], E[rows])

    def test_boundaries(self, small_surface):
        y0, yn = small_surface.years[0], small_surface.years[-1]
        with pytest.raises(ValueError):
            split_train_test(small_surface, yn)  # empty test set
        train, test = split_train_test(small_surface, y0)
        assert train.n_years == 1
        assert test.n_years == small_surface.n_years - 1
