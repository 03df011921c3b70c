import pytest

from pdcalib.cohorts import CohortSnapshot, GradeCount, observed_default_rates, parse_cohort_csv
from pdcalib.csvio import CohortError

HEADER = "period,grade_order,grade_label,performing_start,defaults_end\n"


def make_snapshot(period, rows):
    return CohortSnapshot(period, tuple(GradeCount(o, lbl, n, d) for o, lbl, n, d in rows))


class TestParse:
    def test_fixture_periods_and_totals(self, snapshots):
        assert [s.period for s in snapshots] == ["2016", "2017"]
        s16, s17 = snapshots
        assert (s16.total_performing, s16.total_defaults) == (5968, 124)
        assert (s17.total_performing, s17.total_defaults) == (7773, 51)

    def test_fixture_rows(self, snapshot_2016, snapshot_2017):
        bb = next(g for g in snapshot_2016.grades if g.label == "BB")
        assert (bb.order, bb.performing_start, bb.defaults_end) == (5, 1470, 60)
        cc = next(g for g in snapshot_2017.grades if g.label == "CC")
        assert (cc.order, cc.performing_start, cc.defaults_end) == (8, 28, 4)

    def test_single_row(self, csv_file):
        snaps = parse_cohort_csv(csv_file(HEADER + "2016,5,BB,1470,60\n2016,6,B,1225,25\n"))
        assert snaps[0].grades[0] == GradeCount(5, "BB", 1470, 60)

    def test_defaults_exceed_performing(self, csv_file):
        with pytest.raises(CohortError, match=r"line 2: .*defaults exceed performing"):
            parse_cohort_csv(csv_file(HEADER + "2016,5,BB,10,11\n"))

    def test_malformed_row_reports_line(self, csv_file):
        with pytest.raises(CohortError, match="line 3"):
            parse_cohort_csv(csv_file(HEADER + "2016,1,AAA,14,0\n2016,2,AA,x,0\n"))

    def test_duplicate_pair(self, csv_file):
        with pytest.raises(CohortError, match="duplicate"):
            parse_cohort_csv(csv_file(HEADER + "2016,1,AAA,14,0\n2016,1,AAA,14,0\n"))

    def test_default_bucket_accepted_but_excluded(self, csv_file):
        snaps = parse_cohort_csv(csv_file(
            HEADER + "2016,1,AAA,14,0\n2016,2,AA,153,0\n2016,9,C/D,40,40\n"))
        assert [g.label for g in snaps[0].grades] == ["AAA", "AA"]

    def test_bad_header(self, csv_file):
        with pytest.raises(CohortError, match="expected header"):
            parse_cohort_csv(csv_file("a,b,c\n1,2,3\n"))

    def test_byte_order_mark_is_not_part_of_the_header(self, fixture_csv, snapshots, tmp_path):
        # spreadsheet tools write UTF-8 with a leading byte-order mark
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + fixture_csv.read_bytes())
        assert parse_cohort_csv(marked) == snapshots

    def test_utf16_names_the_file(self, fixture_csv, tmp_path):
        wide = tmp_path / "wide.csv"
        wide.write_text(fixture_csv.read_text(encoding="utf-8"), encoding="utf-16")
        with pytest.raises(CohortError, match=r"wide\.csv: not UTF-8 text"):
            parse_cohort_csv(wide)


class TestObservedRates:
    def test_fixture_rates(self, snapshot_2016, snapshot_2017):
        rates16 = {g.label: rate for g, rate in
                   zip(snapshot_2016.grades, observed_default_rates(snapshot_2016))}
        assert rates16["BB"] == pytest.approx(60 / 1470)
        assert round(100 * rates16["BB"], 1) == 4.1
        rates17 = {g.label: rate for g, rate in
                   zip(snapshot_2017.grades, observed_default_rates(snapshot_2017))}
        assert rates17["CC"] == pytest.approx(4 / 28)
        assert round(100 * rates17["CC"], 1) == 14.3

    def test_empty_cohort_flagged(self):
        snap = make_snapshot("t", [(1, "A", 0, 0), (2, "B", 10, 1)])
        assert observed_default_rates(snap) == [0.0, 0.1]

    def test_rates_in_unit_interval(self, snapshots):
        for snap in snapshots:
            for rate in observed_default_rates(snap):
                assert 0.0 <= rate <= 1.0


class TestValidation:
    def test_negative_counts(self):
        with pytest.raises(ValueError):
            GradeCount(1, "A", -1, 0)

    def test_label_needing_csv_quotes_rejected(self, csv_file):
        # csv.reader reads """A as "A, which calibration.csv could not carry unquoted
        with pytest.raises(CohortError, match="line 2: invalid grade label"):
            parse_cohort_csv(csv_file(HEADER + '2016,1,"""A",14,0\n'))

    def test_snapshot_order_enforced(self):
        with pytest.raises(ValueError, match="increasing"):
            make_snapshot("t", [(2, "B", 10, 0), (1, "A", 10, 0)])
