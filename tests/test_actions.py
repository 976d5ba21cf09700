from predscore.actions import (
    QUADRANTS,
    SquareId,
    canonical_key,
    column_label,
    parse_column_label,
    try_parse_square,
)


class TestColumnLabels:
    def test_single_letters(self):
        assert [column_label(c) for c in (0, 1, 25)] == ["A", "B", "Z"]

    def test_spreadsheet_style_beyond_z(self):
        assert column_label(26) == "AA"
        assert column_label(27) == "AB"
        assert column_label(51) == "AZ"
        assert column_label(52) == "BA"

    def test_round_trip(self):
        for col in range(0, 200, 7):
            assert parse_column_label(column_label(col)) == col


class TestCanonicalKey:
    def test_squares_order_column_major(self):
        # A1 < A2 < B1: column first, then row
        assert sorted(["B1", "A2", "A1"], key=canonical_key) == ["A1", "A2", "B1"]

    def test_multi_digit_rows_sort_numerically(self):
        assert sorted(["A10", "A2"], key=canonical_key) == ["A2", "A10"]

    def test_quadrants_are_not_squares(self):
        assert all(try_parse_square(q) is None for q in QUADRANTS)
        assert sorted(QUADRANTS, key=canonical_key) == ["NE", "NW", "SE", "SW"]

    def test_squares_sort_before_plain_strings(self):
        assert sorted(["NE", "A1"], key=canonical_key) == ["A1", "NE"]

    def test_leading_zero_rows_are_not_squares(self):
        assert try_parse_square("A01") is None

    def test_a_trailing_newline_is_not_a_square(self):
        assert try_parse_square("A1\n") is None
        assert sorted(["A1\n", "B1"], key=canonical_key) == ["B1", "A1\n"]

    def test_square_text_matches_key(self):
        squares = [SquareId(c, r) for c in range(4) for r in range(3)]
        by_tuple = sorted(squares, key=lambda s: (s.col, s.row))
        by_key = sorted(squares, key=lambda s: canonical_key(s.text))
        assert by_tuple == by_key
