import line_count

SAMPLE = '''"""Module docstring,

over three lines."""

# a comment line
X = 1  # a code line with a comment


def f():
    """One line."""
    return """not a
docstring"""
'''


def test_line_kinds_sum_to_each_file():
    for name, counts in line_count.count_package().items():
        source = (line_count.PACKAGE / name).read_text(encoding="utf-8")
        assert sum(counts.values()) == len(source.splitlines()), name


def test_line_kinds_of_a_sample():
    assert line_count.count_lines(SAMPLE) == {"code": 4, "docstring": 4, "comment": 1,
                                              "blank": 3}
