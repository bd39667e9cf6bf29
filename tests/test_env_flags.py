"""README's "Environment flags" table names exactly the ``REPRO_*``
variables the code mentions, so no knob lands undocumented and no row
outlives its code."""

import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FLAG = re.compile(r"REPRO_[A-Z_]+")


def _code_flags():
    names = set()
    for top in ("src", "benchmarks"):
        for root, _, files in os.walk(os.path.join(ROOT, top)):
            for name in files:
                if name.endswith(".py"):
                    with open(os.path.join(root, name)) as fh:
                        names.update(FLAG.findall(fh.read()))
    return names


def _readme_flags():
    with open(os.path.join(ROOT, "README.md")) as fh:
        text = fh.read()
    section = text.split("\n## Environment flags\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return {FLAG.match(line, 3).group() for line in section.splitlines()
            if line.startswith("| `REPRO_")}


def test_readme_flag_table_matches_the_code():
    readme = _readme_flags()
    assert readme, "no REPRO_* rows in README's Environment flags table"
    assert readme == _code_flags()
