"""``scripts/line_costs.py``, the cost of each line shape, on one short pass."""

import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "line_costs.py"
ROW = re.compile(r"(\w+ \S+)\s+(\d+)\s+(\d+\.\d{3})\s+(\d+\.\d)%")


def test_one_pass_of_set_algebra_prints_each_shape():
    out = subprocess.run(
        [sys.executable, str(SCRIPT), "set_algebra", "--seed", "1", "--passes", "1"],
        capture_output=True, text=True, check=True, timeout=120).stdout
    head, columns, *rows = out.splitlines()
    assert head.startswith("set_algebra seed 1: 200 lines, ")
    assert head.endswith(" ms a pass, least of 1")
    assert columns.split() == ["shape", "lines", "ms/pass", "share"]
    shapes = {}
    for row in rows:
        match = ROW.fullmatch(row)
        assert match, row
        shapes[match[1]] = int(match[2]), float(match[3]), float(match[4])
    # the 200 query lines: the 16 grids bound with let, then the
    # operators, 17 of them [+] and 36 ranges among them
    assert sum(lines for lines, _, _ in shapes.values()) == 200
    assert shapes["let <=>"][0] == 16
    assert shapes["eval [+]"][0] == 17 and shapes["eval <=>"][0] == 36
    # the 35 Box lines: 31 over two dimensions, 4 over three
    assert shapes["eval !(Box)"][0] + shapes["eval ^(Box)"][0] == 35
    # costliest first, and the shares add up to the whole pass
    costs = [ms for _, ms, _ in shapes.values()]
    assert costs == sorted(costs, reverse=True)
    assert abs(sum(share for _, _, share in shapes.values()) - 100) < 0.1 * len(shapes)


def test_a_line_has_the_shape_of_its_root_operator():
    sys.path.insert(0, str(SCRIPT.parent))
    try:
        from line_costs import shape
    finally:
        sys.path.remove(str(SCRIPT.parent))
    assert shape("eval G0 [+] H1") == "eval [+]"
    assert shape("let G0 = {(a,0),(b,0)} <=> {(a,3),(b,3)}") == "let <=>"
    assert shape("eval {(a,1)}") == "eval ContextLit"
    assert shape("eval Box[u, v | u + v == 3] ! {u}") == "eval !(Box)"
    assert shape("eval Box[u, v, w | u + v == w] ^ {w}") == "eval ^(Box)"
    assert shape("let B = Box[u | u < 3]") == "let BoxLit"
    assert shape("show N fby 1 time 3") == "show Fby"
    assert shape("eval {(a,") == "eval (error)"
    assert shape("dim a : int") == "dim"
