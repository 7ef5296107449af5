import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quickstart_runs():
    # the python block under "Library quickstart" runs as written, and each
    # line whose comment shows a Sums record gives exactly that record
    section = README.read_text().split("## Library quickstart\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, re.S)
    namespace = {}
    exec(compile(block, "README quickstart", "exec"), namespace)
    shown = [line.split("# ", 1) for line in block.splitlines() if "# Sums(" in line]
    assert shown
    for expr, comment in shown:
        assert repr(eval(expr, namespace)) == comment.strip()
