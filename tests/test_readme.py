"""The README's quick-start block runs as documented."""

import re
from pathlib import Path

from padicframes.cyclotomic import CycloNumber

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_block_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"),
                        re.DOTALL)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert namespace["bound"] == CycloNumber.from_rational(18, 3)
