"""The README's python examples run as written.

Every ```python block of README.md runs, in order, in one namespace, so a
later block may use the names an earlier one defined.
"""

from __future__ import annotations

import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_readme_python_blocks_run():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.S | re.M)
    assert blocks, "README.md has no python blocks"
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
