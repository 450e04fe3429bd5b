"""The README's code examples run as written."""
import math
import re
from pathlib import Path

import pytest

import qlimits.core

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_tour():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick tour", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(compile(block, "README quick tour", "exec"), namespace)
    # the state arithmetic is imported from qlimits.core
    for name in ("PureState", "tensor_product", "von_neumann_entropy"):
        assert namespace[name] is getattr(qlimits.core, name)
    assert namespace["curve"].shape == (501,)
    assert namespace["curve"][0] == pytest.approx(1.0, abs=1e-8)
    assert [o.probability for o in namespace["outcomes"]] == pytest.approx([0.25] * 4)
    assert namespace["result"].value == pytest.approx(math.log(2), abs=1e-12)
