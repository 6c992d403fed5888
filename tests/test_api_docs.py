"""``docs/api.md`` is generated from the code and must match it.

The API reference is written by ``tools/gen_api_docs.py``; a module added,
removed or re-documented without regenerating leaves the committed file
stale.  This test regenerates it into a temporary directory and compares
the bytes.
"""

from __future__ import annotations

import importlib.util
import pathlib

REPO = pathlib.Path(__file__).parent.parent


def test_committed_api_reference_is_current(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location(
        "gen_api_docs", REPO / "tools" / "gen_api_docs.py"
    )
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    out = tmp_path / "api.md"
    assert generator.main([str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (REPO / "docs" / "api.md").read_bytes(), (
        "docs/api.md is stale; regenerate it with "
        "`python tools/gen_api_docs.py`"
    )
