"""The products of two fixed runs keep the bytes recorded in golden_products.json.

``test_11_determinism`` compares two runs of one tree; this test compares
a run with the bytes recorded when the file was written, so a change of
the code or of numpy that moves any product fails here.  The scenes and
the digests are ``scripts/golden_products.py``'s, which regenerates the
file with ``--write``.
"""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "golden_products.py"
_spec = importlib.util.spec_from_file_location("golden_products", SCRIPT)
golden_products = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_products)


def test_products_equal_golden_digests(tmp_path):
    golden = json.loads(golden_products.GOLDEN.read_text())
    found = golden_products.run_digests(tmp_path)
    assert found == golden["digests"], (
        f"product bytes moved; recorded with Python {golden['python']} and numpy "
        f"{golden['numpy']}, run with {golden_products.versions()}")
