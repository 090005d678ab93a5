"""Rewrite the golden reports ``*.json`` beside this file.

    PYTHONPATH=src python3 tests/golden/freeze.py

The reports are the library's own output at the commit this is run on,
so run it only on a commit whose answers are trusted: the golden test
exists to show that later commits reproduce them byte for byte.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from test_golden import CASES, GOLDEN_DIR, render  # noqa: E402


def main():
    for name, argv in sorted(CASES.items()):
        path = GOLDEN_DIR / ("%s.json" % name)
        path.write_text(render(argv))
        print("wrote %s" % path)


if __name__ == "__main__":
    main()
