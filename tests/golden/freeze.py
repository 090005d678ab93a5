"""Write the golden reports ``*.json`` beside this file.

    PYTHONPATH=src python3 tests/golden/freeze.py [--force]

Only the reports of cases that have none yet are written, so adding a
case cannot rewrite a trusted report; ``--force`` rewrites them all.
The reports are the library's own output at the commit this is run on,
so run it only on a commit whose answers are trusted: the golden test
exists to show that later commits reproduce them byte for byte.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from test_golden import CASES, GOLDEN_DIR, render  # noqa: E402


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--force", action="store_true",
                    help="rewrite the reports that exist too")
    args = ap.parse_args(argv)
    for name, argv in sorted(CASES.items()):
        path = GOLDEN_DIR / ("%s.json" % name)
        if path.exists() and not args.force:
            print("kept %s" % path)
            continue
        path.write_text(render(argv))
        print("wrote %s" % path)


if __name__ == "__main__":
    main()
