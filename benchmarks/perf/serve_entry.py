"""Start ``repro serve`` with the benchmark's layer wrappers installed.

``python serve_entry.py --dump PATH -- serve --port 0 ...`` wraps every
layer (:func:`instrument.install`, serve layer included) and hands the
remaining arguments to the real ``repro`` CLI.  When the server has
drained, the recorder's dump is written to ``PATH`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--dump", required=True)
    p.add_argument("cli", nargs=argparse.REMAINDER)
    args = p.parse_args()
    cli = args.cli[1:] if args.cli[:1] == ["--"] else args.cli
    sys.path.insert(0, str(HERE))
    from instrument import install
    from layers import Recorder
    from repro.cli import main as repro_main

    rec = Recorder()
    install(rec, serve=True)
    try:
        return repro_main(cli)
    finally:
        rec.unwrap_all()
        Path(args.dump).write_text(json.dumps(rec.dump()))


if __name__ == "__main__":
    sys.exit(main())
