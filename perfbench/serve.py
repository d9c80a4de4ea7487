"""``repro serve`` with the service layer shims installed (traced run).

Usage: ``python3 perfbench/serve.py --store DIR --trace-dir DIR``.

Installs :func:`shims.install_service_shims`, then calls the program's
own ``run_server`` with one process worker, exactly as
``python -m repro serve --port 0 --workers 1`` does. On shutdown it
removes the shims and writes the daemon's spans to
``<trace-dir>/daemon.json``; worker processes append theirs to
``<trace-dir>/worker-<pid>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import shims


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--store", required=True)
    parser.add_argument("--trace-dir", required=True)
    args = parser.parse_args()

    import repro.cli  # noqa: F401  (what `python -m repro serve` imports)
    from repro.service.daemon import run_server

    def ready(host: str, port: int) -> None:
        print(f"repro service listening on {host}:{port} (traced)", flush=True)

    rec = shims.Recorder()
    uninstall = shims.install_service_shims(rec, args.trace_dir)
    try:
        run_server(store=args.store, port=0, workers=1, worker="process", ready=ready)
    finally:
        uninstall()
        path = os.path.join(args.trace_dir, "daemon.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": rec.spans, "counts": rec.counts}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
