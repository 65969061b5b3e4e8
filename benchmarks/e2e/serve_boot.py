"""Start ``repro serve``, optionally with the serving path traced.

Usage: ``serve_boot.py [--spans FILE] serve ARCHIVE [repro serve options]``

Without ``--spans`` this is exactly ``repro.cli.main(["serve", ...])``.  With
it, span wrappers go around the GET and SEARCH layers first, and the spans
are written to FILE when the server shuts down (SIGTERM).
"""

from __future__ import annotations

import sys

import common


def main(argv) -> int:
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]
    common.require_source()
    from repro.cli import main as repro_main

    if spans_path is None:
        return repro_main(argv)
    import spans

    tracer = spans.Tracer()
    spans.install_server_wrappers(tracer)
    try:
        return repro_main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
