#!/usr/bin/env python3
"""p2pse orphan-header check.

Fails when a header under src/ is included by no production file: nothing in
src/, bench/, examples/ or e2ebench/ includes it except the header's own
.cpp. Such a header is a component no binary reaches; the tests alone keep it
compiling, so it only costs review and maintenance. Delete it (with its
tests) or give it a caller.

Usage:
    orphan_headers.py [REPO_ROOT]     (default: the repository holding this
                                       script)

Exit status: 0 when every header has a production includer, 1 otherwise.
"""

from __future__ import annotations

import os
import re
import sys

CONSUMER_DIRS = ("src", "bench", "examples", "e2ebench")
SOURCE_EXTS = (".cpp", ".hpp")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s*[<"]([^">]+)[">]', re.MULTILINE)


def source_files(root: str, top: str):
    for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(SOURCE_EXTS):
                yield os.path.join(dirpath, name)


def orphan_headers(root: str) -> list[str]:
    """Returns the repo-relative paths of headers under src/ that no
    production file other than their own .cpp includes."""
    src = os.path.join(root, "src")
    headers = {}  # include spelling ("p2pse/net/graph.hpp") -> path
    for path in source_files(root, "src"):
        if path.endswith(".hpp"):
            headers[os.path.relpath(path, src).replace(os.sep, "/")] = path

    included = set()
    for top in CONSUMER_DIRS:
        for path in source_files(root, top):
            with open(path, encoding="utf-8", errors="replace") as handle:
                text = handle.read()
            own_header = os.path.splitext(path)[0] + ".hpp"
            for spelling in INCLUDE_RE.findall(text):
                header = headers.get(spelling)
                if header is not None and header != own_header:
                    included.add(spelling)

    return sorted(
        os.path.relpath(path, root).replace(os.sep, "/")
        for spelling, path in headers.items() if spelling not in included)


def main(argv: list[str]) -> int:
    if len(argv) > 1 or (argv and argv[0].startswith("-")):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    root = argv[0] if argv else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "..")
    root = os.path.abspath(root)
    orphans = orphan_headers(root)
    for path in orphans:
        print(f"{path}: orphan header — no file in "
              f"{', '.join(d + '/' for d in CONSUMER_DIRS)} includes it "
              f"except its own .cpp")
    if orphans:
        print(f"orphan_headers: {len(orphans)} orphan header(s)",
              file=sys.stderr)
        return 1
    print("orphan_headers: every header under src/ has a production includer")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
