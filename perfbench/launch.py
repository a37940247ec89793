"""Run one ``repro`` command with the benchmark's span wrappers installed.

Usage (from the checkout root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/launch.py SPANS.json -- serve --scenario paper ...

Imports the program, installs :mod:`wrappers`, calls
``repro.cli.main(argv)`` in this process, then writes the span
aggregates to ``SPANS.json`` (and root-span intervals to
``SPANS.json.roots``) and exits with the command's code.  The dump's
``imported`` and ``main_entry`` clock readings let the caller separate
interpreter start-up and imports from wrapper installation and work.
"""

from __future__ import annotations

import sys

import spans
import wrappers


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: launch.py SPANS.json -- COMMAND [ARGS...]", file=sys.stderr)
        return 2
    path, command = argv[0], argv[2:]
    wrappers.preload()
    imported = spans.clock()
    recorder = spans.Recorder()
    wrappers.install(recorder)
    from repro.cli import main as repro_main

    main_entry = spans.clock()
    code = repro_main(command)
    recorder.dump(
        path,
        {
            "imported": imported,
            "install_s": main_entry - imported,
            "main_entry": main_entry,
            "main_exit": spans.clock(),
        },
    )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
