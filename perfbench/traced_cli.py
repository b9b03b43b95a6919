"""Run one cesgrowth command with spans recorded at its module boundaries.

    python -m perfbench.traced_cli SPANS.npz <cesgrowth arguments...>

The spans are written to SPANS.npz when the command ends; the exit code is
the command's.
"""

import sys

from perfbench import spans


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    from cesgrowth import cli

    tracer = spans.Tracer()
    spans.install(tracer)
    tracer.enabled = True
    try:
        return tracer.operation(cli.main, argv)
    finally:
        spans.save(tracer.arrays(), path)


if __name__ == "__main__":
    sys.exit(main())
