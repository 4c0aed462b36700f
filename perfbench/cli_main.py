"""Run the ``kitaev-chain`` command line in a fresh process, as a user would.

    python3 perfbench/cli_main.py [--trace-out SPANS.json --run-id ID] -- zscan ...
    python3 perfbench/cli_main.py --setup-only

The arguments after ``--`` go to ``kitaev_chain.cli.main`` unchanged and its
return value is the exit code, exactly like the installed ``kitaev-chain``
script.  With ``--trace-out`` the layer entry points are wrapped first and the
spans are written when the command returns.  ``--setup-only`` imports the CLI,
prints ``READY`` and exits.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import checkout


def main(argv: list[str]) -> int:
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", type=Path)
    parser.add_argument("--run-id", default="")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv[:split])

    checkout.import_package()
    from kitaev_chain import cli

    if args.setup_only:
        print(checkout.READY, json.dumps(checkout.runtime_info()), flush=True)
        return 0
    if args.trace_out is None:
        return cli.main(argv[split + 1 :])

    import spans

    tracer = spans.Tracer(args.run_id)
    spans.install(tracer)
    try:
        return cli.main(argv[split + 1 :])
    finally:
        tracer.dump(args.trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
