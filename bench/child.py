"""One benchmark run in a fresh interpreter.

Usage: python3 bench/child.py SPEC.json

SPEC names the checkout root, the workload's commands and where to write
the result.  The run imports nlqw from the checkout's src/, loads and
validates every command's config (that is the set-up time), then calls
nlqw.cli.main once per command and times each call.  With "trace" set the
layer boundaries are wrapped first and the spans are written next to the
result.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main(spec_path: str) -> int:
    t0 = time.perf_counter()
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    src = spec["root"] + "/src"
    sys.path.insert(0, src)
    import nlqw
    import nlqw.cli

    if not nlqw.__file__.startswith(src + "/"):
        raise RuntimeError(f"imported nlqw from {nlqw.__file__}, not from {src}")
    for cmd in spec["commands"]:
        nlqw.cli._load_config(cmd["config"], cmd["sets"])
    result = {"setup_s": time.perf_counter() - t0}

    spans = undo = None
    if spec["trace"]:
        import tracer

        spans = tracer.Tracer()
        undo = tracer.install(spans)
    walls, codes = [], []
    for cmd, out in zip(spec["commands"], spec["out_dirs"]):
        argv = [cmd["command"], "--config", cmd["config"], "--out", out]
        for s in cmd["sets"]:
            argv += ["--set", s]
        start = time.perf_counter()
        if spans is None:
            code = nlqw.cli.main(argv)
        else:
            code, _ = spans.call(
                "cli.main", nlqw.cli.main, (argv,),
                attrs={"command": cmd["command"]}, root=True,
            )
        walls.append(time.perf_counter() - start)
        codes.append(code)
    if spans is not None:
        undo()
        with open(spec["spans_path"], "w", encoding="utf-8") as fh:
            json.dump(spans.spans, fh)
    result.update(
        walls=walls,
        codes=codes,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    with open(spec["result_path"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
