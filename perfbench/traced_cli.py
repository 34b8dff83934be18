"""Run one pixmap CLI command in-process and record a span per wrapped call.

Usage: python3 perfbench/traced_cli.py SPANS_JSON <pixmap arguments...>

Every function listed in perfbench/layers.json is wrapped in every pixmap
module namespace that binds it (``from .image import decode_ppm`` leaves a
separate reference in ``detector`` and ``cli``); ``Class.method`` entries
are patched on the class. Spans are kept in memory and written to
SPANS_JSON when the command ends, as ``[function_index, start, end,
parent_span_index]`` rows with ``perf_counter`` times. The exit code is
the command's own.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

LAYERS_JSON = Path(__file__).resolve().parent / "layers.json"


def traced_functions() -> list[str]:
    groups = json.loads(LAYERS_JSON.read_text(encoding="utf-8"))["groups"]
    return [name for group in groups for name in group["functions"]]


class SpanRecorder:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []

    def wrap(self, index: int, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            slot = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(slot)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[slot] = (index, start, clock(), parent)
                stack.pop()

        return traced

    def install(self, names: list[str]) -> None:
        """Replace each named pixmap function with a recording wrapper."""
        modules = [m for n, m in list(sys.modules.items()) if n == "pixmap" or n.startswith("pixmap.")]
        for index, name in enumerate(names):
            module_name, _, attr = name.partition(".")
            module = sys.modules[f"pixmap.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, method, self.wrap(index, cls.__dict__[method]))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(index, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)


def main() -> int:
    spans_path, argv = Path(sys.argv[1]), sys.argv[2:]
    names = traced_functions()
    import pixmap.cli

    recorder = SpanRecorder()
    recorder.install(names)
    try:
        return pixmap.cli.main(argv)
    finally:
        spans_path.write_text(json.dumps({"names": names, "spans": recorder.spans}), encoding="ascii")


if __name__ == "__main__":
    sys.exit(main())
