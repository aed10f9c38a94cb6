"""Run the supercong CLI in this process with a span around each layer's entry points.

Usage: python tracer.py SPANS_OUT ARG...   (ARG... as for `python -m supercong.cli`)

The report goes to stdout exactly as the untraced CLI writes it. Spans are
kept in memory and written to SPANS_OUT as JSON when the CLI returns:

    {"import_s": <seconds to import supercong.cli>, "module": <its file>,
     "spans": [[name, start, end, parent, attrs], ...]}

where parent is the index of the enclosing span or -1. The parent process
derives self times and counts from them.

Names are patched where callers look them up: `verifier` imports its
evaluators by name, and `cli` imports `sweep` by name.
"""

from __future__ import annotations

import json
import sys
import time

perf_counter = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name, fn, describe=None):
        """fn with a span named `name`; describe(args, result) gives its attrs."""

        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._open[-1] if self._open else -1, None]
            self.spans.append(span)
            self._open.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._open.pop()
            if describe is not None:
                span[4] = describe(args, result)
            return result

        return traced

    def current(self) -> list:
        """The innermost open span."""
        return self.spans[self._open[-1]]


def _compsum_attrs(args, result):
    spec = args[0]
    modulus = args[1] if len(args) > 1 else None
    e = modulus.r if modulus is not None else spec.r
    kind = "S" if spec.upper_bound is not None else "R"
    return {"kind": kind, "n": spec.n, "p": spec.p, "r": spec.r, "e": e, "target": spec.target}


def install(tracer: Tracer) -> None:
    from supercong import cache, cli, reports, verifier

    wrap = tracer.wrap
    verifier.comp_sum = wrap("compsum.comp_sum", verifier.comp_sum, _compsum_attrs)
    verifier.bernoulli_mod_p = wrap(
        "bernoulli.mod_p", verifier.bernoulli_mod_p, lambda args, result: {"p": args[1]}
    )
    verifier.mhs = wrap("mhs.mhs", verifier.mhs)
    verifier.unordered_sum = wrap("mhs.unordered_sum", verifier.unordered_sum)
    verifier.count_solutions_exact = wrap("verifier.count_solutions", verifier.count_solutions_exact)

    context_comp_sum = verifier.EvalContext.comp_sum

    def counted_comp_sum(self, spec, mod_exp):
        hits = self.cache_hits
        value = context_comp_sum(self, spec, mod_exp)
        tracer.current()[4] = {"cache_hit": self.cache_hits > hits}
        return value

    verifier.EvalContext.comp_sum = wrap("verifier.context", counted_comp_sum)
    cli.sweep = wrap("verifier.sweep", cli.sweep, lambda args, result: {"instances": len(result)})
    reports.emit_report = wrap(
        "reports.emit", reports.emit_report, lambda args, result: {"bytes": len(result.encode())}
    )
    cache.ResidueCache.__init__ = wrap(
        "cache.load", cache.ResidueCache.__init__, lambda args, result: {"rows": len(args[0].rows)}
    )
    cache.ResidueCache.append = wrap(
        "cache.append", cache.ResidueCache.append, lambda args, result: {"rows": result}
    )


def main(argv: list[str]) -> int:
    out_path, cli_argv = argv[0], argv[1:]
    start = perf_counter()
    import supercong.cli

    import_s = perf_counter() - start
    module = supercong.cli.__file__
    tracer = Tracer()
    install(tracer)
    code = tracer.wrap("cli.main", supercong.cli.main)(cli_argv)
    sys.stdout.flush()
    with open(out_path, "w") as fh:
        json.dump({"import_s": import_s, "module": module, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
