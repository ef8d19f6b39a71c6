"""Run `cdlab` with spans around its public layer functions, wrapped from outside.

    python3 perfbench/trace_child.py SPANS_JSON run --config CFG --out DIR

Imports cdlab, rebinds each traced function in every cdlab module namespace
that holds it (so callers that imported it by name see the wrapper too), then
calls `cdlab.cli.main` with the remaining arguments.  Spans stay in memory as
[name index, start, end, parent span index] and are written to SPANS_JSON when
`main` returns.  `oprl.stieltjes_coeffs` additionally records the tracemalloc
peak of each call, in bytes above the traced memory at its entry.

The program's outputs must not change: the wrappers only time and count.
"""

import functools
import json
import sys
import time
import tracemalloc

TRACED = {
    "special": ["kummer_m", "hyp0f1", "bessel_zero"],
    "limit_kernels": ["fit_internal_scale", "eval_limit_kernel", "sine_kernel"],
    "measures": ["gallery", "local_scaling"],
    "oprl": ["stieltjes_coeffs", "rescaled_cd", "kernel_diag", "nevai_ratio", "poly_zeros"],
    "opuc": ["rescaled_cd_circle"],
    "canonical": ["schrodinger_kernel", "transfer_matrix", "weyl"],
    "universality": ["convergence_study", "zero_study", "sparse_jacobi"],
    "identities": ["run_identities"],
    "cli": ["run_experiment"],
}
PEAK_TRACED = "oprl.stieltjes_coeffs"


def span_names():
    return [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]


class Tracer:
    def __init__(self):
        self.names = span_names()
        self.spans = []
        self.stack = []
        self.peaks = []

    def wrap(self, name, fn):
        index = self.names.index(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [index, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def wrap_with_peak(self, name, fn):
        timed = self.wrap(name, fn)
        peaks = self.peaks

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            started = not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                return timed(*args, **kwargs)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
                if started:
                    tracemalloc.stop()

        return traced

    def install(self):
        """Rebind every traced function wherever a cdlab module holds it."""
        import cdlab.cli  # noqa: F401  (imports every cdlab module)

        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "cdlab" or n.startswith("cdlab."))]
        for name in self.names:
            mod_name, fn_name = name.split(".")
            original = getattr(sys.modules[f"cdlab.{mod_name}"], fn_name)
            make = self.wrap_with_peak if name == PEAK_TRACED else self.wrap
            wrapper = make(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans,
                       "peak_bytes": self.peaks}, fh)


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    import cdlab.cli

    try:
        return cdlab.cli.main(cli_args)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
