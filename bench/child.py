"""Run one ssdiag CLI command in this process and write what it measured.

Started by bench/run.py with one argument, a JSON spec:

    {"argv": [...], "entry": "run_y_fixed", "probe": false, "trace": false,
     "result": "bench/out/.../result-3.json", "spans": "bench/out/.../spans-3.json"}

``entry`` names the engine function that ``ssdiag.cli`` calls first; its first
call marks the end of set-up (imports, argument parsing, reading and
validating input CSVs).  A probe stops there.  With ``trace`` the layer spans
are recorded in memory and written to ``spans`` when the command returns.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


class SetupDone(BaseException):
    """Raised at the first engine call of a probe; passes through the CLI's handlers."""


def main() -> None:
    spec = json.loads(sys.argv[1])
    import ssdiag.cli as cli

    tracer = None
    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    first_call = []
    entry = getattr(cli, spec["entry"])

    def stamped_entry(*args, **kwargs):
        if not first_call:
            first_call.append(time.perf_counter())
            if spec["probe"]:
                raise SetupDone
        return entry(*args, **kwargs)

    setattr(cli, spec["entry"], stamped_entry)

    t_call = time.perf_counter()
    exit_code = None
    try:
        if tracer is None:
            exit_code = cli.main(spec["argv"])
        else:
            span = tracer.open("cli.main")
            try:
                exit_code = cli.main(spec["argv"])
            finally:
                tracer.close(span)
    except SetupDone:
        pass
    t_return = time.perf_counter()

    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    result = {
        "exit_code": exit_code,
        "ssdiag_file": cli.__file__,
        "setup_s": first_call[0] - T_START if first_call else None,
        "wall_s": t_return - t_call,
        "sim_s": t_return - first_call[0] if first_call else None,
        "peak_rss_kb": rss_kb,
    }
    with open(spec["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    if tracer is not None:
        with open(spec["spans"], "w", encoding="utf-8") as handle:
            json.dump(tracer.spans, handle)


if __name__ == "__main__":
    main()
